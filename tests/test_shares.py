import gc
import itertools
import random
import weakref
from fractions import Fraction
from math import inf

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmms.core import (
    MAX_EXACT_ITEMS,
    Additive,
    Bundle,
    CapExceededError,
    CappedAdditive,
    Instance,
    InvariantError,
    MalformedBundleError,
    Table,
)
from rmms import shares
from rmms.shares import (
    acceptable_partition,
    is_residual_feasible,
    mms,
    mxs,
    ratio_bound,
    rmms,
)


def full(m):
    return Bundle((1 << m) - 1)


class TestMms:
    def test_symmetric_split(self):
        assert mms(Additive((1, 1, 1, 1)), full(4), 2).value == 2

    def test_single_agent_takes_all(self):
        v = Additive((2, 3, 4))
        assert mms(v, full(3), 1).value == 9

    def test_big_item(self):
        # Oracle-derived: optimum is {e0} vs {e1,e2,e3}.
        report = mms(Additive((3, 1, 1, 1)), full(4), 2)
        assert report.value == 3
        assert len(report.witness) == 2
        assert min(
            Additive((3, 1, 1, 1)).value_of(b.mask) for b in report.witness
        ) == 3

    def test_witness_partitions_the_set(self):
        rng = random.Random(0)
        for _ in range(50):
            m = rng.randint(1, 6)
            n = rng.randint(1, 3)
            v = Additive(tuple(rng.randint(0, 4) for _ in range(m)))
            report = mms(v, full(m), n)
            union = 0
            total = 0
            for b in report.witness:
                union |= b.mask
                total += len(b)
            assert union == (1 << m) - 1 and total == m

    def test_monotone_in_n_and_items(self):
        rng = random.Random(1)
        for _ in range(50):
            m = rng.randint(2, 6)
            v = Additive(tuple(rng.randint(0, 4) for _ in range(m)))
            vals = [mms(v, full(m), n).value for n in range(1, 4)]
            assert vals == sorted(vals, reverse=True)
            sub = Bundle((1 << (m - 1)) - 1)
            assert mms(v, sub, 2).value <= mms(v, full(m), 2).value

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            mms(Additive((1,)), full(1), 0)

    def test_item_cap(self):
        with pytest.raises(CapExceededError):
            mms(Additive(tuple([1] * 21)), Bundle((1 << 21) - 1), 2)


@pytest.mark.parametrize("call", [
    lambda v, S: mms(v, S, 2),
    lambda v, S: rmms(v, S, 2),
    lambda v, S: is_residual_feasible(v, S, 2, 1),
    lambda v, S: acceptable_partition(v, S, 2, 1),
], ids=["mms", "rmms", "is_residual_feasible", "acceptable_partition"])
def test_bundle_outside_the_items_is_rejected(call):
    # Item 3 does not exist: no witness may hold it, and no IndexError
    # from the value array gets out.
    with pytest.raises(MalformedBundleError):
        call(Additive((1, 2, 3)), Bundle(0b1000))


@pytest.mark.parametrize("call, message", [
    (lambda v, S: acceptable_partition(v, S, 0, 1), "one part, got q=0"),
    (lambda v, S: acceptable_partition(v, S, 2, -1), "non-negative, got t=-1"),
    (lambda v, S: is_residual_feasible(v, S, 0, 1), "one agent, got n=0"),
    (lambda v, S: is_residual_feasible(v, S, 2, -1), "non-negative, got t=-1"),
    (lambda v, S: rmms(v, S, 0), "one agent, got n=0"),
    (lambda v, S: mms(v, S, 0), "one agent, got n=0"),
    (lambda v, S: ratio_bound(0, "additive"), "one agent, got n=0"),
], ids=["acceptable_partition_q_0", "acceptable_partition_t_-1",
        "is_residual_feasible_n_0", "is_residual_feasible_t_-1", "rmms_n_0",
        "mms_n_0", "ratio_bound_n_0"])
def test_arguments_outside_their_range_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call(Additive((1, 2, 3)), Bundle(0b111))


@pytest.mark.parametrize("call", [
    lambda inst, S: mms(inst.valuations[0], S, 2),
    lambda inst, S: rmms(inst.valuations[0], S, 2),
    lambda inst, S: is_residual_feasible(inst.valuations[0], S, 2, 1),
    lambda inst, S: acceptable_partition(inst.valuations[0], S, 2, 1),
    lambda inst, S: mxs(inst, 0),
], ids=["mms", "rmms", "is_residual_feasible", "acceptable_partition", "mxs"])
def test_every_share_entry_point_refuses_past_the_item_cap(call):
    m = MAX_EXACT_ITEMS + 1
    inst = Instance(m, 2, tuple(Additive((1,) * m) for _ in range(2)))
    with pytest.raises(CapExceededError,
                       match="exact share solvers support at most 20 items, "
                             "got 21"):
        call(inst, full(m))


@pytest.mark.parametrize("agent", [-1, 3, 7])
@pytest.mark.parametrize("share", ["mms", "rmms", "mxs"])
def test_agent_outside_the_instance_is_rejected(share, agent):
    # Agent -1 once came back labelled -1 from mxs, with its own bundle in
    # the wrong slot, and agent n raised a bare IndexError.
    from rmms.cli import generate_instance

    inst = generate_instance(1, 0, 3, 6, "additive", 10)
    calls = {
        "mms": lambda a: mms(inst.valuations[0], inst.all_items, 3, agent=a),
        "rmms": lambda a: rmms(inst.valuations[0], inst.all_items, 3,
                               agent=a),
        "mxs": lambda a: mxs(inst, a),
    }
    with pytest.raises(ValueError, match="agent"):
        calls[share](agent)
    for a in range(3):
        assert calls[share](a).agent == a
    if share != "mxs":
        assert calls[share](None).agent is None


class TestAcceptablePartition:
    def test_zero_threshold(self):
        parts = acceptable_partition(Additive((1, 1)), full(2), 3, 0)
        assert parts == (full(2), Bundle(), Bundle())

    def test_infeasible_by_total(self):
        assert acceptable_partition(Additive((1,) * 5), full(5), 2, 3) is None

    def test_balanced_pairs(self):
        v = Additive((2, 2, 1, 1))
        parts = acceptable_partition(v, full(4), 2, 3)
        assert parts is not None
        assert all(v.value_of(p.mask) >= 3 for p in parts)

    def test_deterministic(self):
        v = Additive((2, 2, 1, 1))
        assert acceptable_partition(v, full(4), 2, 3) == acceptable_partition(
            v, full(4), 2, 3
        )

    def test_mms_threshold_always_feasible(self):
        rng = random.Random(2)
        for _ in range(50):
            m = rng.randint(1, 6)
            n = rng.randint(1, 3)
            v = Additive(tuple(rng.randint(0, 4) for _ in range(m)))
            t = mms(v, full(m), n).value
            assert acceptable_partition(v, full(m), n, t) is not None


class TestResidualFeasible:
    def test_zero_threshold_true(self):
        assert is_residual_feasible(Additive((1, 1)), full(2), 2, 0).feasible

    def test_six_ones_three_agents(self):
        v = Additive((1,) * 6)
        assert is_residual_feasible(v, full(6), 3, 2).feasible
        check = is_residual_feasible(v, full(6), 3, 3)
        assert not check.feasible
        assert check.k == 0

    def test_counterexample_is_replayable(self):
        # t above RMMS but at most MMS must fail with a concrete removal.
        v = Additive((2, 2, 1, 1))
        mms_val = mms(v, full(4), 2).value
        rmms_val = rmms(v, full(4), 2).value
        assert rmms_val == mms_val == 3  # no gap here; build one below
        v2 = Additive((4, 3, 2))
        assert mms(v2, full(3), 2).value == 4
        check = is_residual_feasible(v2, full(3), 2, 4)
        if not check.feasible:
            assert check.removed is not None


def naive_residual_scan(v, smask, n, t):
    """(feasible, k, removed mask) from scanning every k in [0, n) and every
    removal R inside S = smask in ascending order, with unmemoized
    searches."""
    vals = [v.value_of(mask) for mask in range(smask + 1)]

    def nonempty_submasks(mask):
        return [sub for sub in range(1, mask + 1) if sub & ~mask == 0]

    def splits_high(mask, q):
        # Exactly q parts, each worth >= t > 0 (so each non-empty).
        if q == 1:
            return vals[mask] >= t
        return any(
            vals[part] >= t and splits_high(mask ^ part, q - 1)
            for part in nonempty_submasks(mask) if part != mask
        )

    def splits_low(mask, k):
        # At most k non-empty parts, each worth < t.
        if mask == 0:
            return True
        return k > 0 and any(
            vals[part] < t and splits_low(mask ^ part, k - 1)
            for part in nonempty_submasks(mask)
        )

    if t == 0:
        return True, None, None
    if not splits_high(smask, n):
        return False, 0, 0
    for k in range(1, n):
        for R in nonempty_submasks(smask):
            if splits_low(R, k) and not splits_high(smask ^ R, n - k):
                return False, k, R
    return True, None, None


def xos_table(clauses):
    """Table of an XOS valuation: the best of several additive clauses."""
    m = len(clauses[0])
    return Table(tuple(
        max(sum(c[j] for j in range(m) if mask >> j & 1) for c in clauses)
        for mask in range(1 << m)
    ))


# XOS valuations (m = 6, n = 3) whose residual check fails at k = 2 for some
# t <= MMS; found by random search, as such failures are rare.
XOS_K2_CLAUSES = [
    [[3, 5, 0, 0, 5, 3], [3, 1, 5, 5, 0, 3], [0, 0, 1, 0, 3, 5]],
    [[1, 0, 3, 0, 0, 5], [3, 5, 0, 5, 0, 0], [0, 1, 5, 0, 3, 3]],
]


def residual_case_valuations(kind, rng):
    """Valuations of the given kind for every (m, n) with m <= 6, n <= 4,
    with 24 at m = 6, the only size here where an additive threshold
    at most MMS can fail after a removal. Half the tables are generated,
    half are random XOS valuations, plus the XOS_K2_CLAUSES cases."""
    from rmms.cli import generate_instance

    for m in range(1, 7):
        for n in range(1, 5):
            for index in range(24 if m == 6 else 1):
                values = tuple(rng.randint(1, 9) for _ in range(m))
                if kind == "additive":
                    v = Additive(values)
                elif kind == "capped_additive":
                    v = CappedAdditive(values, rng.randint(1, sum(values)))
                elif index % 2:
                    v = generate_instance(5, 100 * m + 10 * n + index, 1, m,
                                          "table", 8).valuations[0]
                else:
                    v = xos_table([[rng.choice((0, 0, 1, 3, 5))
                                    for _ in range(m)] for _ in range(3)])
                yield v, m, n
    if kind == "table":
        for clauses in XOS_K2_CLAUSES:
            yield xos_table(clauses), 6, 3


@pytest.mark.parametrize("kind", ["additive", "capped_additive", "table"])
def test_residual_check_matches_naive_scan(kind):
    # S is all items, and all items but the middle one, so removals and
    # remainders must stay inside S.
    failing_k = set()
    failing_inside = False
    for v, m, n in residual_case_valuations(kind, random.Random(11)):
        everything = (1 << m) - 1
        for smask in {everything, everything ^ (1 << (m // 2))}:
            S = Bundle(smask)
            ceiling = mms(v, S, n).value
            for t in sorted({v.value_of(mask) for mask in range(smask + 1)
                             if mask & ~smask == 0}):
                if t > ceiling:
                    break
                check = is_residual_feasible(v, S, n, t)
                removed = None if check.removed is None else check.removed.mask
                got = (check.feasible, check.k, removed)
                assert got == naive_residual_scan(v, smask, n, t), (v, smask, n, t)
                failing_k.add(check.k)
                failing_inside |= bool(removed) and smask != everything
    # The corpus reaches removals, not just the k = 0 check; with tables,
    # also inside a proper subset S.
    assert 1 in failing_k
    if kind == "table":
        assert 2 in failing_k and failing_inside


@given(kind=st.sampled_from(["additive", "capped_additive", "table"]),
       m=st.integers(1, 6), n=st.integers(1, 4),
       seed=st.integers(0, 10 ** 6), drop=st.integers(0, 6))
@settings(max_examples=100, deadline=None)
def test_residual_feasible_thresholds_form_a_down_set(kind, m, n, seed, drop):
    # For t' < t, a removal that qualifies at t' qualifies at t, and a pack
    # at t is a pack at t'. So feasibility holds up to RMMS and fails above.
    from rmms.cli import generate_instance

    v = generate_instance(seed, 0, 1, m, kind, 9).valuations[0]
    smask = ((1 << m) - 1) & ~(1 << drop)
    candidates = sorted({v.value_of(mask) for mask in range(smask + 1)
                         if mask & ~smask == 0})
    assert shares._candidate_values(v, smask) == tuple(candidates)
    feasible = [is_residual_feasible(v, Bundle(smask), n, t).feasible
                for t in candidates + [candidates[-1] + 1]]
    count = feasible.count(True)
    assert feasible == [True] * count + [False] * (len(feasible) - count)
    assert candidates[count - 1] == rmms(v, Bundle(smask), n).value


def test_candidate_values_of_all_items_match_the_masked_scan():
    # All items sort the whole value array; a proper subset S first keeps
    # the masks inside it. Both give the ascending distinct values over the
    # subsets of S: for every kind at m 1-10, and for an unchecked table
    # with v({}) != 0 whose least value is -1.
    from rmms.cli import generate_instance

    cases = [(generate_instance(41, m, 1, m, kind, 10).valuations[0], m)
             for m, kind in itertools.product(range(1, 11), ("additive",
                                              "capped_additive", "table"))]
    cases.append((Table((2, -1, 4, 3), validate=False), 2))
    for v, m in cases:
        everything = (1 << m) - 1
        for smask in {everything, everything ^ (1 << (m // 2))}:
            want = tuple(sorted({v.value_of(X) for X in range(everything + 1)
                                 if X | smask == smask}))
            assert shares._candidate_values(v, smask) == want, (v, smask)
    assert shares._candidate_values(cases[-1][0], 1) == (-1, 2)


def generate_instance_valuation(m, kind, max_value):
    from rmms.cli import generate_instance

    return generate_instance(5, 0, 1, m, kind, max_value).valuations[0]


def memo_cases():
    """(v, [(smask, n), ...]): two generated valuations per (m, kind),
    m <= 8, each with n 1-5 and S = all items or all but one."""
    from rmms.cli import generate_instance

    for m, index in itertools.product(range(1, 9), range(2)):
        for kind in ("additive", "capped_additive", "table"):
            v = generate_instance(m, index, 1, m, kind, 9).valuations[0]
            everything = (1 << m) - 1
            yield v, [(smask, n) for n in range(1, 6)
                      for smask in {everything, everything ^ (1 << (m // 2))}]


def forget(v):
    """Drop the share results kept on v, so that its next MMS and RMMS
    search again."""
    vars(v).pop("_shares", None)


def fresh_record():
    """Empty the record slot, so that the next search builds a new record."""
    shares._slot[:] = None, None


def split_masks(rec, smask, n, t):
    """The masks of the n-partition of smask with every part worth >= t
    that ``_partition`` finds, or None: the parts a residual check takes."""
    parts = shares._partition(rec, smask, n, t)
    return None if parts is None else [p.mask for p in parts]


def fresh_pack(table, t, mask, q):
    """``_pack`` with an empty memo, and a sum bound and a size bound that
    never prune."""
    return shares._pack(table, [inf] * len(table), t, {}, mask, q, 0)


def test_pack_memo_is_order_independent():
    # The record's memos carry failures up and packs down across
    # thresholds, and serve every S and n of a valuation. Whatever order the
    # thresholds come in, and with MMS and RMMS searching on the same record
    # in between, every answer is the one a fresh record gives.
    rng = random.Random(17)
    for v, cases in memo_cases():
        checks, reports = {}, {}
        for smask, n in cases:
            S = Bundle(smask)
            candidates = list(shares._candidate_values(v, smask))
            checks[smask, n] = {}
            for t in candidates + [candidates[-1] + 1]:
                fresh_record()
                checks[smask, n][t] = is_residual_feasible(v, S, n, t)
            fresh_record()
            forget(v)
            reports[smask, n] = (mms(v, S, n), rmms(v, S, n))
            # The MMS witness is the first pack a fresh search finds at MMS.
            best = reports[smask, n][0]
            if best.value:
                table = shares._record(v).table
                fresh = fresh_pack(table, best.value, smask, n)
                assert best.witness == shares._canonical(
                    tuple(Bundle(p) for p in fresh)), (v, smask, n)
        fresh_record()
        rec = shares._record(v)
        for smask, n in cases:
            S = Bundle(smask)
            thresholds = list(checks[smask, n])
            for order in (thresholds[::-1], thresholds,
                          rng.sample(thresholds, len(thresholds))):
                for t in order:
                    got = is_residual_feasible(v, S, n, t)
                    assert got == checks[smask, n][t], (v, smask, n, t)
                forget(v)
                assert (mms(v, S, n), rmms(v, S, n)) == reports[smask, n]
        # Every call above searched on the one record.
        assert shares._record(v) is rec


def test_mms_witness_after_a_jump(monkeypatch):
    # The probe at t = 1 packs ({e0}, {e1, e2, e3}), worth 3 each, so the
    # scan jumps to t = 4, which fails: MMS = 3 is never probed, and one
    # more pack at 3 gives the witness.
    v, S, n = Additive((3, 1, 1, 1)), full(4), 2
    probes = []
    pack = shares._pack

    def spy(table, sums, t, failed, remaining, parts, *args):
        if (remaining, parts) == (S.mask, n):
            probes.append(t)
        return pack(table, sums, t, failed, remaining, parts, *args)

    fresh_record()
    monkeypatch.setattr(shares, "_pack", spy)
    report = mms(v, S, n)
    assert (report.value, probes) == (3, [1, 4, 3])
    table = shares._record(v).table
    fresh = fresh_pack(table, 3, S.mask, n)
    assert report.witness == shares._canonical(tuple(Bundle(p) for p in fresh))


@pytest.mark.parametrize("v, n", [
    # Every value 0..2^16 - 1 is a subset value, and the first pack at t
    # has a worst part worth t or t + 1: a scan that only jumped would
    # probe about 16,000 times.
    (Additive(tuple(1 << i for i in range(16))), 2),
    (Additive(tuple(1 << i for i in range(16))), 3),
    (generate_instance_valuation(12, "table", 100_000), 3),
    (generate_instance_valuation(12, "additive", 100_000), 4),
])
def test_mms_probes_stay_logarithmic(monkeypatch, v, n):
    # At most 4 * log2(C) jumps, then a bisection, then the witness pack.
    S = full(v.m)
    probes = []
    pack = shares._pack

    def spy(table, sums, t, failed, remaining, parts, *args):
        if (remaining, parts) == (S.mask, n):
            probes.append(t)
        return pack(table, sums, t, failed, remaining, parts, *args)

    fresh_record()
    forget(v)
    candidates = shares._candidate_values(v, S.mask)
    monkeypatch.setattr(shares, "_pack", spy)
    report = mms(v, S, n)
    monkeypatch.undo()
    assert len(probes) <= 5 * len(candidates).bit_length() + 1
    # The value is the greatest candidate at which a fresh search packs,
    # and the witness is that search's first partition.
    table = shares._record(v).table
    lo, hi = 0, len(candidates)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fresh_pack(table, candidates[mid], S.mask, n) is None:
            hi = mid
        else:
            lo = mid
    assert report.value == candidates[lo]
    fresh = fresh_pack(table, report.value, S.mask, n)
    assert report.witness == shares._canonical(tuple(Bundle(p) for p in fresh))


def test_sum_bound_prunes_no_partition():
    # The bound skips only states and parts that hold no partition, so the
    # first partition found, or None, is the one an unbounded search finds.
    pruned = 0
    for v, cases in memo_cases():
        rec = shares._record(v)
        for smask, n in cases:
            candidates = shares._candidate_values(v, smask)
            for t in candidates[1:] + (candidates[-1] + 1,):
                got = shares._pack(rec.table, rec.sums, t, {}, smask, n,
                                   shares._fewest(rec, t))
                assert got == fresh_pack(rec.table, t, smask, n), (v, smask, n, t)
                pruned += (n > 1 and rec.table[smask] >= t
                           and rec.sums[smask] < n * t)
    assert pruned


def plain_scan(fits, mask, q, seen):
    """The first split of mask into q parts P with fits(P), each part
    anchored on the lowest item left and candidate parts taken in ascending
    mask order: no memo, no bound, no jump. It notes in ``seen`` the
    candidates whose block a jumping scan may skip, the later candidates
    that differ only in lower items: ("fits", where) for one that fits but
    leaves a remainder with no split, ("misfit", where) for one that does
    not fit, where "first" is the lowest item alone and "last" a candidate
    with no candidate above its block."""
    if q == 1:
        return [mask] if fits(mask) else None
    if mask == 0:
        return [0] * q if fits(0) else None
    low = mask & -mask
    rest = mask ^ low
    for sub in range(rest + 1):
        if sub & ~rest:
            continue
        part = low | sub
        where = ("first" if sub == 0 else
                 "last" if rest & -(sub & -sub) == sub else "inner")
        if fits(part):
            tail = plain_scan(fits, mask ^ part, q - 1, seen)
            if tail is not None:
                return [part] + tail
            seen.add(("fits", where))
        else:
            seen.add(("misfit", where))
    return None


def random_monotone_table(rng, m):
    """A random monotone table over m items, v(X) = a draw for X plus the
    most v(X - e) over its items e, with many ties."""
    table = [0] * (1 << m)
    for X in range(1, 1 << m):
        table[X] = rng.choice((0, 0, 1, 2, 4)) + max(
            table[X ^ (1 << e)] for e in range(m) if X >> e & 1)
    return Table(tuple(table))


def test_most_is_the_best_bundle_of_each_size():
    # most[s] is the most any s items are worth: the part-size bound needs
    # it no lower, and is tightest at exactly that.
    rng = random.Random(37)
    valuations = [v for v, _ in memo_cases()]
    valuations += [random_monotone_table(rng, m) for m in range(9)]
    for v in valuations:
        rec = shares._build_record(v)
        best = [0] * (v.m + 1)
        for X, value in enumerate(rec.table):
            best[X.bit_count()] = max(best[X.bit_count()], value)
        assert rec.most == best, v


def test_scans_find_the_first_split_of_a_plain_scan():
    # The pack and cover scans skip blocks and states that hold no split,
    # so their first split is the one a plain ascending scan finds, at every
    # threshold, for a fresh memo and for one kept across thresholds. The
    # skipped blocks include a whole scan (the lowest item alone leaves a
    # remainder with no split, or is too heavy) and the last block.
    rng = random.Random(31)
    seen = {"pack": set(), "cover": set()}
    for m in [1, 2, 3, 4, 5, 6, 7, 8] * 4:
        v = random_monotone_table(rng, m)
        everything = (1 << m) - 1
        rec = shares._build_record(v)
        table = rec.table
        for smask, q in itertools.product(
                {everything, everything ^ (1 << rng.randrange(m))},
                (1, 2, 3, 4)):
            kept: dict[int, int] = {}
            for t in rng.sample(range(1, table[-1] + 2), table[-1] + 1):
                first = plain_scan(lambda P: table[P] >= t, smask, q,
                                   seen["pack"])
                fewest = shares._fewest(rec, t)
                for failed in ({}, kept):
                    assert shares._pack(table, rec.sums, t, failed, smask, q,
                                        fewest) == first, (v, smask, q, t)
                first = plain_scan(lambda P: table[P] < t, smask, q,
                                   seen["cover"])
                assert shares._cover(table, t - 1, set(), smask, q) == first, \
                    (v, smask, q, t)
    assert {("fits", "first"), ("fits", "last")} <= seen["pack"]
    assert {("misfit", "first"), ("misfit", "last")} <= seen["cover"]


@pytest.mark.parametrize("kind", ["additive", "capped_additive", "table"])
def test_item_weight_sums_bound_every_partition(kind):
    # best[X] is the largest sum of v(P) over the parts P of a partition of
    # X, by exhaustion over the part that holds X's lowest item.
    for v, m, _ in residual_case_valuations(kind, random.Random(23)):
        rec = shares._record(v)
        best = [0] * (1 << m)
        for X in range(1, 1 << m):
            low = X & -X
            rest = X ^ low
            best[X] = max(rec.table[low | sub] + best[rest ^ sub]
                          for sub in range(rest + 1) if sub & ~rest == 0)
        assert all(bound >= most for bound, most in zip(rec.sums, best)), v
        if kind == "additive":
            assert rec.sums == rec.table


def test_item_weights_are_an_additive_majorant():
    # The bound needs w(P) >= v(P) for every P, with w additive over items;
    # the singletons force w_j >= v({j}).
    from rmms.cli import generate_instance

    rng = random.Random(29)
    for m in range(1, 9):
        valuations = [generate_instance(rng.randrange(10 ** 6), 0, 1, m, kind,
                                        9).valuations[0]
                      for kind in ("additive", "capped_additive", "table")]
        valuations.append(xos_table([[rng.choice((0, 0, 1, 3, 5))
                                      for _ in range(m)] for _ in range(3)]))
        for v in valuations:
            rec = shares._record(v)
            weights = [rec.sums[1 << j] for j in range(m)]
            assert all(w >= rec.table[1 << j] for j, w in enumerate(weights)), v
            for X in range(1 << m):
                assert rec.sums[X] == sum(w for j, w in enumerate(weights)
                                          if X >> j & 1), (v, X)
                assert rec.sums[X] >= rec.table[X], (v, X)


def test_table_item_weights_are_tight():
    # Largest marginals alone gave sums[full] of 523-573 here, against
    # v(full) of 211-244.
    from rmms.cli import generate_instance

    for v in generate_instance(7, 0, 3, 16, "table", 10).valuations:
        assert shares._record(v).sums[-1] <= 300


def plain_residual_scan(rec, smask, n, t):
    """(feasible, k, removed mask) from a scan of every k in [1, n) and
    every removal R in ascending order, each remainder tested by ``_packs``
    on ``rec``."""
    if not shares._packs(rec, smask, n, t):
        return False, 0, 0
    masks = np.arange(rec.values.size)
    low = (rec.values < t) & ((masks | smask) == smask)
    ladder = shares._CoverLadder(low)
    for k in range(1, n):
        for R in np.flatnonzero(ladder.rung(k)).tolist():
            if R and not shares._packs(rec, smask ^ R, n - k, t):
                return False, k, R
    return True, None, None


@pytest.mark.parametrize("cutoff", [shares.MAXIMAL_FIRST_REMOVALS, 0])
def test_residual_check_on_maximal_removals_matches_plain_scan(monkeypatch,
                                                              cutoff):
    # Every threshold up to MMS of generated m = 10-12 valuations. With the
    # measured cutoff, rungs with few removals waiting skip the maximal
    # filter; with 0, every rung with a search runs it.
    from rmms.cli import generate_instance

    monkeypatch.setattr(shares, "MAXIMAL_FIRST_REMOVALS", cutoff)
    failing, walk = shares._failing, shares._residual_failure
    runs, walked = set(), []
    # Searches of the walk, and of the check's loop below the walk's R.
    walking, looped, most_looped = False, 0, 0

    def spy(rec, smask, q, t, waiting, parts):
        nonlocal looped
        R = failing(rec, smask, q, t, waiting, parts)
        if walking:
            runs.add((waiting.size > cutoff, R is not None))
        else:
            looped += 1
        return R

    def walk_spy(*args):
        nonlocal walking, looped
        walking, looped = True, 0
        failure = walk(*args)
        walking = False
        walked.append(None if failure is None else failure[2])
        return failure

    monkeypatch.setattr(shares, "_failing", spy)
    monkeypatch.setattr(shares, "_residual_failure", walk_spy)
    rescanned = False
    for m, kind, n in itertools.product((10, 11, 12), ("additive",
                                        "capped_additive", "table"), (3, 4)):
        v = generate_instance(n, m, n, m, kind, 10).valuations[0]
        S = full(m)
        # A record of its own, whose bound never prunes.
        reference = shares._build_record(v)
        reference = reference._replace(sums=[inf] * len(reference.table))
        ceiling = mms(v, S, n).value
        for t in shares._candidate_values(v, S.mask):
            if t > ceiling:
                break
            check = is_residual_feasible(v, S, n, t)
            removed = None if check.removed is None else check.removed.mask
            assert (check.feasible, check.k, removed) == plain_residual_scan(
                reference, S.mask, n, t), (m, kind, n, t)
            rescanned |= walked[-1] != removed
            most_looped = max(most_looped, looped)
    # The filter ran, found every maximal remainder packing, and found one
    # failing; and some counterexample came from the search below the
    # walk's R, not the walk, and took that search more than once: at least
    # one failing R below the walk's, then None below the first.
    assert {(True, False), (True, True)} <= runs
    assert rescanned
    assert most_looped >= 2
    if cutoff:
        assert (False, False) in runs


def test_maximal_removal_that_fails_once_raises(monkeypatch):
    # A removal whose remainder fails in the walk, then packs in the
    # rescan, is a broken search: an exception, not an assert stripped by
    # -O. Every remainder of these removals is worth >= 1 and packs.
    monkeypatch.setattr(shares, "_residual_failure",
                        lambda *args: (1, np.array([1, 2, 3]), 3))
    with pytest.raises(InvariantError, match="removal 3"):
        is_residual_feasible(Additive((1,) * 4), full(4), 2, 1)


def test_yes_no_residual_walk_matches_the_check():
    # Without the first counterexample, the walk answers the same
    # feasibility at every threshold up to MMS, on rungs both above and
    # below MAXIMAL_FIRST_REMOVALS.
    from rmms.cli import generate_instance

    failing = shares._failing
    runs = set()

    def spy(rec, smask, q, t, waiting, parts):
        R = failing(rec, smask, q, t, waiting, parts)
        runs.add((waiting.size > shares.MAXIMAL_FIRST_REMOVALS,
                  R is not None))
        return R

    for m, kind, n in itertools.product((10, 11, 12), ("additive",
                                        "capped_additive", "table"), (3, 4)):
        v = generate_instance(n + 1, m, n, m, kind, 10).valuations[0]
        S = full(m)
        ceiling = mms(v, S, n).value
        for t in shares._candidate_values(v, S.mask):
            if t > ceiling:
                break
            fresh_record()
            rec = shares._record(v)
            parts = split_masks(rec, S.mask, n, t)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(shares, "_failing", spy)
                walk = shares._residual_failure(rec, S.mask, n, t, parts,
                                                n - 1)
            fresh_record()
            check = is_residual_feasible(v, S, n, t)
            assert (walk is None) == check.feasible, (m, kind, n, t)
    assert {(True, False), (True, True), (False, False), (False, True)} <= runs


def certification_cases():
    """(v, rec, smask, n, t, parts) for every kind, m 1-8 and n 2-5, at
    every candidate t >= 1 at which S, all items, splits into n parts worth
    >= t: parts from ``_partition`` at t (as ``is_residual_feasible`` takes
    them) and from the MMS witness (as RMMS does)."""
    from rmms.cli import generate_instance

    for kind, m in itertools.product(("additive", "capped_additive",
                                      "table"), range(1, 9)):
        v = generate_instance(31, m, 1, m, kind, 10).valuations[0]
        smask = full(m).mask
        for n in range(2, 6):
            witness = [p.mask for p in mms(v, full(m), n).witness]
            rec = shares._record(v)
            for t in shares._candidate_values(v, smask)[1:]:
                parts = split_masks(rec, smask, n, t)
                if parts is None:
                    break
                yield v, rec, smask, n, t, parts
                if min(rec.table[p] for p in witness) >= t:
                    yield v, rec, smask, n, t, witness


def test_certified_remainders_split():
    # Every removal R inside S the certification passes, at every q < n,
    # leaves a remainder that a brute-force search splits into q parts
    # worth >= t.
    from rmms.oracle import _naive_partition_exists

    splits, certified = {}, 0
    for v, rec, smask, n, t, parts in certification_cases():
        removals = np.flatnonzero((np.arange(1 << v.m) | smask) == smask)
        for q in range(1, n):
            passed = shares._certified(rec, smask, q, t, removals, parts)
            for R in removals[passed].tolist():
                key = v, smask ^ R, q, t
                if key not in splits:
                    splits[key] = _naive_partition_exists(rec.table, *key[1:])
                assert splits[key], (v, smask, n, t, parts, q, R)
            certified += int(passed.sum())
    assert certified


@pytest.mark.parametrize("cutoff", [shares.MAXIMAL_FIRST_REMOVALS, 0])
def test_failing_answers_alike_with_and_without_the_partition(monkeypatch,
                                                             cutoff):
    # In every rung of the walk, the search with the partition finds a
    # failing removal exactly when the search with none does, and the one
    # it finds fails. With cutoff 0 the maximal filter runs in every rung.
    from rmms.oracle import _naive_partition_exists

    monkeypatch.setattr(shares, "MAXIMAL_FIRST_REMOVALS", cutoff)
    answers = set()
    for v, rec, smask, n, t, parts in certification_cases():
        ladder = shares._CoverLadder(shares._parts_within(rec, smask, t - 1))
        fewer = np.arange(1 << v.m) == 0
        for k in range(1, n):
            rung = ladder.rung(k)
            waiting = np.flatnonzero(rung & ~fewer)
            fewer = rung
            R = shares._failing(rec, smask, n - k, t, waiting, parts)
            plain = shares._failing(rec, smask, n - k, t, waiting, ())
            assert (R is None) == (plain is None), (v, n, t, parts, k)
            if R is not None:
                assert R in waiting
                assert not _naive_partition_exists(rec.table, smask ^ R,
                                                   n - k, t)
            answers.add(R is None)
    assert answers == {True, False}


def test_counterexamples_above_rmms_do_not_depend_on_the_partition(
        monkeypatch):
    # At the two candidates above RMMS, the first counterexample is the one
    # found when the searches are given no partition to certify against.
    # With item values up to 1,000 RMMS lies below MMS here, so every
    # counterexample is a removal, found past certified ones.
    from rmms.cli import generate_instance

    failing, certify = shares._failing, shares._certified
    certified = 0

    def without_parts(*args):
        return failing(*args[:-1], ())

    def spy(*args):
        nonlocal certified
        passed = certify(*args)
        certified += int(passed.sum())
        return passed

    monkeypatch.setattr(shares, "_certified", spy)
    for m, kind, n in itertools.product((11, 12), ("additive",
                                        "capped_additive", "table"), (3, 4)):
        v = generate_instance(5, m, n, m, kind, 1000).valuations[0]
        S = full(m)
        candidates = shares._candidate_values(v, S.mask)
        above = candidates.index(rmms(v, S, n).value) + 1
        for t in candidates[above:above + 2]:
            check = is_residual_feasible(v, S, n, t)
            fresh_record()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(shares, "_failing", without_parts)
                assert is_residual_feasible(v, S, n, t) == check, (m, kind, n)
            assert not check.feasible and check.k >= 1
    assert certified


def test_packed_keeps_the_worst_part(monkeypatch):
    # A partition found at t packs its state at every t' up to its worst
    # part, without another search.
    from rmms.cli import generate_instance

    calls = []
    pack = shares._pack

    def spy(*args):
        calls.append(args)
        return pack(*args)

    monkeypatch.setattr(shares, "_pack", spy)
    raised = 0
    for kind, n in itertools.product(("additive", "capped_additive", "table"),
                                     (2, 3)):
        v = generate_instance(3, n, 1, 8, kind, 10).valuations[0]
        S = full(8)
        for t in shares._candidate_values(v, S.mask)[1:]:
            fresh_record()
            rec = shares._record(v)
            if not shares._packs(rec, S.mask, n, t):
                break
            worst = rec.packed[S.mask, n]
            parts = fresh_pack(rec.table, t, S.mask, n)
            assert worst == min(rec.table[p] for p in parts) >= t
            raised += worst > t
            calls.clear()
            for lower in range(1, worst + 1):
                assert shares._packs(rec, S.mask, n, lower)
            assert not calls, (kind, n, t)
    assert raised


def test_rmms_reuses_the_mms_packs(monkeypatch):
    # MMS leaves its packs in the record, so RMMS never searches (S, n) at
    # t = MMS, and where RMMS = MMS it takes the MMS witness, the canonical
    # partition at that value.
    from rmms.cli import generate_instance

    top = []
    pack = shares._pack

    def spy(table, sums, t, failed, remaining, parts, *args):
        if remaining == S.mask and parts == n:
            top.append(t)
        return pack(table, sums, t, failed, remaining, parts, *args)

    monkeypatch.setattr(shares, "_pack", spy)
    S = full(10)
    at_mms = 0
    for index, kind, n in itertools.product(
            range(3), ("additive", "capped_additive", "table"), (3, 4)):
        inst = generate_instance(1, index, n, 10, kind, 10)
        for v in inst.valuations:
            fresh_record()
            ceiling = mms(v, S, n).value
            top.clear()
            report = rmms(v, S, n)
            assert ceiling not in top, (index, kind, n)
            at_mms += report.value == ceiling
            parts = shares.acceptable_partition(v, S, n, report.value)
            assert report.witness == tuple(sorted(parts))
    assert at_mms


def test_rmms_checks_stay_logarithmic(monkeypatch):
    # With item values up to 100,000, RMMS is often many candidates below
    # MMS; the scan gallops down and bisects, O(log C) checks for C
    # candidates up to MMS.
    from rmms.cli import generate_instance

    calls = []
    check = shares._residual_failure

    def spy(rec, smask, n, t, *args):
        calls.append(t)
        return check(rec, smask, n, t, *args)

    beaten = 0
    for m, kind, n in itertools.product((8, 9, 10), ("additive",
                                        "capped_additive", "table"), (3, 4)):
        v = generate_instance(7, m, n, m, kind, 100_000).valuations[0]
        S = full(m)
        ceiling = mms(v, S, n).value
        candidates = [c for c in shares._candidate_values(v, S.mask)
                      if c <= ceiling]
        calls.clear()
        monkeypatch.setattr(shares, "_residual_failure", spy)
        value = rmms(v, S, n).value
        monkeypatch.undo()
        bound = 2 * len(candidates).bit_length() + 1
        assert len(calls) <= bound, (m, kind, n)
        # The value is the last feasible candidate.
        index = candidates.index(value)
        assert is_residual_feasible(v, S, n, value).feasible
        if index + 1 < len(candidates):
            assert not is_residual_feasible(v, S, n,
                                            candidates[index + 1]).feasible
        # A descending scan would take len(candidates) - index checks.
        beaten += len(candidates) - index > bound
    assert beaten


def min_max_split(table, smask, n):
    """The least c such that smask splits into at most n parts worth <= c:
    the most valuable part of each split, minimised over every split."""
    subsets = [X for X in range(len(table)) if X | smask == smask]
    best = {X: table[X] for X in subsets}  # at most one part
    for _ in range(n - 1):
        fewer, best = best, {}
        for X in subsets:
            best[X], P = fewer[X], X
            while P:
                best[X] = min(best[X], max(table[P], fewer[X ^ P]))
                P = (P - 1) & X
    return best[smask]


def test_split_probe_matches_a_brute_force_min_max_split():
    # At every candidate c the probe splits S iff mFS <= c. A probe that
    # does not split returns its ladder, with zeta(F) of the parts worth
    # <= c, and the residual check at the next candidate t, handed a copy,
    # walks as one that makes its own ladder, whether it reads rung n - 1
    # or stops at rung n - 2, as mFS >= t. RMMS never exceeds mFS. At m = 8
    # a product of more than 7 zeta factors is not exact, so at n = 9 the
    # probe's ladder climbs to a lower rung first and reads rung 9 from
    # there.
    from rmms.cli import generate_instance

    rng = random.Random(23)
    valuations = [generate_instance(23, m, 1, m, kind, 6).valuations[0]
                  for m, kind in itertools.product(
                      range(1, 9), ("additive", "capped_additive", "table"))]
    valuations += [xos_table([[rng.choice((0, 0, 1, 3, 5)) for _ in range(m)]
                              for _ in range(3)]) for m in range(2, 9)]
    assert shares._exact_factors(8) < 9
    cases = list(itertools.product(valuations, (2, 3, 4)))
    cases += [(v, 9) for v in valuations if v.m == 8]
    below = handed = 0
    for v, n in cases:
        everything = (1 << v.m) - 1
        for smask in {everything, everything ^ (1 << (v.m // 2))}:
            fresh_record()
            rec = shares._record(v)
            split = min_max_split(rec.table, smask, n)
            candidates = shares._candidate_values(v, smask)
            signs = shares._moebius_signs(smask, v.m)
            for i, c in enumerate(candidates):
                ladder = shares._split_probe(rec, smask, n, c, signs)
                assert (ladder is None) == (split <= c), (v, smask, n, c)
                if ladder is None:
                    continue
                zeta = ladder.zeta().copy()
                family = shares._parts_within(rec, smask, c).astype(np.int64)
                assert np.array_equal(zeta, plain_transform(family, 1))
                handed += 1
                if i + 1 < len(candidates):
                    t = candidates[i + 1]
                    parts = split_masks(rec, smask, n, t)
                    fresh = shares._residual_failure(rec, smask, n, t, parts,
                                                     n - 1)
                    for last in (n - 1, n - 2):
                        assert_same_failure(shares._residual_failure(
                            rec, smask, n, t, parts, last, zeta), fresh)
            forget(v)
            value = rmms(v, Bundle(smask), n).value
            assert value <= split, (v, smask, n)
            below += split < mms(v, Bundle(smask), n).value
    assert below and handed


def test_table_rmms_at_the_min_max_split_takes_one_check(monkeypatch):
    # On these tables mFS lies below MMS and RMMS equals mFS, so the first
    # check, at the bound, is feasible and ends the search. A gallop down
    # from MMS made 6 to 8 checks per agent here.
    from rmms.cli import generate_instance

    calls = []
    check = shares._residual_failure

    def spy(rec, smask, n, t, *args):
        calls.append(t)
        return check(rec, smask, n, t, *args)

    monkeypatch.setattr(shares, "_residual_failure", spy)
    for n in (3, 4):
        inst = generate_instance(1, 2, n, 10, "table", 10)
        for v in inst.valuations:
            ceiling = mms(v, inst.all_items, n).value
            split = min_max_split(shares._record(v).table,
                                  inst.all_items.mask, n)
            calls.clear()
            value = rmms(v, inst.all_items, n).value
            assert split < ceiling and value == split
            assert calls == [split], n


def assert_same_failure(got, want):
    """Two ``_residual_failure`` results agree: both None, or the same k,
    removals and R."""
    assert (got is None) == (want is None)
    if want is not None:
        assert got[::2] == want[::2]
        assert np.array_equal(got[1], want[1])


# The walk itself, for spies that stand in for it.
WALK = shares._residual_failure


def full_walk(rec, smask, n, t, parts, last, zeta=None):
    """``_residual_failure`` reading every rung up to n - 1, whatever
    ``last`` it is given."""
    return WALK(rec, smask, n, t, parts, n - 1, zeta)


def assert_last_rung_never_fails(monkeypatch, v, S, n, floor):
    """floor <= mFS, as S has no split into n parts worth < floor. At
    every candidate t in (0, floor] the walk that reads rung n - 1 fails,
    if at all, below it, and the walk that stops at rung n - 2 answers
    alike; RMMS is the same with and without the stop. Returns the
    thresholds checked."""
    rec = shares._record(v)
    if floor > 0:
        signs = shares._moebius_signs(S.mask, v.m)
        assert shares._split_probe(rec, S.mask, n, floor - 1,
                                   signs) is not None, (v, n)
    checked = [t for t in shares._candidate_values(v, S.mask)[1:]
               if t <= floor]
    for t in checked:
        parts = split_masks(rec, S.mask, n, t)
        whole = WALK(rec, S.mask, n, t, parts, n - 1)
        assert whole is None or whole[0] < n - 1, (v, n, t)
        assert_same_failure(WALK(rec, S.mask, n, t, parts, n - 2), whole)
    report = rmms(v, S, n)
    forget(v)
    with monkeypatch.context() as patch:
        patch.setattr(shares, "_residual_failure", full_walk)
        assert rmms(v, S, n) == report, (v, n)
    return checked


@pytest.mark.parametrize("kind", ["additive", "capped_additive"])
def test_additive_checks_up_to_mms_never_fail_at_the_last_rung(monkeypatch,
                                                               kind):
    # Additive and capped valuations have mFS >= MMS, so at every t <= MMS
    # S has no split into n parts worth < t, and no removal fails at
    # k = n - 1: RMMS stops its walks at rung n - 2.
    from rmms.cli import generate_instance

    checked = 0
    for m, index in itertools.product(range(1, 9), range(2)):
        v = generate_instance(29, index, 1, m, kind, 10).valuations[0]
        for n in range(2, 6):
            ceiling = mms(v, full(m), n).value
            checked += len(assert_last_rung_never_fails(monkeypatch, v,
                                                        full(m), n, ceiling))
    assert checked


@pytest.mark.parametrize("n", [3, 4])
def test_table_checks_up_to_the_probed_bound_never_fail_at_the_last_rung(
        monkeypatch, n):
    # At every m the probe proves mFS >= candidates[top], the bound RMMS
    # starts from and its first check, so every check, at or below it,
    # stops its walk at rung n - 2.
    from rmms.cli import generate_instance

    checked = []

    def spy(rec, smask, n, t, parts, last, zeta):
        assert last == n - 2
        checked.append(t)
        return WALK(rec, smask, n, t, parts, last, zeta)

    for m, index in itertools.product(range(6, 13), range(2)):
        inst = generate_instance(3, index, n, m, "table", 10)
        S = inst.all_items
        for v in inst.valuations:
            mms(v, S, n)
            checked.clear()
            with monkeypatch.context() as patch:
                patch.setattr(shares, "_residual_failure", spy)
                rmms(v, S, n)
            floor = checked[0]
            assert max(checked) == floor
            forget(v)
            assert assert_last_rung_never_fails(monkeypatch, v, S, n, floor)


def test_a_check_above_mfs_fails_at_the_last_rung_alone(monkeypatch):
    # Above mFS the last rung can fail at a threshold up to MMS: this
    # agent's S splits into three parts worth < 27 <= MMS = 28, so t = 27
    # fails at k = 2 alone, and a walk stopped at rung 1 would pass it.
    # RMMS's probe keeps its stopped walks at or below mFS, never at 27;
    # ``is_residual_feasible`` answers for any t, so it reads rung n - 1.
    from rmms.cli import generate_instance

    v = generate_instance(0, 0, 3, 7, "table", 10).valuations[1]
    S = full(7)
    assert mms(v, S, 3).value == 28 and rmms(v, S, 3).value == 26
    rec = shares._record(v)
    assert min_max_split(rec.table, S.mask, 3) < 27
    parts = split_masks(rec, S.mask, 3, 27)
    assert shares._residual_failure(rec, S.mask, 3, 27, parts, 2)[0] == 2
    assert shares._residual_failure(rec, S.mask, 3, 27, parts, 1) is None
    assert is_residual_feasible(v, S, 3, 27) == (False, 2, Bundle(62))
    checked = []

    def spy(rec, smask, n, t, *args):
        checked.append(t)
        return WALK(rec, smask, n, t, *args)

    forget(v)
    with monkeypatch.context() as patch:
        patch.setattr(shares, "_residual_failure", spy)
        assert rmms(v, S, 3).value == 26
    assert checked and max(checked) <= 26


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bound_probes_stay_logarithmic(monkeypatch, n):
    # One probe just below MMS, then a bisection below it: at most
    # bit_length(C) + 1 ladders for C candidates up to MMS.
    from rmms.cli import generate_instance

    probes = []
    probe = shares._split_probe

    def spy(rec, smask, n, c, *args):
        probes.append(c)
        return probe(rec, smask, n, c, *args)

    for index in range(3):
        inst = generate_instance(7, index, n, 10, "table", 100_000)
        for v in inst.valuations:
            S = inst.all_items
            ceiling = mms(v, S, n).value
            candidates = [c for c in shares._candidate_values(v, S.mask)
                          if c <= ceiling]
            probes.clear()
            monkeypatch.setattr(shares, "_split_probe", spy)
            rmms(v, S, n)
            monkeypatch.undo()
            assert 2 <= len(probes) <= len(candidates).bit_length() + 1


# _pack calls, recursive ones included, for MMS + RMMS of every agent of
# generate_instance(1, index, n, 10, kind, 10) for every kind and n 3-4,
# each agent on a fresh record: 2,266 as measured with the residual check
# searching every uncertified removal in remainder-value order, against
# 2,311 sorting only more than 16 of them and 2,317 never sorting. With the
# cutoff of 16: 2,311 certifying removals against the MMS witness after
# the maximal filter, against 2,479 certifying them before it and 6,638
# with no certification.
# Without certification: 6,638 with the scans' jumps and the part-size
# bound, against 7,072 without them (6,953 without the pack jump alone,
# 6,737 without the size bound alone), and 16,499 with largest-marginal
# table weights, the first counterexample sought in every RMMS check and
# packs remembered at the t searched.
PACK_CALLS_AT_M_10 = 2_266
# _pack calls for MMS of every agent of generate_instance(2, index, n, 12,
# "table", 10), n 3-4, index < 3, each agent on a fresh record: 10,612 as
# measured, against 18,414 without the jumps and the size bound, 14,822
# without the pack jump alone and 13,861 without the size bound alone.
TABLE_MMS_PACK_CALLS_AT_M_12 = 10_612


def count_pack_calls(monkeypatch, share, cases):
    """_pack calls, recursive ones included, of share(v, all items, n) for
    every agent of each (instance, n) of cases, each on a fresh record."""
    calls = 0
    pack = shares._pack

    def spy(*args):
        nonlocal calls
        calls += 1
        return pack(*args)

    monkeypatch.setattr(shares, "_pack", spy)
    for inst, n in cases:
        for v in inst.valuations:
            fresh_record()
            share(v, inst.all_items, n)
    monkeypatch.undo()
    return calls


def test_pack_calls_stay_within_measured_work(monkeypatch):
    # Timings on a noisy host can hide a lost pruning; the work cannot.
    from rmms.cli import generate_instance

    def both(v, S, n):
        mms(v, S, n)
        rmms(v, S, n)

    cases = [(generate_instance(1, n, n, 10, kind, 10), n)
             for kind, n in itertools.product(
                 ("additive", "capped_additive", "table"), (3, 4))]
    assert count_pack_calls(monkeypatch, both, cases) <= PACK_CALLS_AT_M_10


def test_table_mms_pack_calls_stay_within_measured_work(monkeypatch):
    # Table MMS is where the scans' jumps and the part-size bound save the
    # most: losing either adds a third or more to these calls.
    from rmms.cli import generate_instance

    cases = [(generate_instance(2, index, n, 12, "table", 10), n)
             for n, index in itertools.product((3, 4), range(3))]
    assert (count_pack_calls(monkeypatch, mms, cases)
            <= TABLE_MMS_PACK_CALLS_AT_M_12)


# _cover calls, recursive ones included, for MXS of every agent of
# generate_instance(1, index, n, 8, kind, 10) for every kind, n 3-4 and
# index < 3, all on the cover path: 8,684 as measured, against 16,128 with
# parts not anchored on the lowest item, and 8,228 when a state also failed
# after the state with one item fewer, and own bundles of one value shared
# a memo. A too-heavy part never recurses, so the calls cannot see the
# scan's jump; the weights it reads can: 28,016 as measured, against
# 85,137 without the jump.
COVER_CALLS_AT_M_8 = 8_684
COVER_READS_AT_M_8 = 28_016


def test_cover_work_stays_within_measured_work(monkeypatch):
    from rmms.cli import generate_instance

    calls = reads = 0
    cover = shares._cover

    class CountedWeights:
        def __init__(self, weights):
            self.weights = weights

        def __len__(self):
            return len(self.weights)

        def __getitem__(self, mask):
            nonlocal reads
            reads += 1
            return self.weights[mask]

    def spy(weights, *args):
        nonlocal calls
        calls += 1
        if not isinstance(weights, CountedWeights):
            weights = CountedWeights(weights)
        return cover(weights, *args)

    monkeypatch.setattr(shares, "_cover", spy)
    for kind, n, index in itertools.product(
            ("additive", "capped_additive", "table"), (3, 4), range(3)):
        inst = generate_instance(1, index, n, 8, kind, 10)
        for agent in range(n):
            mxs(inst, agent)
    assert 0 < calls <= COVER_CALLS_AT_M_8
    assert 0 < reads <= COVER_READS_AT_M_8


# _cover calls, recursive ones included, for MXS of every agent of
# generate_instance(3, 0, 6, 12, "additive", 1): the ladder's witness
# searches into n - 1 = 5 parts. 3,519 as measured, against 7,827 without
# the per-search memo of failed states. At n 3-4 the memo never hits, so
# only an instance with more agents shows what it saves.
COVER_CALLS_AT_N_6 = 3_519


def test_cover_memo_pays_with_more_agents(monkeypatch):
    from rmms.cli import generate_instance

    calls = 0
    cover = shares._cover

    def spy(*args):
        nonlocal calls
        calls += 1
        return cover(*args)

    monkeypatch.setattr(shares, "_cover", spy)
    inst = generate_instance(3, 0, 6, 12, "additive", 1)
    for agent in range(inst.n):
        mxs(inst, agent)
    assert 0 < calls <= COVER_CALLS_AT_N_6


def test_share_results_go_with_the_valuation():
    # Share results live on the valuation and the record keeps one entry,
    # so once an instance is dropped and the record has moved on, nothing
    # keeps its valuations, and their 2^m tables, alive.
    from rmms.cli import generate_instance

    inst = generate_instance(3, 0, 3, 10, "table", 10)
    for i, v in enumerate(inst.valuations):
        mms(v, inst.all_items, inst.n)
        rmms(v, inst.all_items, inst.n)
        mxs(inst, i)
    refs = [weakref.ref(v) for v in inst.valuations]
    # The ladders' buffers are the record's, and go with it when the slot
    # moves on, without waiting for the cycle collector.
    zeta = weakref.ref(shares._record(v).workspace["zeta"][0])
    gc.disable()
    try:
        mms(Additive((1, 2, 3)), full(3), 2)
        assert zeta() is None
    finally:
        gc.enable()
    del inst, v
    gc.collect()
    assert [ref() for ref in refs] == [None] * 3


def test_residual_check_fetches_the_record_once(monkeypatch):
    # The walk and its searches take the record as an argument: it is
    # fetched once per check, not per removal. At t = 2 every set of at most
    # 3 of the 8 unit items is a removal, 92 in all, and each remainder
    # packs.
    v, S, n = Additive((1,) * 8), full(8), 4
    fetches = []
    record = shares._record

    def spy(v):
        fetches.append(v)
        return record(v)

    monkeypatch.setattr(shares, "_record", spy)
    assert is_residual_feasible(v, S, n, 2).feasible
    assert len(fetches) <= 2


def test_record_is_built_with_the_slot_empty(monkeypatch):
    # The old record goes before the next one is built, so at large m the
    # peak holds one record, not two. The slot is keyed by identity: an
    # equal valuation gets a record of its own.
    build = shares._build_record
    slots = []

    def spy(v):
        slots.append(list(shares._slot))
        return build(v)

    monkeypatch.setattr(shares, "_build_record", spy)
    a, b = Additive((1, 2, 3)), Additive((1, 2, 3))
    rec = shares._record(a)
    assert shares._record(a) is rec and shares._record(b) is not rec
    assert slots == [[None, None]] * 2


def cover_ladder_families(rng):
    """(table, bound, top) triples: generated additive, capped and table
    valuations and XOS tables with m <= 8, each at its least, largest and
    two middle distinct values as bounds, to be read up to rung 4; and
    generated valuations with m = 10 at their two least positive distinct
    values, and ten items worth 1 at bounds 1 and 2, whose rungs grow up to
    rung 10, to be read up to rung 8."""
    from rmms.cli import generate_instance

    kinds = ("additive", "capped_additive", "table")
    for m in range(1, 9):
        tables = [shares._record(generate_instance(
            rng.randrange(10 ** 6), 0, 1, m, kind, 6).valuations[0]).table
            for kind in kinds]
        tables.append(xos_table([[rng.choice((0, 0, 1, 3, 5))
                                  for _ in range(m)] for _ in range(3)]).values)
        for table in tables:
            values = sorted(set(table))
            for i in (0, len(values) // 3, 2 * len(values) // 3, -1):
                yield table, values[i], 4
    for kind in kinds:
        table = shares._record(generate_instance(
            rng.randrange(10 ** 6), 0, 1, 10, kind, 6).valuations[0]).table
        values = sorted(set(table))
        for i in (1, 2):
            yield table, values[i], 8
    for bound in (1, 2):
        yield shares._record(Additive((1,) * 10)).table, bound, 8


def test_cover_ladder_matches_cover():
    # Rung k holds X iff the cover search splits X into at most k parts,
    # whether the rungs are read upward or downward, and ``holds`` reads
    # the same rung at one mask. At m = 10 a product of more than 6 zeta
    # factors is not exact (127^10 > 2^63), so rungs 7 and 8 are read from
    # a lower rung.
    assert shares._exact_factors(10) == 6
    grows = {4: False, 8: False}
    for table, bound, top in cover_ladder_families(random.Random(13)):
        family = np.array(table) <= bound
        ladder = shares._CoverLadder(family)
        rungs = [None] + [ladder.rung(k) for k in range(1, top + 1)]
        failed = set()
        for k in range(1, top + 1):
            expected = [shares._cover(table, bound, failed, X, k) is not None
                        for X in range(len(table))]
            assert rungs[k].tolist() == expected, (table, bound, k)
        downward = shares._CoverLadder(family)
        m = len(table).bit_length() - 1
        for k in reversed(range(1, top + 1)):
            assert np.array_equal(downward.rung(k), rungs[k]), (table, k)
            for X in {len(table) - 1, len(table) // 2}:
                signs = shares._moebius_signs(X, m)
                assert downward.holds(k, signs) == rungs[k][X], (table, k, X)
        grows[top] |= not np.array_equal(rungs[top], rungs[top - 1])
    assert all(grows.values())


def test_cover_ladder_counts_fit_int64():
    # The ladder reads a product of j zeta factors exactly while its counts,
    # at most (2^j - 1)^m, stay below 2^63; _exact_factors is the largest
    # such j, so one more factor would not fit.
    for m in range(1, MAX_EXACT_ITEMS + 1):
        j = shares._exact_factors(m)
        assert (2 ** j - 1) ** m < 2 ** 63 <= (2 ** (j + 1) - 1) ** m, m
    assert shares._exact_factors(MAX_EXACT_ITEMS) == 3
    assert shares._exact_factors(12) == 5


def plain_transform(a, sign):
    """Zeta (sign 1) or Moebius (sign -1) as plain pair-view passes, item by
    item: the reference for the strided views of the kernel."""
    a = a.copy()
    for i in range(a.size.bit_length() - 1):
        pairs = a.reshape(-1, 2, 1 << i)
        pairs[:, 1] += sign * pairs[:, 0]
    return a


def test_transforms_match_plain_passes():
    rng = np.random.default_rng(5)
    for m in range(15):
        a = rng.integers(-2 ** 40, 2 ** 40, 1 << m, dtype=np.int64)
        work = a.copy()
        views = shares._bit_views(work)
        shares._zeta(views)
        assert np.array_equal(work, plain_transform(a, 1)), m
        shares._moebius(views)
        assert np.array_equal(work, a), m
        shares._moebius(views)
        assert np.array_equal(work, plain_transform(a, -1)), m


def test_ladders_sharing_a_workspace_yield_their_own_rungs(monkeypatch):
    # An agent's ladders share the workspace of its record, one at a time.
    # Interleaved, a ladder finds another's zeta(F) and base there and makes
    # its own again, so each yields its own rungs, and one set of buffers is
    # built: zeta(F) and the product, and the base at m = 10, where rungs 7
    # and 8 are read from a lower rung (6 exact factors).
    from rmms.cli import generate_instance

    builds = 0
    bit_views = shares._bit_views

    def spy(a):
        nonlocal builds
        builds += 1
        return bit_views(a)

    cases = [(generate_instance(4, 0, 1, 8, "table", 10).valuations[0],
              (16, 17), 5, 2), (Additive((1,) * 10), (1, 2), 8, 3)]
    for v, bounds, top, buffers in cases:
        fresh_record()
        rec = shares._record(v)
        families = [np.array(rec.table) <= bound for bound in bounds]
        expected = [[shares._CoverLadder(f).rung(k)
                     for k in range(1, top + 1)] for f in families]
        # The first ladder still grows at the top, and they differ at every
        # rung.
        assert not np.array_equal(expected[0][-2], expected[0][-1])
        assert not any(map(np.array_equal, *expected))

        builds = 0
        monkeypatch.setattr(shares, "_bit_views", spy)
        # The second ladder runs between the first's last two rungs, and at
        # m = 10 both rebase before the first reads its top rung.
        first = shares._CoverLadder(families[0], rec.workspace)
        got = [[first.rung(k) for k in range(1, top)]]
        second = shares._CoverLadder(families[1], rec.workspace)
        got.append([second.rung(k) for k in range(1, top + 1)])
        got[0].append(first.rung(top))
        # A ladder started after them reads the same buffers.
        third = shares._CoverLadder(families[0], rec.workspace)
        got.append([third.rung(k) for k in range(1, top + 1)])
        monkeypatch.undo()
        for rungs, want in zip(got, expected + expected[:1]):
            assert [r.tolist() for r in rungs] == [w.tolist() for w in want]
        assert builds == buffers, (v, top)


def test_mxs_bracket_keeps_value_and_witness(monkeypatch):
    # MXS with the agent's MMS kept on the valuation, without it, and with a
    # bracket below the true MXS gives the same value and witness.
    from rmms.cli import generate_instance

    below = 0
    for kind, n, m in itertools.product(
            ("additive", "capped_additive", "table"), (2, 3, 4), (10, 11, 12)):
        inst = generate_instance(23, m, n, m, kind, 10)
        everything = inst.all_items.mask
        for agent, v in enumerate(inst.valuations):
            plain = mxs(inst, agent)
            assert shares._mms.kept(v, everything, n) is None
            ceiling = mms(v, inst.all_items, n).value
            assert plain.value <= ceiling
            assert mxs(inst, agent) == plain, (kind, n, m, agent)
            candidates = shares._candidate_values(v, everything)
            low = candidates[max(candidates.index(plain.value) - 1, 0)]
            below += low < plain.value
            with monkeypatch.context() as patch:
                patch.setattr(shares._mms, "kept", lambda *args: shares.ShareReport(
                    "MMS", low, None, None, n))
                assert mxs(inst, agent) == plain, (kind, n, m, agent)
    assert below


# Ladder rungs past the first that MXS builds for every agent of
# generate_instance(1, n, n, 12, kind, 10) for every kind and n 3-4, MMS
# computed first, as the CLI does: 150 when this gate was set, against 204
# when the bisection ran over every subset value up to v(all items). Since
# MXS reads rung n - 1 without building the rungs below it, 96.
LADDER_RUNGS_AT_M_12 = 150


def test_mxs_ladder_rungs_stay_within_measured_work(monkeypatch):
    from rmms.cli import generate_instance

    rungs = 0
    rung = shares._CoverLadder.rung

    def spy(ladder, k):
        nonlocal rungs
        rungs += k > 1
        return rung(ladder, k)

    for kind, n in itertools.product(("additive", "capped_additive", "table"),
                                     (3, 4)):
        inst = generate_instance(1, n, n, 12, kind, 10)
        for agent, v in enumerate(inst.valuations):
            mms(v, inst.all_items, n)
            with monkeypatch.context() as patch:
                patch.setattr(shares._CoverLadder, "rung", spy)
                mxs(inst, agent)
    assert 0 < rungs <= LADDER_RUNGS_AT_M_12


# Zeta and Moebius transforms for MMS, RMMS and MXS of every agent of the
# instances above: 260 with RMMS's checks stopping at rung n - 2 where
# mFS >= t is proven, against 287 reading rung n - 1 in every check, and
# 488 when each rung past the second took a zeta and a Moebius transform,
# the split probes built rung n - 1 and MXS built every rung up to n - 1.
TRANSFORMS_AT_M_12 = 260
# ``_bit_views`` builds for the same: 42, two buffers per agent, since the
# buffers live in the search record, against 98 when each RMMS and each MXS
# built its own.
BIT_VIEWS_AT_M_12 = 42


def count_calls(monkeypatch, *names):
    """From here on, count the calls of each named ``shares`` function."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        fn = getattr(shares, name)

        def spy(*args):
            calls[name] += 1
            return fn(*args)
        return spy

    for name in names:
        monkeypatch.setattr(shares, name, counted(name))
    return calls


def test_ladder_transforms_stay_within_measured_work(monkeypatch):
    from rmms.cli import generate_instance

    calls = count_calls(monkeypatch, "_zeta", "_moebius", "_bit_views")
    for kind, n in itertools.product(("additive", "capped_additive", "table"),
                                     (3, 4)):
        inst = generate_instance(1, n, n, 12, kind, 10)
        for agent, v in enumerate(inst.valuations):
            mms(v, inst.all_items, n)
            rmms(v, inst.all_items, n)
            mxs(inst, agent)
    assert 0 < calls["_zeta"] + calls["_moebius"] <= TRANSFORMS_AT_M_12
    assert 0 < calls["_bit_views"] <= BIT_VIEWS_AT_M_12


# Residual checks, and zeta and Moebius transforms, for MMS then RMMS of
# every agent of generate_instance(1, index, n, m, "table", 10), index < 3,
# n 3-4 and m 6-8, the table sizes of perfbench's pipeline_small: 115 checks
# and 209 transforms (166 zeta, 43 Moebius) with every table's min-max split
# probed, so that every check stops at rung n - 2, against 171 checks and
# 229 transforms (93 zeta, 136 Moebius) when tables below 10 items had no
# probe and their checks read rung n - 1.
SMALL_TABLE_CHECKS = 115
SMALL_TABLE_TRANSFORMS = 209


def test_small_table_checks_stay_within_measured_work(monkeypatch):
    from rmms.cli import generate_instance

    calls = count_calls(monkeypatch, "_zeta", "_moebius", "_residual_failure")
    for m, n, index in itertools.product((6, 7, 8), (3, 4), range(3)):
        inst = generate_instance(1, index, n, m, "table", 10)
        for v in inst.valuations:
            mms(v, inst.all_items, n)
            rmms(v, inst.all_items, n)
    assert 0 < calls["_residual_failure"] <= SMALL_TABLE_CHECKS
    assert 0 < calls["_zeta"] + calls["_moebius"] <= SMALL_TABLE_TRANSFORMS


def naive_mxs(inst, agent):
    """(value, witness masks) of MXS from an unmemoized scan: own bundles in
    (value, mask) order, and for each the first split of the complement, in
    ascending anchored order, into n - 1 parts the agent does not EFX-envy."""
    v = inst.valuations[agent]
    m, n = inst.m, inst.n
    vals = [v.value_of(mask) for mask in range(1 << m)]
    everything = (1 << m) - 1

    def split(mask, q, own_value):
        # At most q non-empty parts, empty parts padding the rest.
        if mask == 0:
            return [0] * q
        if q == 0:
            return None
        low = mask & -mask
        for part in range(low, mask + 1):
            if part & ~mask or not part & low:
                continue
            not_envied = all(
                vals[part ^ (1 << e)] <= own_value
                for e in range(m) if part >> e & 1
            )
            if not_envied:
                tail = split(mask ^ part, q - 1, own_value)
                if tail is not None:
                    return [part] + tail
        return None

    for own in sorted(range(1 << m), key=lambda s: (vals[s], s)):
        others = split(everything ^ own, n - 1, vals[own])
        if others is not None:
            return vals[own], others[:agent] + [own] + others[agent:]


# Values of MXS_LADDER_ITEMS that send every m down one MXS path.
MXS_PATHS = {"cover": MAX_EXACT_ITEMS + 1, "ladder": 0}


def test_mxs_matches_naive_cover(monkeypatch):
    from rmms.cli import generate_instance

    for ladder_items in MXS_PATHS.values():
        monkeypatch.setattr(shares, "MXS_LADDER_ITEMS", ladder_items)
        rng = random.Random(12)
        most_parts = 0
        for kind in ("additive", "capped_additive", "table"):
            for n in (2, 3, 4):
                for m in range(1, 8):
                    for _ in range(2):
                        inst = generate_instance(rng.randrange(10 ** 6), 0, n,
                                                 m, kind, 6)
                        for agent in range(n):
                            report = mxs(inst, agent)
                            got = (report.value,
                                   [b.mask for b in report.witness])
                            value, witness = naive_mxs(inst, agent)
                            assert got == (value, witness), (inst, agent)
                            others = witness[:agent] + witness[agent + 1:]
                            most_parts = max(most_parts,
                                             sum(1 for b in others if b))
        # Some witness splits the complement into two or more non-empty parts.
        assert most_parts >= 2


def test_mxs_ladder_matches_naive_cover_at_large_n(monkeypatch):
    # Rung n - 1 needs more zeta factors than are exact at m = 8 and 9 (7)
    # for n = 9, and at m = 10 (6) for n 8-9, so the ladder reads it from
    # a lower rung there.
    from rmms.cli import generate_instance

    monkeypatch.setattr(shares, "MXS_LADDER_ITEMS", MXS_PATHS["ladder"])
    rebased = 0
    for m, n in itertools.product((8, 9, 10), (7, 8, 9)):
        rebased += n - 1 > shares._exact_factors(m)
        for kind in ("additive", "capped_additive", "table"):
            inst = generate_instance(5, m, n, m, kind, 10)
            for agent in range(n):
                report = mxs(inst, agent)
                got = report.value, [b.mask for b in report.witness]
                assert got == naive_mxs(inst, agent), (m, n, kind, agent)
    assert rebased == 4


def test_mxs_paths_agree_at_m_10_and_11(monkeypatch):
    # Sizes from the switch up, where naive_mxs is too slow, and one past
    # the item cap MXS once had.
    from rmms.cli import generate_instance

    for m, n in ((10, 4), (11, 3), (17, 2)):
        for kind in ("additive", "capped_additive", "table"):
            inst = generate_instance(31, m, n, m, kind, 10)
            results = []
            for ladder_items in MXS_PATHS.values():
                monkeypatch.setattr(shares, "MXS_LADDER_ITEMS", ladder_items)
                results.append([mxs(inst, agent) for agent in range(n)])
            assert results[0] == results[1], (m, kind)


def test_mxs_ladder_scans_up_from_its_lower_bound(monkeypatch):
    # The least t at which some own bundle worth <= t leaves a coverable
    # complement is 12 here, but no own bundle worth exactly 12 does: MXS is
    # the next value, 14.
    from rmms.cli import generate_instance

    monkeypatch.setattr(shares, "MXS_LADDER_ITEMS", MXS_PATHS["ladder"])
    inst = generate_instance(0, 0, 2, 4, "table", 10)
    vals = inst.valuations[0].values
    weights = [max([vals[P ^ (1 << e)] for e in range(4) if P >> e & 1],
                   default=0) for P in range(16)]
    bound = min(t for t in vals if any(
        shares._cover(weights, t, set(), 15 ^ own, 1) is not None
        for own in range(16) if vals[own] <= t))
    assert (bound, mxs(inst, 0).value) == (12, 14)


class TestRmms:
    def test_single_agent(self):
        v = Additive((2, 5))
        assert rmms(v, full(2), 1).value == 7

    def test_six_ones(self):
        assert rmms(Additive((1,) * 6), full(6), 3).value == 2

    def test_big_item(self):
        assert rmms(Additive((3, 1, 1, 1)), full(4), 2).value == 3

    def test_le_mms_random(self):
        rng = random.Random(3)
        for _ in range(100):
            m = rng.randint(1, 6)
            n = rng.randint(1, 3)
            v = Additive(tuple(rng.randint(0, 4) for _ in range(m)))
            assert rmms(v, full(m), n).value <= mms(v, full(m), n).value

    def test_witness_meets_value(self):
        v = Additive((3, 1, 1, 1))
        report = rmms(v, full(4), 2)
        assert all(v.value_of(b.mask) >= report.value for b in report.witness)

    def test_additive_ratio_bound_exact(self):
        rng = random.Random(4)
        for _ in range(60):
            m = rng.randint(2, 6)
            n = rng.randint(2, 3)
            v = Additive(tuple(rng.randint(0, 5) for _ in range(m)))
            r = rmms(v, full(m), n).value
            mm = mms(v, full(m), n).value
            bound = ratio_bound(n, "additive")
            assert r * bound.denominator >= bound.numerator * mm


class TestMxs:
    def test_single_agent_full_allocation(self):
        # With one agent the only full allocation hands her everything.
        inst = Instance(3, 1, (Additive((2, 1, 1)),))
        assert mxs(inst, 0).value == 4

    def test_two_agents_three_items(self):
        inst = Instance(3, 2, (Additive((2, 1, 1)), Additive((2, 1, 1))))
        assert mxs(inst, 0).value == 2
        assert mxs(inst, 1).value == 2

    def test_one_item_each(self):
        inst = Instance(2, 2, (Additive((1, 1)), Additive((1, 1))))
        assert mxs(inst, 0).value == 1

    def test_witness_is_envy_free_allocation(self):
        from rmms import fairness
        from rmms.core import PartialAllocation

        inst = Instance(4, 2, (Additive((2, 1, 1, 3)), Additive((1, 1, 1, 1))))
        report = mxs(inst, 0)
        alloc = PartialAllocation(4, Bundle(), report.witness)
        verdicts = [
            fairness.envy_between(inst, alloc, 0, j).kind
            for j in range(2) if j != 0
        ]
        assert all(k in ("none", "EF") for k in verdicts)

    def test_cap(self):
        # MXS refuses only past MAX_EXACT_ITEMS, the item cap of every exact
        # share.
        m = MAX_EXACT_ITEMS + 1
        inst = Instance(m, 3, tuple(Additive((1,) * m) for _ in range(3)))
        with pytest.raises(CapExceededError):
            mxs(inst, 0)

    def test_le_rmms(self):
        rng = random.Random(6)
        for _ in range(60):
            m = rng.randint(2, 6)
            n = rng.randint(2, 3)
            v = Additive(tuple(rng.randint(0, 3) for _ in range(m)))
            inst = Instance(m, n, tuple(v for _ in range(n)))
            assert mxs(inst, 0).value <= rmms(v, full(m), n).value


class TestRatioBound:
    def test_known_values(self):
        assert ratio_bound(3, "additive") == Fraction(3, 4)
        assert ratio_bound(4, "additive") == Fraction(3, 4)
        assert ratio_bound(5, "subadditive") == Fraction(1, 5)

    def test_edge_cases(self):
        assert ratio_bound(1, "additive") == 1
        assert ratio_bound(2, "additive") == 1
        assert ratio_bound(1, "subadditive") == 1

    def test_rejects_unknown_class(self):
        with pytest.raises(ValueError):
            ratio_bound(3, "submodular")


def test_rmms_equals_mms_for_two_additive_agents():
    # For n = 2 and additive valuations removing one low bundle never hurts.
    rng = random.Random(7)
    for _ in range(50):
        m = rng.randint(2, 6)
        v = Additive(tuple(rng.randint(0, 5) for _ in range(m)))
        assert rmms(v, full(m), 2).value == mms(v, full(m), 2).value


def test_capped_additive_rmms_at_least_mms_over_n():
    rng = random.Random(8)
    for _ in range(60):
        m = rng.randint(2, 7)
        n = rng.randint(2, 4)
        values = tuple(rng.randint(0, 5) for _ in range(m))
        cap = rng.randint(1, max(1, sum(values)))
        v = CappedAdditive(values, cap)
        assert rmms(v, full(m), n).value * n >= mms(v, full(m), n).value
