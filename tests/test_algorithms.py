import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmms.core import (
    Additive,
    Bundle,
    Instance,
    InvariantError,
    PartialAllocation,
    PreconditionError,
    QueryLedger,
)
from rmms import algorithms, cli, core, fairness, oracle, shares
from conftest import random_additive_instance, random_partial


def _alloc(m, *bundle_items, pool=()):
    return PartialAllocation(
        m,
        Bundle.from_items(pool),
        tuple(Bundle.from_items(items) for items in bundle_items),
    )


class TestEnvyCycleRun:
    def test_empty_start_symmetric(self):
        inst = Instance(2, 2, (Additive((1, 1)), Additive((1, 1))))
        ledger = QueryLedger()
        alloc, trace = algorithms.envy_cycle_run(
            inst, PartialAllocation.empty(2, 2), ledger
        )
        assert alloc.is_full
        assert all(len(b) == 1 for b in alloc.bundles)
        assert fairness.is_ef1(inst, alloc)[0]

    def test_full_start_unchanged(self):
        inst = Instance(2, 2, (Additive((1, 1)), Additive((1, 1))))
        start = _alloc(2, [0], [1])
        alloc, trace = algorithms.envy_cycle_run(inst, start, QueryLedger())
        assert alloc == start
        assert trace.matching == [0, 1]
        assert trace.last_added == [None, None]

    def test_rotation_follows_envy_cycle(self):
        # Agent 0 envies 1, 1 envies 2 and 2 envies 0, so nobody is
        # un-envied: each agent takes the bundle it envies, then agent 0
        # gets the pool item.
        inst = Instance(4, 3, (
            Additive((1, 5, 0, 1)),
            Additive((0, 1, 5, 1)),
            Additive((5, 0, 1, 1)),
        ))
        start = _alloc(4, [0], [1], [2], pool=[3])
        ledger = QueryLedger()
        alloc, trace = algorithms.envy_cycle_run(inst, start, ledger)
        assert alloc == _alloc(4, [1, 3], [2], [0])
        assert trace.rounds == [
            {"kind": "rotate", "agents": [0, 2, 1]},
            {"kind": "grant", "agent": 0, "item": 3},
        ]
        assert trace.matching == [1, 2, 0]
        assert ledger.comparison_queries == 12

    def test_three_step_example(self):
        inst = Instance(2, 2, (Additive((1, 1)), Additive((1, 1))))
        start = _alloc(2, [0], [], pool=[1])
        alloc, trace = algorithms.envy_cycle_run(inst, start, QueryLedger())
        assert alloc.is_full
        assert all(len(b) == 1 for b in alloc.bundles)
        assert not algorithms.verify_cycle_run_properties(
            inst, start, alloc, trace
        )

    def test_properties_refuse_a_mis_shaped_allocation(self):
        # A result with fewer bundles than agents is bad input, named as
        # such, not an IndexError from reading past its bundles.
        inst = Instance(2, 2, (Additive((1, 1)), Additive((1, 1))))
        start = _alloc(2, [0], [], pool=[1])
        alloc, trace = algorithms.envy_cycle_run(inst, start, QueryLedger())
        short = _alloc(2, [0, 1])
        for start_, result in ((start, short), (short, alloc)):
            with pytest.raises(ValueError, match="does not match instance shape"):
                algorithms.verify_cycle_run_properties(
                    inst, start_, result, trace)

    # The rotation example's run with its trace and result doctored, one
    # guarantee at a time: (matching, final bundles, pool, last_added).
    @pytest.mark.parametrize("matching, bundles, pool, last_added, failure", [
        ([1, 1, 0], ([1, 3], [2], [0]), [], [3, None, None],
         "matching [1, 1, 0] is not a permutation"),
        ([1, 2, 0], ([3], [2], [0]), [1], [3, None, None],
         "start bundle 1 not contained in final bundle 0"),
        ([0, 2, 1], ([0], [2], [1]), [3], [None, None, None],
         "agent 2 lost value against her start bundle"),
        ([1, 2, 0], ([1, 3], [2], [0]), [], [None, None, None],
         "last_added[0] inconsistent with bundle growth"),
        ([2, 1, 0], ([2, 3], [1], [0]), [], [3, None, None],
         "agent 1 envies bundle 0 even without its last item"),
    ])
    def test_properties_report_each_broken_guarantee(
            self, matching, bundles, pool, last_added, failure):
        inst = Instance(4, 3, (
            Additive((1, 5, 0, 1)),
            Additive((0, 1, 5, 1)),
            Additive((5, 0, 1, 1)),
        ))
        start = _alloc(4, [0], [1], [2], pool=[3])
        alloc, trace = algorithms.envy_cycle_run(inst, start, QueryLedger())
        assert (alloc, trace.matching, trace.last_added) == (
            _alloc(4, [1, 3], [2], [0]), [1, 2, 0], [3, None, None])
        assert not algorithms.verify_cycle_run_properties(
            inst, start, alloc, trace)
        trace.matching, trace.last_added = matching, last_added
        result = _alloc(4, *bundles, pool=pool)
        assert algorithms.verify_cycle_run_properties(
            inst, start, result, trace) == [failure]

    def test_comparison_queries_only(self):
        rng = random.Random(9)
        for _ in range(30):
            inst = random_additive_instance(rng, rng.randint(1, 4), rng.randint(1, 6))
            start = random_partial(rng, inst)
            ledger = QueryLedger()
            algorithms.envy_cycle_run(inst, start, ledger)
            assert ledger.value_queries == 0

    def test_run_guarantees_random(self):
        rng = random.Random(10)
        for _ in range(100):
            inst = random_additive_instance(
                rng, rng.randint(1, 4), rng.randint(1, 7), max_value=4
            )
            start = random_partial(rng, inst)
            alloc, trace = algorithms.envy_cycle_run(inst, start, QueryLedger())
            failures = algorithms.verify_cycle_run_properties(
                inst, start, alloc, trace
            )
            assert not failures, failures

    def test_kept_values_match_a_run_that_compares_every_pair(self):
        # The run keeps each agent's values of the current bundles across
        # grants and rotations. The reference compares every ordered pair
        # through the ledger in every envy matrix, as the run's ledger
        # charges.
        def reference(inst, start, ledger):
            n = inst.n
            records = [{"mask": b.mask, "origin": idx, "last": None}
                       for idx, b in enumerate(start.bundles)]
            pool, rounds = start.pool.mask, []
            while pool:
                while True:
                    masks = [r["mask"] for r in records]
                    envy = [[i != j and not core._compare(
                                v, masks[i], masks[j], ledger)
                             for j in range(n)]
                            for i, v in enumerate(inst.valuations)]
                    unenvied = next((j for j in range(n) if not any(
                        envy[i][j] for i in range(n))), None)
                    if unenvied is not None:
                        break
                    seen, cur, path = {}, 0, []
                    while cur not in seen:
                        seen[cur] = len(path)
                        path.append(cur)
                        cur = next(i for i in range(n) if envy[i][cur])
                    cycle = path[seen[cur]:]
                    old = [records[a] for a in cycle]
                    for idx, agent in enumerate(cycle):
                        records[agent] = old[idx - 1]
                    rounds.append({"kind": "rotate", "agents": list(cycle)})
                item = (pool & -pool).bit_length() - 1
                pool ^= 1 << item
                records[unenvied]["mask"] |= 1 << item
                records[unenvied]["last"] = item
                rounds.append({"kind": "grant", "agent": unenvied,
                               "item": item})
            return ([r["mask"] for r in records], rounds,
                    [r["origin"] for r in records],
                    [r["last"] for r in records])

        rng = random.Random(16)
        rotations = 0
        for trial in range(300):
            kind = ("additive", "capped_additive", "table")[trial % 3]
            n, m = rng.randint(1, 5), rng.randint(1, 8)
            inst = cli.generate_instance(16, trial, n, m, kind, 6)
            start = random_partial(rng, inst)
            ledger, expected_ledger = QueryLedger(), QueryLedger()
            alloc, trace = algorithms.envy_cycle_run(inst, start, ledger)
            expected = reference(inst, start, expected_ledger)
            got = ([b.mask for b in alloc.bundles], trace.rounds,
                   trace.matching, trace.last_added)
            assert got == expected, (trial, kind, n, m)
            assert ledger == expected_ledger, (trial, kind, n, m)
            rotations += any(r["kind"] == "rotate" for r in trace.rounds)
        assert rotations


class TestPreprocessSingletons:
    def test_no_pool_unchanged(self):
        inst = Instance(2, 2, (Additive((1, 1)), Additive((1, 1))))
        start = _alloc(2, [0], [1])
        assert algorithms.preprocess_singletons(inst, start, QueryLedger()) == start

    def test_empty_bundle_takes_positive_item(self):
        inst = Instance(2, 1, (Additive((0, 3)),))
        start = _alloc(2, [], pool=[0, 1])
        out = algorithms.preprocess_singletons(inst, start, QueryLedger())
        assert out.bundles[0].items() == [1]

    def test_swap_and_stop(self):
        inst = Instance(2, 1, (Additive((1, 5)),))
        start = _alloc(2, [0], pool=[1])
        out = algorithms.preprocess_singletons(inst, start, QueryLedger())
        assert out.bundles[0].items() == [1]
        assert out.pool.items() == [0]

    def test_value_never_drops_and_stable(self):
        rng = random.Random(12)
        for _ in range(100):
            inst = random_additive_instance(rng, rng.randint(1, 3), rng.randint(1, 6))
            start = random_partial(rng, inst)
            ledger = QueryLedger()
            out = algorithms.preprocess_singletons(inst, start, ledger)
            assert ledger.value_queries == 0
            for i in range(inst.n):
                v = inst.valuations[i]
                assert v.value_of(out.bundles[i].mask) >= v.value_of(
                    start.bundles[i].mask
                )
                for e in out.pool:
                    assert v.value_of(out.bundles[i].mask) >= v.value_of(1 << e)


    def test_matches_a_run_that_compares_through_the_ledger(self):
        # The preprocessing reads each agent's own value once per scan of
        # the pool. The reference compares each pool item through
        # ``core._compare``, which reads both values at every comparison.
        def reference(inst, start, ledger):
            pool = start.pool.mask
            bundles = [b.mask for b in start.bundles]
            while True:
                for i, v in enumerate(inst.valuations):
                    taken = next((1 << e for e in core.bits_of(pool)
                                  if not core._compare(
                                      v, bundles[i], 1 << e, ledger)), 0)
                    if taken:
                        pool = (pool | bundles[i]) ^ taken
                        bundles[i] = taken
                        break
                else:
                    return pool, bundles

        rng = random.Random(17)
        swapped = 0
        for trial in range(300):
            kind = ("additive", "capped_additive", "table")[trial % 3]
            n, m = rng.randint(1, 5), rng.randint(1, 8)
            inst = cli.generate_instance(17, trial, n, m, kind, 6)
            start = random_partial(rng, inst)
            ledger, expected_ledger = QueryLedger(), QueryLedger()
            out = algorithms.preprocess_singletons(inst, start, ledger)
            got = (out.pool.mask, [b.mask for b in out.bundles])
            assert got == reference(inst, start, expected_ledger), (
                trial, kind, n, m)
            assert ledger == expected_ledger, (trial, kind, n, m)
            swapped += out != start
        assert swapped


class TestEflComplete:
    def test_full_efl_input_unchanged(self):
        inst = Instance(2, 2, (Additive((1, 1)), Additive((1, 1))))
        start = _alloc(2, [0], [1])
        out, _ = algorithms.efl_complete(inst, start, QueryLedger())
        assert out == start

    def test_rejects_non_efl_input(self):
        inst = Instance(3, 2, (Additive((1, 4, 4)), Additive((1, 4, 4))))
        start = _alloc(3, [0], [1, 2])
        with pytest.raises(PreconditionError):
            algorithms.efl_complete(inst, start, QueryLedger())

    def test_three_item_example(self):
        inst = Instance(
            3, 2, (Additive((1, 1, 1)), Additive((1, 1, 1)))
        )
        start = _alloc(3, [0], [1], pool=[2])
        out, _ = algorithms.efl_complete(inst, start, QueryLedger())
        assert out.is_full
        assert fairness.is_efl(inst, out)[0]
        assert all(
            inst.valuations[i].value_of(out.bundles[i].mask) >= 1
            for i in range(2)
        )

    def test_preprocessing_example(self):
        inst = Instance(2, 2, (Additive((1, 3)), Additive((1, 3))))
        start = _alloc(2, [0], [], pool=[1])
        out, _ = algorithms.efl_complete(inst, start, QueryLedger())
        assert out.is_full
        assert fairness.is_efl(inst, out)[0]

    def test_comparison_only_and_dominance(self):
        rng = random.Random(13)
        done = 0
        while done < 60:
            inst = random_additive_instance(rng, rng.randint(1, 3), rng.randint(1, 6))
            start = random_partial(rng, inst)
            if not fairness.is_efl(inst, start)[0]:
                continue
            done += 1
            ledger = QueryLedger()
            out, _ = algorithms.efl_complete(inst, start, ledger)
            assert ledger.value_queries == 0
            assert out.is_full
            assert fairness.is_efl(inst, out)[0]
            for i in range(inst.n):
                v = inst.valuations[i]
                assert v.value_of(out.bundles[i].mask) >= v.value_of(
                    start.bundles[i].mask
                )


    @pytest.mark.parametrize("kind", ["additive", "capped_additive", "table"])
    def test_equals_preprocessing_then_cycle_run(self, kind):
        # efl_complete runs the two kernels without building the allocation
        # between them; the public pieces build and check it.
        completed = 0
        for n in range(1, 5):
            for m in range(1, 6):
                inst = cli.generate_instance(26, 0, n, m, kind, 10)
                for partial in oracle.enumerate_allocations(inst, partial=True):
                    if not fairness.is_efl(inst, partial)[0]:
                        continue
                    fused_ledger, pieces_ledger = QueryLedger(), QueryLedger()
                    got, trace = algorithms.efl_complete(
                        inst, partial, fused_ledger)
                    want, want_trace = algorithms.envy_cycle_run(
                        inst,
                        algorithms.preprocess_singletons(
                            inst, partial, pieces_ledger),
                        pieces_ledger)
                    assert (got, trace.rounds, trace.matching,
                            trace.last_added) == (
                        want, want_trace.rounds, want_trace.matching,
                        want_trace.last_added), (n, m, partial)
                    assert fused_ledger == pieces_ledger, (n, m, partial)
                    completed += 1
        assert completed


class TestRmmsEfxPartial:
    def test_single_agent(self):
        inst = Instance(3, 1, (Additive((1, 2, 3)),))
        alloc, trace = algorithms.rmms_efx_partial(inst, QueryLedger())
        assert inst.valuations[0].value_of(alloc.bundles[0].mask) >= 6

    def test_two_symmetric_agents(self):
        inst = Instance(2, 2, (Additive((1, 1)), Additive((1, 1))))
        alloc, trace = algorithms.rmms_efx_partial(inst, QueryLedger())
        assert trace.rmms_values == [1, 1]
        assert all(len(b) == 1 for b in alloc.bundles)
        assert fairness.is_efx(inst, alloc)[0]

    def test_zero_share_agents_may_get_nothing(self):
        v = Additive((1, 0, 0))
        inst = Instance(3, 3, (v, v, v))
        alloc, trace = algorithms.rmms_efx_partial(inst, QueryLedger())
        assert trace.rmms_values == [0, 0, 0]
        assert fairness.is_efx(inst, alloc)[0]

    def test_random_instances_meet_share_and_efx(self):
        rng = random.Random(14)
        for _ in range(150):
            inst = random_additive_instance(
                rng, rng.randint(1, 3), rng.randint(1, 6)
            )
            alloc, trace = algorithms.rmms_efx_partial(inst, QueryLedger())
            assert fairness.is_efx(inst, alloc)[0]
            for i in range(inst.n):
                assert (
                    inst.valuations[i].value_of(alloc.bundles[i].mask)
                    >= trace.rmms_values[i]
                )

    def test_missing_promised_partition_raises(self, monkeypatch):
        # The round's acceptable partition is guaranteed by residual
        # feasibility; its absence is an invariant failure, also under -O.
        monkeypatch.setattr(shares, "acceptable_partition", lambda *a: None)
        inst = Instance(2, 2, (Additive((1, 1)), Additive((1, 1))))
        with pytest.raises(InvariantError, match="acceptable partition"):
            algorithms.rmms_efx_partial(inst, QueryLedger())


def _alternating_reach(match_of_part, adj):
    """The agents an alternating BFS from the lowest unmatched part reaches:
    the reference for the Hall set of ``_max_matching``."""
    match_of_agent = {a: p for p, a in enumerate(match_of_part) if a != -1}
    start = match_of_part.index(-1)
    part_reach, agent_reach, frontier = {start}, set(), [start]
    while frontier:
        p = frontier.pop(0)
        for a in adj[p]:
            if a in agent_reach:
                continue
            agent_reach.add(a)
            mp = match_of_agent[a]  # an unmatched agent: augmenting path
            if mp not in part_reach:
                part_reach.add(mp)
                frontier.append(mp)
    return agent_reach


@given(st.integers(1, 6).flatmap(lambda parts: st.lists(
    st.lists(st.integers(0, 5), unique=True), min_size=parts,
    max_size=parts)))
@settings(max_examples=400, deadline=None)
def test_hall_set_is_the_alternating_reach(adj):
    match_of_part, hall = algorithms._max_matching(len(adj), adj)
    matched = [a for a in match_of_part if a != -1]
    assert len(set(matched)) == len(matched)
    assert all(a == -1 or a in adj[p] for p, a in enumerate(match_of_part))
    if hall is None:
        assert -1 not in match_of_part
    else:
        assert hall == _alternating_reach(match_of_part, adj)


class TestRmmsEflFull:
    def test_one_item_per_agent(self):
        inst = Instance(
            3, 3, tuple(Additive((3, 2, 1)) for _ in range(3))
        )
        alloc, _ = algorithms.rmms_efl_full(inst, QueryLedger())
        assert alloc.is_full
        assert all(len(b) == 1 for b in alloc.bundles)

    def test_big_item_instance(self):
        v = Additive((3, 1, 1, 1))
        inst = Instance(4, 2, (v, v))
        alloc, trace = algorithms.rmms_efl_full(inst, QueryLedger())
        assert alloc.is_full
        assert fairness.is_efl(inst, alloc)[0]
        for i in range(2):
            assert v.value_of(alloc.bundles[i].mask) >= trace.rmms_values[i]

    def test_six_ones_three_agents(self):
        v = Additive((1,) * 6)
        inst = Instance(6, 3, (v, v, v))
        alloc, _ = algorithms.rmms_efl_full(inst, QueryLedger())
        assert alloc.is_full
        assert fairness.is_efl(inst, alloc)[0]
        assert all(v.value_of(b.mask) >= 2 for b in alloc.bundles)

    def test_completion_uses_no_value_queries(self):
        rng = random.Random(15)
        for _ in range(60):
            inst = random_additive_instance(
                rng, rng.randint(1, 3), rng.randint(1, 6)
            )
            alloc, trace = algorithms.rmms_efl_full(inst, QueryLedger())
            assert trace.completion_ledger.value_queries == 0
            assert alloc.is_full
            assert fairness.is_efl(inst, alloc)[0]
            for i in range(inst.n):
                vi = inst.valuations[i]
                assert vi.value_of(alloc.bundles[i].mask) >= vi.value_of(
                    trace.partial.bundles[i].mask
                )
                assert vi.value_of(alloc.bundles[i].mask) >= trace.rmms_values[i]


def _completion_digests(kind, n, m):
    """sha256 digests of every EFL completion of one generated instance and
    of the EFX partial runs on 40 of them: bundles and query counts, in run
    order."""
    inst = cli.generate_instance(2026, 0, n, m, kind, 10)
    completions = []
    for partial in oracle.enumerate_allocations(inst, partial=True):
        if not fairness.is_efl(inst, partial)[0]:
            continue
        ledger = QueryLedger()
        full, _ = algorithms.efl_complete(inst, partial, ledger)
        completions.append(([b.mask for b in full.bundles],
                            ledger.comparison_queries))
    # Indices 0-39 take the EFX procedure through every kind of round,
    # wealthy upgrades included.
    partial_runs = []
    for index in range(40):
        inst = cli.generate_instance(2026, index, n, m, kind, 10)
        ledger = QueryLedger()
        alloc, _ = algorithms.rmms_efx_partial(inst, ledger)
        partial_runs.append((alloc.pool.mask, [b.mask for b in alloc.bundles],
                             ledger.value_queries, ledger.comparison_queries))
    return (len(completions),
            hashlib.sha256(repr(completions).encode()).hexdigest(),
            hashlib.sha256(repr(partial_runs).encode()).hexdigest())


# (EFL partial allocations, digest of their completions, digest of the EFX
# partial runs) per generate_instance(2026, index, n, m, kind, 10): the
# completions at index 0, the runs at indices 0-39. They pin the
# completion's and the EFX procedure's query discipline: which bundles come
# out and how many value and comparison queries it takes to get there.
COMPLETION_GOLDEN = {
    ("additive", 3, 5): (
        176, "19039c6433abd2fcec8fc1287619da36a8159cddfd016dd803d833dbc4f78d44",
        "d93898485ecb9b196f99db1a9b40df92ccee7f4cb87db038a5b709a3cd773414"),
    ("additive", 4, 4): (
        209, "7657fd6a061c5210d1f3f3e5ede145d2172ad3aaa932898f39ed029bd40e3ccd",
        "c97a78000aa633758a2bb5a7c6ab86d64e99b2fe1b12c7f7147736bd44488edd"),
    ("capped_additive", 3, 5): (
        230, "1e6e8e1da1785024f03866a1f1405ed7484e7d075451b122c801bc65ebae5280",
        "26aae96a1b78f9eb83f116be28c74ea54acb9f9aac164f9326b3da71368ad3c2"),
    ("capped_additive", 4, 4): (
        209, "c1274245b45fdad1db141ba78d32e63c5b8f1a81fc667c9329af8c9748591295",
        "56cc290273684bf870cdc0f8cf437cc16f5b1c55f6dff435b326829b62bfe45c"),
    ("table", 3, 5): (
        180, "e43f6614cff0ea471bb4b0da1bebd621fcb484eab1c1fc5149576522654129b0",
        "59e3b225764b700fa4f94c404d8bf9fee4283194cbfefdec1b5ec5d230dd0750"),
    ("table", 4, 4): (
        209, "edebb177f663478278495237bcd4e682064e8d5557afe74eeb414f33b81b90c5",
        "ded30358148e389e6a05e7bb15122f9c506541167c1307835b50c156e3ad213e"),
}


@pytest.mark.parametrize("kind, n, m", sorted(COMPLETION_GOLDEN))
def test_completion_queries_golden(kind, n, m):
    assert _completion_digests(kind, n, m) == COMPLETION_GOLDEN[(kind, n, m)]


@pytest.mark.parametrize("kind", ["additive", "capped_additive", "table"])
def test_rmms_efx_partial_reuses_the_shares_computed_before(monkeypatch, kind):
    # As in a bench row: MMS, RMMS and MXS per agent, then the algorithm on
    # the same instance finds every RMMS value already kept on its valuation.
    checks = 0
    check = shares._residual_failure

    def spy(*args, **kwargs):
        nonlocal checks
        checks += 1
        return check(*args, **kwargs)

    monkeypatch.setattr(shares, "_residual_failure", spy)
    inst = cli.generate_instance(3, 0, 3, 7, kind, 10)
    for i, v in enumerate(inst.valuations):
        shares.mms(v, inst.all_items, inst.n)
        shares.rmms(v, inst.all_items, inst.n)
        shares.mxs(inst, i)
    before = checks
    algorithms.rmms_efx_partial(inst, QueryLedger())
    assert before and checks == before
