import gc
import hashlib
import itertools
import json
import random
import tracemalloc

import pytest

from rmms.core import Additive, Bundle, Instance, PartialAllocation, Table
from rmms import cli, fairness, oracle


def _alloc(m, *bundle_items, pool=()):
    bundles = tuple(Bundle.from_items(items) for items in bundle_items)
    return PartialAllocation(m, Bundle.from_items(pool), bundles)


def test_envy_between_ef_but_not_efx():
    inst = Instance(3, 2, (Additive((5, 3, 3)), Additive((5, 3, 3))))
    alloc = _alloc(3, [0], [1, 2])
    verdict = fairness.envy_between(inst, alloc, 0, 1)
    assert verdict.kind == "EF"


def test_envy_toward_empty_bundle_is_none():
    inst = Instance(2, 2, (Additive((1, 1)), Additive((1, 1))))
    alloc = _alloc(2, [0, 1], [])
    assert fairness.envy_between(inst, alloc, 1, 0).kind == "EF1"
    assert fairness.envy_between(inst, alloc, 0, 1).kind == "none"


def test_envy_between_ef1():
    inst = Instance(3, 2, (Additive((1, 4, 4)), Additive((1, 4, 4))))
    alloc = _alloc(3, [0], [1, 2])
    verdict = fairness.envy_between(inst, alloc, 0, 1)
    assert verdict.kind == "EF1"
    ok, violations = fairness.is_ef1(inst, alloc)
    assert not ok
    assert (violations[0].envier, violations[0].envied) == (0, 1)


def test_efx_witness_is_lowest_index():
    # Dropping item 3 kills the envy, so no EF1 or EFL envy; dropping a
    # cheap item does not, so the EFX witness is the lowest such item.
    v = Additive((5, 1, 1, 5))
    inst = Instance(4, 2, (v, v))
    alloc = _alloc(4, [0], [1, 2, 3])
    verdict = fairness.envy_between(inst, alloc, 0, 1)
    assert verdict.kind == "EFX"
    assert verdict.witness == 1


def test_is_ef_symmetric_singletons():
    inst = Instance(2, 2, (Additive((1, 1)), Additive((1, 1))))
    assert fairness.is_ef(inst, _alloc(2, [0], [1]))[0]


def test_singleton_bundles_are_efx():
    inst = Instance(2, 2, (Additive((2, 1)), Additive((2, 1))))
    assert fairness.is_efx(inst, _alloc(2, [0], [1]))[0]


def test_self_comparison_rejected():
    inst = Instance(2, 2, (Additive((1, 1)), Additive((1, 1))))
    with pytest.raises(ValueError):
        fairness.envy_between(inst, _alloc(2, [0], [1]), 1, 1)


@pytest.mark.parametrize("i, j", [(0, -1), (0, 2), (-1, 0), (2, 0)])
def test_envy_between_refuses_agents_outside_the_instance(i, j):
    # -1 once read the last agent's bundle, and 2 raised IndexError.
    inst = Instance(2, 2, (Additive((1, 1)), Additive((1, 1))))
    with pytest.raises(ValueError, match=r"agent must lie in \[0, 2\)"):
        fairness.envy_between(inst, _alloc(2, [0], [1]), i, j)


def test_hierarchy_exhaustive_small():
    # EFX => EFL => EF1 over every allocation of every tiny instance.
    for m in (1, 2, 3):
        vecs = list(itertools.product(range(3), repeat=m))
        for n in (2, 3):
            for chosen in itertools.product(vecs, repeat=n):
                inst = Instance(m, n, tuple(Additive(v) for v in chosen))
                for alloc in oracle.enumerate_allocations(inst, partial=True):
                    # One certificate gives all three flags; that they
                    # match the is_* predicates is checked in
                    # test_fairness_matches_definitions.
                    cert = fairness.certificate(inst, alloc)
                    if cert["efx"]:
                        assert cert["efl"]
                    if cert["efl"]:
                        assert cert["ef1"]


def test_all_singleton_allocations_are_efx():
    rng = random.Random(5)
    for _ in range(50):
        m = rng.randint(2, 6)
        n = rng.randint(2, min(4, m))
        inst = Instance(
            m, n,
            tuple(
                Additive(tuple(rng.randint(0, 5) for _ in range(m)))
                for _ in range(n)
            ),
        )
        items = rng.sample(range(m), n)
        pool = [e for e in range(m) if e not in items]
        alloc = PartialAllocation(
            m,
            Bundle.from_items(pool),
            tuple(Bundle.from_items([e]) for e in items),
        )
        assert fairness.is_efx(inst, alloc)[0]


def test_growing_own_bundle_never_creates_own_envy():
    rng = random.Random(11)
    for _ in range(100):
        m = rng.randint(2, 6)
        inst = Instance(
            m, 2,
            tuple(
                Additive(tuple(rng.randint(0, 5) for _ in range(m)))
                for _ in range(2)
            ),
        )
        split = rng.randint(0, m - 1)
        own = Bundle.from_items(range(split))
        other_items = list(range(split, m))
        take = rng.randint(1, len(other_items))
        other = Bundle.from_items(other_items[:take])
        pool = Bundle.from_items(other_items[take:])
        alloc = PartialAllocation(m, pool, (own, other))
        before = fairness.envy_between(inst, alloc, 0, 1).kind
        if pool:
            grown = PartialAllocation(
                m, Bundle(), (own.union(pool), other)
            )
            after = fairness.envy_between(inst, grown, 0, 1).kind
            order = {"none": 0, "EF": 1, "EFX": 2, "EFL": 3, "EF1": 4}
            assert order[after] <= order[before]


def test_certificate_shape():
    inst = Instance(3, 2, (Additive((1, 4, 4)), Additive((1, 4, 4))))
    cert = fairness.certificate(inst, _alloc(3, [0], [1, 2]))
    assert set(cert) == {"ef1", "efl", "efx", "ef", "violations"}
    assert cert["ef1"] is False
    kinds = {v["kind"] for v in cert["violations"]}
    assert "EF1" in kinds


# ---------------------------------------------------------------------------
# The fairness layer against its definitions, over every partial allocation.

def reference_pair(v, own, other):
    """(kind, witness, notions) of one ordered pair, straight from the
    definitions; notions maps each kind to whether that envy is present."""
    own_val = v.value_of(own)
    items = [e for e in range(other.bit_length()) if other >> e & 1]
    rest = {e: v.value_of(other & ~(1 << e)) for e in items}
    notions = {
        "EF1": bool(items) and all(own_val < rest[e] for e in items),
        "EFL": len(items) >= 2 and all(
            own_val < v.value_of(1 << e) or own_val < rest[e] for e in items
        ),
        "EFX": any(own_val < rest[e] for e in items),
        "EF": bool(items) and own_val < v.value_of(other),
    }
    witness = min((e for e in items if own_val < rest[e]), default=None)
    for kind in ("EF1", "EFL", "EFX", "EF"):
        if notions[kind]:
            return kind, witness if kind == "EFX" else None, notions
    return "none", None, notions


def reference_certificate(inst, alloc):
    pairs = [
        (i, j, reference_pair(inst.valuations[i], alloc.bundles[i].mask,
                              alloc.bundles[j].mask))
        for i in range(inst.n) for j in range(inst.n) if i != j
    ]
    cert = {
        name.lower(): not any(notions[name] for _, _, (_, _, notions) in pairs)
        for name in ("EF1", "EFL", "EFX", "EF")
    }
    cert["violations"] = [
        {"envier": i, "envied": j, "kind": kind, "witness": witness}
        for i, j, (kind, witness, _) in pairs if kind != "none"
    ]
    return cert, pairs


def nonmonotone_table(rng, m):
    # Small sets tend to be worth more than large ones and v(empty) may be
    # positive, so the implications EFX => EFL => EF1 and EF1 => EF break.
    return Table(tuple(
        rng.randint(0, 6) // max(1, mask.bit_count())
        + (rng.randint(0, 1) if mask == 0 else 0)
        for mask in range(1 << m)
    ), validate=False)


def reference_instances():
    rng = random.Random(23)
    for n, m in ((2, 5), (3, 4), (4, 3), (3, 5)):
        for kind in ("additive", "capped_additive", "table"):
            yield cli.generate_instance(31, 10 * n + m, n, m, kind, 5)
        yield Instance(m, n, tuple(nonmonotone_table(rng, m) for _ in range(n)))


def test_fairness_matches_definitions():
    predicates = {"EF1": fairness.is_ef1, "EFL": fairness.is_efl,
                  "EFX": fairness.is_efx, "EF": fairness.is_ef}
    witnesses, broken = set(), set()
    for inst in reference_instances():
        for alloc in oracle.enumerate_allocations(inst, partial=True):
            want, pairs = reference_certificate(inst, alloc)
            assert fairness.certificate(inst, alloc) == want
            for i, j, (kind, witness, notions) in pairs:
                got = fairness.envy_between(inst, alloc, i, j)
                assert (got.envier, got.envied, got.kind, got.witness) == (
                    i, j, kind, witness)
                witnesses.add(witness)
                broken.update((a, b) for a in notions for b in notions
                              if notions[a] and not notions[b])
            for name, predicate in predicates.items():
                ok, violations = predicate(inst, alloc)
                expected = [(i, j, kind, witness)
                            for i, j, (kind, witness, notions) in pairs
                            if notions[name]]
                assert ok == (not expected)
                assert [(v.envier, v.envied, v.kind, v.witness)
                        for v in violations] == expected
    assert 0 in witnesses
    assert {("EFL", "EFX"), ("EF1", "EFL"), ("EF1", "EF")} <= broken


def test_efx_witness_item_zero():
    # Item 0 is a witness (v({1, 3}) = 4 > 3); item 1 rules out EF1 and EFL.
    v = Additive((1, 2, 3, 2))
    inst = Instance(4, 2, (v, v))
    alloc = _alloc(4, [2], [0, 1, 3])
    verdict = fairness.envy_between(inst, alloc, 0, 1)
    assert (verdict.kind, verdict.witness) == ("EFX", 0)
    assert fairness.is_efx(inst, alloc)[1] == [verdict]
    assert fairness.certificate(inst, alloc)["violations"] == [
        {"envier": 0, "envied": 1, "kind": "EFX", "witness": 0}]


# SHA-256 of the JSON list of certificates of every partial allocation of
# cli.generate_instance(47, index, n, m, kind, 6), recorded before the pair
# kernel replaced the per-notion scans.
CERTIFICATES_GOLDEN = {
    ("additive", 3, 5): "2d7fd8d0bbf5f63c6be08c41825f5e9e5386385b2e8962316deb79d56895a881",
    ("additive", 4, 4): "4bfe8f6e0f4d949227912ba5bcfd8f20dbbf62203d51790d6e3c9a19d8d9e5bf",
    ("capped_additive", 3, 5): "f3574a92e2d0a3f295d8789ad6599d556c8dce28d7516224df57a06a75e5d502",
    ("capped_additive", 4, 4): "def3c08f1d936f8349f0fcaf94e44bfa00fbb56d75a948ab7b74f6ffaa3cd674",
    ("table", 3, 5): "1231a29b83f521c5a3171f0f0d25922d7a27752473d5fd9796c9bf8b7b9332d2",
    ("table", 4, 4): "0a8ca712aafcb8b74ae79cb90045334637032e5f1dd0b158052778b16834c3e4",
}


@pytest.mark.parametrize("kind", ["additive", "capped_additive", "table"])
@pytest.mark.parametrize("n,m", [(3, 5), (4, 4)])
def test_certificates_golden(kind, n, m):
    # The second pass reads the thresholds the first one left.
    inst = cli.generate_instance(47, 10 * n + m, n, m, kind, 6)
    for _ in range(2):
        certs = [fairness.certificate(inst, alloc)
                 for alloc in oracle.enumerate_allocations(inst, partial=True)]
        digest = hashlib.sha256(json.dumps(certs).encode()).hexdigest()
        assert digest == CERTIFICATES_GOLDEN[(kind, n, m)]
        # At most one entry per non-empty bundle.
        for v in inst.valuations:
            assert 0 < len(vars(v)["_envy"]) <= 2 ** m - 1


def test_negative_table_singletons_show_no_efl_envy():
    # validate=False admits negative values, so an own bundle can be worth
    # less than 0; an EFL threshold of 0 for singletons would show EFL envy.
    rng = random.Random(29)
    below_zero = 0
    for n, m in ((2, 3), (3, 3), (2, 4)):
        for _ in range(4):
            inst = Instance(m, n, tuple(
                Table(tuple(rng.randint(-6, 3) for _ in range(1 << m)),
                      validate=False)
                for _ in range(n)))
            for alloc in oracle.enumerate_allocations(inst, partial=True):
                want, pairs = reference_certificate(inst, alloc)
                assert fairness.certificate(inst, alloc) == want
                for i, j, (kind, _, notions) in pairs:
                    if len(alloc.bundles[j]) == 1:
                        assert not notions["EFL"]
                        got = fairness.envy_between(inst, alloc, i, j).kind
                        assert got == kind and got != "EFL"
                        below_zero += inst.valuations[i].value_of(
                            alloc.bundles[i].mask) < 0
                assert [(v.envier, v.envied) for v in
                        fairness.is_efl(inst, alloc)[1]] == [
                    (i, j) for i, j, (_, _, notions) in pairs if notions["EFL"]]
    assert below_zero


# Bytes each envy memo entry keeps (tracemalloc), after the certificates of
# every full allocation of cli.generate_instance(3, 0, 2, 12, kind, 1000),
# as measured under Python 3.11: 216 additive and capped additive and 116
# table with the four thresholds alone, against 645 and 417 when each entry
# also held the values v(B - e) and the item bits for the EFX witness.
ENVY_MEMO_BYTES_PER_ENTRY = {"additive": 240, "capped_additive": 240,
                             "table": 130}


@pytest.mark.parametrize("kind", ["additive", "capped_additive", "table"])
def test_envy_memo_bytes_stay_within_measured_bound(kind):
    inst = cli.generate_instance(3, 0, 2, 12, kind, 1000)
    allocs = list(oracle.enumerate_allocations(inst, partial=False))
    # A full collection also empties the free lists, whose reused tuples
    # tracemalloc would not see.
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for alloc in allocs:
            fairness.certificate(inst, alloc)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    entries = sum(len(vars(v)["_envy"]) for v in inst.valuations)
    # Two agents and every split: one entry per non-empty bundle each.
    assert entries == 2 * (2 ** 12 - 1)
    assert kept <= ENVY_MEMO_BYTES_PER_ENTRY[kind] * entries
