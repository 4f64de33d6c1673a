import itertools
import random

import pytest

from rmms.core import (
    Additive,
    Bundle,
    CapExceededError,
    CappedAdditive,
    Instance,
    PartialAllocation,
    Table,
    instance_to_json,
)
from rmms import cli, oracle, shares
from rmms.oracle import (
    brute_mms,
    brute_mxs,
    brute_rmms,
    check_lipschitz_share,
    check_monotone_share,
    check_self_maximizing,
    enumerate_allocations,
    exact_rmms_value,
    verify_corpus,
)


def full(m):
    return Bundle((1 << m) - 1)


def per_assignment_allocations(inst, partial):
    """The enumeration as one loop over assignments, each allocation built
    from scratch: the reference for the block enumeration."""
    base = inst.n + 1 if partial else inst.n
    for assignment in itertools.product(range(base), repeat=inst.m):
        pool = 0
        bundles = [0] * inst.n
        for item, slot in enumerate(assignment):
            if partial and slot == 0:
                pool |= 1 << item
            else:
                bundles[slot - 1 if partial else slot] |= 1 << item
        yield PartialAllocation(
            inst.m, Bundle(pool), tuple(Bundle(b) for b in bundles)
        )


class TestEnumerateAllocations:
    def test_counts(self):
        one = Instance(1, 1, (Additive((1,)),))
        assert len(list(enumerate_allocations(one, partial=False))) == 1
        two = Instance(2, 2, (Additive((1, 1)), Additive((1, 1))))
        assert len(list(enumerate_allocations(two, partial=False))) == 4
        assert len(list(enumerate_allocations(two, partial=True))) == 9

    def test_each_exactly_once(self):
        inst = Instance(3, 2, (Additive((1, 1, 1)), Additive((1, 1, 1))))
        allocs = list(enumerate_allocations(inst, partial=True))
        assert len(allocs) == len(set(allocs)) == 27

    def test_matches_per_assignment_loop(self):
        for n in range(1, 5):
            for m in range(1, 7):
                inst = Instance(m, n, tuple(
                    Additive(tuple(range(m))) for _ in range(n)))
                for partial in (False, True):
                    assert list(enumerate_allocations(inst, partial)) == list(
                        per_assignment_allocations(inst, partial)), (n, m, partial)

    def test_one_agent_many_items(self):
        # The base is 1, so the cap admits any m: nothing may be built per
        # subset of the items.
        inst = Instance(40, 1, (Additive((1,) * 40),))
        allocs = list(enumerate_allocations(inst, partial=False))
        assert allocs == [PartialAllocation(
            40, Bundle(), (Bundle((1 << 40) - 1),))]

    def test_yields_allocations_the_public_constructor_accepts(self):
        # The enumerator skips the partition check, as its slots partition
        # the items by construction: each allocation it yields must equal
        # the one the validating constructor builds from the same parts.
        for kind in ("additive", "capped_additive", "table"):
            for n in range(1, 5):
                for m in range(1, 6):
                    inst = cli.generate_instance(6, 0, n, m, kind, 10)
                    for partial in (False, True):
                        for alloc in enumerate_allocations(inst, partial):
                            assert type(alloc) is PartialAllocation
                            assert all(type(b) is Bundle
                                       for b in (alloc.pool, *alloc.bundles))
                            assert alloc == PartialAllocation(
                                alloc.m, alloc.pool, alloc.bundles), (
                                kind, n, m, partial)

    def test_cap(self):
        inst = Instance(
            20, 4, tuple(Additive(tuple([0] * 20)) for _ in range(4))
        )
        with pytest.raises(CapExceededError):
            next(enumerate_allocations(inst, partial=False))


class TestBruteShares:
    def test_brute_mms_values(self):
        assert brute_mms(Additive((1, 1, 1, 1)), full(4), 2) == 2
        assert brute_mms(Additive((1, 2)), full(2), 3) == 0
        assert brute_mms(Additive((5,)), full(1), 1) == 5

    def test_brute_rmms_values(self):
        assert brute_rmms(Additive((2, 5)), full(2), 1) == 7
        assert brute_rmms(Additive((1,) * 6), full(6), 3) == 2
        assert brute_rmms(Additive((2, 2, 1, 1)), full(4), 2) == 3

    def test_brute_mxs_values(self):
        inst = Instance(3, 2, (Additive((2, 1, 1)), Additive((2, 1, 1))))
        assert brute_mxs(inst, 0) == 2

    def test_caps(self):
        with pytest.raises(CapExceededError):
            brute_rmms(Additive(tuple([1] * 11)), full(11), 2)
        with pytest.raises(CapExceededError):
            brute_mms(Additive((1, 1)), full(2), 5)

    def test_agreement_with_exact_solvers_tiny_corpus(self):
        for m in (2, 3):
            for vec in itertools.product(range(3), repeat=m):
                v = Additive(vec)
                for n in (1, 2, 3):
                    assert brute_mms(v, full(m), n) == shares.mms(
                        v, full(m), n
                    ).value
                    assert brute_rmms(v, full(m), n) == shares.rmms(
                        v, full(m), n
                    ).value
                    inst = Instance(m, n, tuple(v for _ in range(n)))
                    assert brute_mxs(inst, 0) == shares.mxs(inst, 0).value

    def test_agreement_on_tables(self):
        rng = random.Random(17)
        for _ in range(20):
            m = rng.randint(1, 4)
            table = [0] * (1 << m)
            for mask in range(1, 1 << m):
                floor = max(
                    table[mask ^ (1 << e)]
                    for e in range(m)
                    if (mask >> e) & 1
                )
                table[mask] = floor + rng.randint(0, 2)
            v = Table(tuple(table))
            for n in (1, 2, 3):
                assert brute_rmms(v, full(m), n) == shares.rmms(
                    v, full(m), n
                ).value


class TestShareProperties:
    def test_self_maximizing_identical(self):
        v = Additive((2, 1, 1))
        ok, T = check_self_maximizing(exact_rmms_value, v, v, 2)
        assert ok and T is not None

    def test_self_maximizing_zero_report(self):
        v = Additive((2, 1, 1))
        zero = Additive((0, 0, 0))
        ok, T = check_self_maximizing(exact_rmms_value, v, zero, 2)
        assert ok
        assert T == Bundle(0)

    def test_self_maximizing_random_pairs(self):
        rng = random.Random(18)
        for _ in range(60):
            m = rng.randint(2, 4)
            v = Additive(tuple(rng.randint(0, 4) for _ in range(m)))
            v2 = Additive(tuple(rng.randint(0, 4) for _ in range(m)))
            ok, _ = check_self_maximizing(exact_rmms_value, v, v2, 2)
            assert ok

    def test_monotone_identity(self):
        v = Additive((1, 2))
        assert check_monotone_share(exact_rmms_value, v, v, 2)

    def test_monotone_precondition(self):
        with pytest.raises(ValueError):
            check_monotone_share(
                exact_rmms_value, Additive((1, 1)), Additive((2, 1)), 2
            )

    def test_lipschitz_shifted_pair(self):
        # Bump every item by c: valuations are (c * m)-close on bundles, and
        # per-bundle gap is bounded by the largest bundle gap.
        v = Additive((2, 1, 3))
        v2 = Additive((3, 2, 4))
        assert check_lipschitz_share(exact_rmms_value, v, v2, 2, eps=3)

    def test_lipschitz_precondition(self):
        with pytest.raises(ValueError):
            check_lipschitz_share(
                exact_rmms_value, Additive((0, 0)), Additive((5, 0)), 2, eps=1
            )

    def test_mxs_not_monotone_exhibit_is_best_effort(self):
        # Non-monotone behavior of the minimum EFX share exists in theory;
        # record whether the random search finds a witness, never assert it.
        rng = random.Random(19)

        def mxs_fn(v, S, n):
            inst = Instance(v.m, n, tuple(v for _ in range(n)))
            return shares.mxs(inst, 0).value

        found = False
        for _ in range(200):
            m = rng.randint(2, 4)
            base = [rng.randint(0, 4) for _ in range(m)]
            bumped = [b + rng.randint(0, 2) for b in base]
            lo, hi = Additive(tuple(base)), Additive(tuple(bumped))
            if mxs_fn(hi, None, 2) < mxs_fn(lo, None, 2):
                found = True
                break
        assert found in (True, False)


class TestVerifyCorpus:
    def test_empty_corpus(self):
        report = verify_corpus([])
        assert all(
            c["passed"] == 0 and c["failed"] == 0 for c in report["checks"]
        )

    def test_exhaustive_n2_m3(self):
        corpus = []
        for vec in itertools.product(range(3), repeat=3):
            v = Additive(vec)
            corpus.append(Instance(3, 2, (v, v)))
        report = verify_corpus(corpus)
        assert all(c["failed"] == 0 for c in report["checks"])
        assert all(c["passed"] == 2 * len(corpus) for c in report["checks"])

    def test_seeded_capped_corpus(self):
        rng = random.Random(42)
        corpus = []
        for _ in range(50):
            values = tuple(rng.randint(0, 5) for _ in range(6))
            cap = rng.randint(1, max(1, sum(values)))
            v = CappedAdditive(values, cap)
            corpus.append(Instance(6, 3, (v, v, v)))
        report = verify_corpus(corpus, checks=["subadditive_ratio"])
        assert report["checks"][0]["failed"] == 0

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            verify_corpus([], checks=["made_up"])

    def test_a_solver_oracle_mismatch_is_recorded(self, monkeypatch):
        # An oracle off by one: every agent's shares disagree, and each
        # failure names its agent and carries the instance for replay.
        brute = oracle.brute_mms
        monkeypatch.setattr(oracle, "brute_mms",
                            lambda v, S, n: brute(v, S, n) + 1)
        inst = Instance(3, 2, (Additive((3, 1, 1)), Additive((1, 1, 3))))
        report = verify_corpus([inst], checks=["shares_agreement"])
        assert report["checks"] == [{
            "name": "shares_agreement", "passed": 0, "failed": 2,
            "failures": [
                {"instance": instance_to_json(inst), "agent": agent,
                 "detail": "solver/oracle mismatch"}
                for agent in (0, 1)
            ],
        }]

    def test_failures_are_serialized(self):
        # Force a failure by abusing the additive check on a capped valuation
        # masquerading... instead just confirm the report shape on a pass.
        v = Additive((1, 1))
        report = verify_corpus([Instance(2, 2, (v, v))])
        assert {c["name"] for c in report["checks"]} == set(oracle.CHECK_NAMES)
        for c in report["checks"]:
            assert c["failures"] == []
