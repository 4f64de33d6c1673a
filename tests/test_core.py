import collections
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmms.core import (
    MAX_VALUE,
    Additive,
    Bundle,
    CapExceededError,
    CappedAdditive,
    Instance,
    MalformedBundleError,
    PartialAllocation,
    QueryLedger,
    Table,
    allocation_from_json,
    allocation_to_json,
    bits_of,
    compare_query,
    instance_from_json,
    instance_to_json,
    table_violations,
    validate_instance,
    value_query,
)


def test_bundle_roundtrip():
    b = Bundle.from_items([0, 3, 5])
    assert b.items() == [0, 3, 5]
    assert len(b) == 3
    assert 3 in b and 2 not in b
    assert b.mask == 0b101001


def test_bundle_set_ops():
    a = Bundle.from_items([0, 1])
    b = Bundle.from_items([1, 2])
    assert a.union(b).items() == [0, 1, 2]
    assert a.difference(b).items() == [0]
    assert not a.isdisjoint(b)
    assert a.remove(1).items() == [0]
    with pytest.raises(MalformedBundleError):
        a.remove(5)


def test_value_query_examples():
    ledger = QueryLedger()
    v = Additive((3, 1, 1, 1))
    assert value_query(v, Bundle.from_items([0]), ledger) == 3
    assert value_query(v, Bundle(), ledger) == 0
    capped = CappedAdditive((4, 4), 5)
    assert value_query(capped, Bundle.from_items([0, 1]), ledger) == 5
    assert ledger.value_queries == 3
    assert ledger.comparison_queries == 0


def test_compare_query_examples():
    ledger = QueryLedger()
    assert compare_query(Additive((3, 1)), Bundle(0b01), Bundle(0b10), ledger)
    assert compare_query(Additive((3, 1)), Bundle(0b01), Bundle(0b01), ledger)
    assert not compare_query(
        Additive((1, 1, 1)), Bundle(0b001), Bundle(0b110), ledger
    )
    assert ledger.comparison_queries == 3
    assert ledger.value_queries == 0


def test_query_range_check():
    ledger = QueryLedger()
    with pytest.raises(MalformedBundleError):
        value_query(Additive((1, 2)), Bundle.from_items([2]), ledger)
    with pytest.raises(MalformedBundleError):
        compare_query(Additive((1, 2)), Bundle(), Bundle(0b100), ledger)


def test_table_validation_at_construction():
    with pytest.raises(ValueError, match="normalized"):
        Table((1, 2))
    with pytest.raises(ValueError, match="monotone"):
        Table((0, 2, 0, 1))
    Table((0, 2, 0, 2))  # ok: v({1}) = 0 <= v({0,1})


def test_table_cap():
    with pytest.raises(CapExceededError):
        Table(tuple(0 for _ in range(1 << 21)))


def test_validate_instance_reports():
    bad_norm = Table((1, 1), validate=False)
    inst = Instance(1, 1, (bad_norm,))
    report = validate_instance(inst)
    assert not report.ok
    assert "normalized" in report.violations[0]["problem"]

    bad_mono = Table((0, 2, 0, 1), validate=False)
    inst = Instance(2, 1, (bad_mono,))
    report = validate_instance(inst)
    assert not report.ok
    assert any("monotone" in v["problem"] for v in report.violations)

    good = Instance(3, 1, (Additive((0, 0, 5)),))
    assert validate_instance(good).ok


def loop_table_violations(values):
    """table_violations as a Python loop over masks and their one-smaller
    subsets: the reference for the numpy version."""
    size = len(values)
    m = size.bit_length() - 1
    problems = []
    if size == 0 or size != 1 << m:
        return [f"table length {size} is not a power of two"]
    if values[0] != 0:
        problems.append(f"not normalized: v(empty) = {values[0]}")
    for mask in range(size):
        val = values[mask]
        if type(val) is not int:
            return problems + [f"subset {mask}: value {val!r} is not an integer"]
        if val < 0 or val > MAX_VALUE:
            problems.append(f"subset {mask}: value {val} outside [0, {MAX_VALUE}]")
        sub = mask
        while sub:
            low = sub & -sub
            smaller = mask ^ low
            if values[smaller] > val:
                problems.append(
                    f"not monotone: v({sorted(bits_of(smaller))}) = "
                    f"{values[smaller]} > {val} = v({sorted(bits_of(mask))})"
                )
            sub ^= low
    return problems


def test_table_violations_match_the_loop():
    # Random tables, sorted (monotone) or not, with up to three faults each.
    # Tables of ints in [0, MAX_VALUE] take the fast accept, the rest the
    # scans by mask; both paths must occur.
    rng = random.Random(19)
    faults = [True, 1.0, 2 ** 70, -2 ** 70, -1, MAX_VALUE + 1, 7, MAX_VALUE]
    reported = []
    paths = collections.Counter()
    for _ in range(2000):
        m = rng.randint(0, 6)
        values = [rng.randint(0, 5) for _ in range(1 << m)]
        if rng.random() < 0.5:
            values.sort()
        for _ in range(rng.randint(0, 3)):
            values[rng.randrange(len(values))] = rng.choice(faults)
        values = tuple(values)
        expected = loop_table_violations(values)
        assert table_violations(values) == expected, values
        reported += expected
        paths[all(type(x) is int and 0 <= x <= MAX_VALUE for x in values),
              MAX_VALUE in values] += 1
    for size in (0, 3, 6):
        assert table_violations((0,) * size) == loop_table_violations((0,) * size)
    reported = "\n".join(reported)
    for fault in ("not normalized", "not monotone", f"value {2 ** 70} outside",
                  "value True is not", "value 1.0 is not"):
        assert fault in reported
    assert all(paths[key] for key in itertools.product((True, False), repeat=2))


def test_partial_allocation_partition_enforced():
    PartialAllocation(3, Bundle(0b100), (Bundle(0b001), Bundle(0b010)))
    with pytest.raises(ValueError):
        PartialAllocation(3, Bundle(0b101), (Bundle(0b001), Bundle(0b010)))
    with pytest.raises(ValueError):
        PartialAllocation(3, Bundle(0), (Bundle(0b001), Bundle(0b010)))
    with pytest.raises(MalformedBundleError):
        PartialAllocation(2, Bundle(0b100), (Bundle(0b01), Bundle(0b10)))
    # An item outside the range is reported before an overlap seen earlier.
    with pytest.raises(MalformedBundleError, match=r"\[1, 2\] outside"):
        PartialAllocation(2, Bundle(0b01), (Bundle(0b01), Bundle(0b110)))


def test_instance_shape_checks():
    with pytest.raises(ValueError):
        Instance(2, 2, (Additive((1, 1)),))
    with pytest.raises(ValueError):
        Instance(3, 1, (Additive((1, 1)),))
    with pytest.raises(ValueError):
        Instance(1, 0, ())


def test_compare_matches_value_exhaustive_table():
    # Exhaustive cross-check of the two query kinds on a small table.
    values = [0, 1, 1, 3, 2, 4, 2, 5]
    v = Table(tuple(values))
    ledger = QueryLedger()
    for s in range(8):
        for t in range(8):
            assert compare_query(v, Bundle(s), Bundle(t), ledger) == (
                value_query(v, Bundle(s), ledger)
                >= value_query(v, Bundle(t), ledger)
            )


@given(st.lists(st.integers(0, 100), min_size=1, max_size=10), st.data())
@settings(max_examples=200)
def test_queries_are_pure(values, data):
    v = Additive(tuple(values))
    mask = data.draw(st.integers(0, (1 << len(values)) - 1))
    ledger = QueryLedger()
    first = value_query(v, Bundle(mask), ledger)
    assert value_query(v, Bundle(mask), ledger) == first
    assert ledger.value_queries == 2


@given(st.integers(1, 4), st.integers(1, 6), st.integers(0, 10))
@settings(max_examples=100)
def test_instance_json_roundtrip(n, m, max_value):
    import random

    rng = random.Random(n * 100 + m * 10 + max_value)
    vals = tuple(
        Additive(tuple(rng.randint(0, max_value) for _ in range(m)))
        for _ in range(n)
    )
    inst = Instance(m, n, vals)
    assert instance_from_json(instance_to_json(inst)) == inst


def test_allocation_json_roundtrip():
    alloc = PartialAllocation(
        4, Bundle(0b1000), (Bundle(0b0011), Bundle(0b0100))
    )
    assert allocation_from_json(allocation_to_json(alloc), 4) == alloc


def test_capped_is_subadditive_small():
    v = CappedAdditive((2, 3, 1, 4), 6)
    for s in range(16):
        for t in range(16):
            assert v.value_of(s) + v.value_of(t) >= v.value_of(s | t)


def _bit_loop(values, mask):
    return sum(values[j] for j in range(len(values)) if mask >> j & 1)


@pytest.mark.parametrize("m", [1, 7, 8, 9, 16, 17, 20])
def test_value_of_matches_bit_loop(m):
    # The chunk lookup against the plain per-item sum, on both sides of each
    # 8-item chunk boundary, with 0 and MAX_VALUE among the item values.
    rng = random.Random(m)
    draws = [rng.randint(0, MAX_VALUE) for _ in range(m)]
    values = tuple([0, MAX_VALUE] + draws)[:m]
    total = sum(values)
    valuations = [Additive(values)] + [
        CappedAdditive(values, cap)
        for cap in (0, 1, min(total // 2, MAX_VALUE), MAX_VALUE)
    ]
    if m <= 9:
        masks = range(1 << m)
    else:
        masks = [rng.getrandbits(m) for _ in range(2000)] + [0, (1 << m) - 1]
    for v in valuations:
        cap = getattr(v, "cap", None)
        for mask in masks:
            want = _bit_loop(values, mask)
            if cap is not None:
                want = min(want, cap)
            assert v.value_of(mask) == want, (v, mask)
        with pytest.raises(IndexError):
            v.value_of(1 << m)
        # One tuple per 8 items, never a table over all subsets.
        assert [len(chunk) for chunk in v._chunks] == [
            1 << min(8, m - start) for start in range(0, m, 8)
        ]


def test_value_lookup_stays_out_of_identity():
    # Chunk sums, share results and envy thresholds live in the valuation's
    # own dict, outside its equality, hash, repr, pickled fields and JSON.
    from rmms import fairness
    from rmms.shares import mms, rmms

    values = (0, 5, MAX_VALUE, 3, 1, 0, 7, 2, 9)
    table = tuple(min(bin(mask).count("1"), 3) for mask in range(1 << 9))
    for make in (lambda: Additive(values), lambda: CappedAdditive(values, 12),
                 lambda: Table(table)):
        built, fresh = make(), make()
        built.value_of(0b101010101)
        for share in (mms, rmms):
            share(built, Bundle((1 << 9) - 1), 3)
        pair = Instance(9, 2, (built, built))
        for split in (0b1, 0b11010, 0b101010101, 0b111111110):
            fairness.certificate(pair, PartialAllocation(
                9, Bundle(), (Bundle(split), Bundle(split ^ 0b111111111))))
        kept = {"_shares", "_envy"} | (
            {"_chunks"} if built.kind != "table" else set())
        assert set(vars(built)) - set(vars(fresh)) == kept
        copies = [fresh, pickle.loads(pickle.dumps(built)),
                  pickle.loads(pickle.dumps(fresh))]
        for other in copies:
            assert built == other
            assert hash(built) == hash(other)
            assert repr(built) == repr(other)
            assert other.value_of(0b101010101) == built.value_of(0b101010101)
        assert instance_to_json(Instance(9, 1, (built,))) == instance_to_json(
            Instance(9, 1, (fresh,)))
