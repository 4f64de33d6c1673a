"""Core data model: bundles, valuations, instances, allocations, query ledgers.

Items are indexed 0..m-1 and bundles are bit masks over those indices, so
disjointness tests, unions and subset enumeration are single integer ops.
All values are non-negative integers; exact solvers elsewhere in the
package rely on that (no floating point anywhere in the library). Integer
fields are checked with ``type(x) is int``, which rejects bools and floats.

Additive and capped valuations answer a point query v(S) with one table
lookup per 8 items. Each chunk of 8 items keeps the 256 subset sums of its
items, indexed by the chunk's byte of the mask, so v(S) is the sum of one
entry per byte of S. Integer sums are exact, and the tables hold at most
3 * 256 entries at ``MAX_EXACT_ITEMS`` = 20, never one per subset. They are
built on first use and are not fields: equality, hashing, ``repr`` and the
JSON form see only the item values.

State derived from a valuation elsewhere lives the same way, in the
valuation's own ``__dict__``: by identity, as long as the valuation lives,
and outside its equality, hash, ``repr`` and JSON form. ``_kept(v, name)``
is the one way in, one dict per name: ``shares`` keeps its results under
``"_shares"``, and ``fairness`` its envy thresholds under ``"_envy"``, one
entry per non-empty bundle asked about, so at most 2^m - 1.

Every per-item pass over an array indexed by all 2^m masks (the table
checks here, the search records and transforms of ``shares``) takes its
views from ``_item_pairs``, the one owner of that layout, or from
``_bit_views``, built on it. ``_subset_sums`` builds every subset-sum
array: the generator's additive base, the record's weight sums and the
popcounts.

The counted queries ``value_query`` and ``compare_query`` check that their
bundles lie inside the valuation's items and then charge the ledger through
``_value`` and ``_compare``. The share-threshold algorithm calls ``_value``
directly on the raw masks of allocations already validated against the
instance; the EFL completion charges its comparisons itself (see
``algorithms``).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

# Exact solvers enumerate 2^m subsets; beyond this the table representation
# and the share solvers refuse to run.
MAX_EXACT_ITEMS = 20
# Item values are capped so that sums over MAX_EXACT_ITEMS items fit
# comfortably in 64 bits.
MAX_VALUE = 2 ** 31


class MalformedBundleError(ValueError):
    """A bundle references item indices outside [0, m)."""


class CapExceededError(RuntimeError):
    """An exact solver was asked for more enumeration than it supports."""


class PreconditionError(ValueError):
    """An algorithm precondition (e.g. input allocation is EFL) failed."""


class InvariantError(RuntimeError):
    """An algorithm invariant failed: a bug, not bad input.

    Raised instead of ``assert`` so the check survives ``python -O``.
    """


def bits_of(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def submasks(mask: int) -> Iterator[int]:
    """Yield every submask of ``mask`` in ascending numeric order."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def _item_pairs(a: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """For each item i = 0, 1, ..., m - 1 in turn, the pair (masks holding
    i, the same masks without i) as views of ``a``, a contiguous 1-D array
    over all 2^m masks: in ``a.reshape(-1, 2, 1 << i)`` the masks holding i
    sit at [:, 1] and the same masks without i at [:, 0], in ascending mask
    order. Writing into a view writes into ``a``."""
    for i in range(a.size.bit_length() - 1):
        pairs = a.reshape(-1, 2, 1 << i)
        yield pairs[:, 1], pairs[:, 0]


def _subset_sums(weights: Sequence, dtype=np.int64) -> np.ndarray:
    """The sum of ``weights[j]`` over the items j of every mask, over all
    2^len(weights) masks, in ``dtype``. Item i doubles the array: masks
    2^i to 2^(i + 1) - 1 are masks 0 to 2^i - 1 with item i added. Two
    whole-array calls per item take half the time of a pair-view pass."""
    sums = np.zeros(1, dtype=dtype)
    for weight in weights:
        sums = np.concatenate((sums, sums + weight))
    return sums


def _bit_views(a: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The ``_item_pairs`` of ``a`` made once, for passes run many times.
    Items 0 to 2 get one 1-D strided pair per residue mod 2^(i + 1)
    instead: as pair views their inner length of 1, 2 or 4 makes a pass
    several times dearer than a long one."""
    views = []
    for i, pair in enumerate(_item_pairs(a)):
        if i < 3:
            step = 2 << i
            views += [(a[r + (1 << i)::step], a[r::step])
                      for r in range(1 << i)]
        else:
            views.append(pair)
    return views


@dataclass(frozen=True, order=True)
class Bundle:
    """An item subset, encoded as a bit mask (item j <-> bit j)."""

    mask: int = 0

    def __post_init__(self):
        if self.mask < 0:
            raise MalformedBundleError("bundle mask must be non-negative")

    @classmethod
    def from_items(cls, items: Iterable[int]) -> "Bundle":
        mask = 0
        for e in items:
            if e < 0:
                raise MalformedBundleError(f"negative item index {e}")
            mask |= 1 << e
        return cls(mask)

    def items(self) -> list[int]:
        return list(bits_of(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, item: int) -> bool:
        return item >= 0 and (self.mask >> item) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return bits_of(self.mask)

    def __bool__(self) -> bool:
        return self.mask != 0

    def union(self, other: "Bundle") -> "Bundle":
        return Bundle(self.mask | other.mask)

    def difference(self, other: "Bundle") -> "Bundle":
        return Bundle(self.mask & ~other.mask)

    def remove(self, item: int) -> "Bundle":
        if item not in self:
            raise MalformedBundleError(f"item {item} not in bundle")
        return Bundle(self.mask ^ (1 << item))

    def add(self, item: int) -> "Bundle":
        return Bundle(self.mask | (1 << item))

    def isdisjoint(self, other: "Bundle") -> bool:
        return self.mask & other.mask == 0

    def issubset(self, other: "Bundle") -> bool:
        return self.mask & ~other.mask == 0


EMPTY_BUNDLE = Bundle(0)


def _check_cap(m: int, subject: str) -> None:
    """Refuse ``m`` items past ``MAX_EXACT_ITEMS``; ``subject`` names what
    refuses them, as in "table valuations" or "exact share solvers"."""
    if m > MAX_EXACT_ITEMS:
        raise CapExceededError(
            f"{subject} support at most {MAX_EXACT_ITEMS} items, got {m}")


def _check_agent(agent: Optional[int], n: int) -> None:
    """Refuse an agent index outside [0, n); None names no agent."""
    if agent is not None and not 0 <= agent < n:
        raise ValueError(f"agent must lie in [0, {n}), got agent={agent}")


def _kept(v: Valuation, name: str) -> dict:
    """The dict kept under ``name`` in v's own ``__dict__`` (see the module
    docstring), made empty on first use."""
    return vars(v).setdefault(name, {})


@dataclass(frozen=True)
class _ItemValues:
    """Per-item values and their chunk sums, shared by the additive classes:
    v(S) is the sum of the values of the items of S."""

    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        problems = self._problems()
        if problems:
            raise ValueError("; ".join(problems))

    def _problems(self) -> list[str]:
        problems = []
        for j, val in enumerate(self.values):
            if type(val) is not int:
                problems.append(f"item {j}: value {val!r} is not an integer")
            elif val < 0:
                problems.append(f"item {j}: negative value {val}")
            elif val > MAX_VALUE:
                problems.append(f"item {j}: value {val} exceeds cap {MAX_VALUE}")
        return problems

    @property
    def m(self) -> int:
        return len(self.values)

    @cached_property
    def _chunks(self) -> tuple[tuple[int, ...], ...]:
        """Per chunk of 8 items, the subset sums of its items, indexed by
        the chunk's byte of a mask: at most 256 entries per chunk."""
        chunks = []
        for start in range(0, len(self.values), 8):
            sums = [0]
            for value in self.values[start:start + 8]:
                sums += [s + value for s in sums]
            chunks.append(tuple(sums))
        return tuple(chunks)

    def value_of(self, mask: int) -> int:
        """The sum of the items of mask: one lookup in the chunk sums per
        byte of the mask (see the module docstring). A bit beyond the items
        raises IndexError."""
        chunks = self._chunks
        total = i = 0
        while mask:
            total += chunks[i][mask & 255]
            mask >>= 8
            i += 1
        return total


@dataclass(frozen=True)
class Additive(_ItemValues):
    """Additive valuation: v(S) = sum of per-item values."""

    kind = "additive"


@dataclass(frozen=True)
class CappedAdditive(_ItemValues):
    """Additive valuation truncated at a cap: v(S) = min(sum, cap).

    Subadditive for any non-negative values and cap.
    """

    cap: int
    kind = "capped_additive"

    def _problems(self) -> list[str]:
        problems = super()._problems()
        if type(self.cap) is not int:
            problems.append(f"cap {self.cap!r} is not an integer")
        elif self.cap < 0 or self.cap > MAX_VALUE:
            problems.append(f"cap {self.cap} outside [0, {MAX_VALUE}]")
        return problems

    def value_of(self, mask: int) -> int:
        """min(sum, cap)."""
        total = _ItemValues.value_of(self, mask)
        return total if total < self.cap else self.cap


def table_violations(values: tuple[int, ...]) -> list[str]:
    """All normalization/monotonicity/range violations of an explicit table,
    mask by mask: the range first, then each item's one-smaller subset.
    The first value that is not an integer ends the list."""
    size = len(values)
    m = size.bit_length() - 1
    problems = []
    if size == 0 or size != 1 << m:
        return [f"table length {size} is not a power of two"]
    if values[0] != 0:
        problems.append(f"not normalized: v(empty) = {values[0]}")
    # Types and ranges in Python, before any int64 conversion. A non-integer
    # stops the checks there: every smaller mask, and so every subset of
    # a smaller mask, is checked first. One pass over the types and min/max
    # accept the usual table, all ints in range, without the scans by mask.
    if (set(map(type, values)) == {int}
            and min(values) >= 0 and max(values) <= MAX_VALUE):
        end, checked, found = size, values, []
    else:
        end = next((mask for mask, val in enumerate(values)
                    if type(val) is not int), size)
        checked = list(values[:end])
        # (mask, i, message): i = -1 for the range, the item for monotonicity.
        found = [(mask, -1, f"subset {mask}: value {val} outside [0, {MAX_VALUE}]")
                 for mask, val in enumerate(checked)
                 if val < 0 or val > MAX_VALUE]
    # Masks from `end` on are padding: a violation at a mask below `end`
    # compares it only with smaller masks.
    table = np.zeros(size, dtype=object if found else np.int64)
    table[:end] = checked
    pairs = zip(_item_pairs(table), _item_pairs(np.arange(size)))
    for i, ((with_item, without), (masks, _)) in enumerate(pairs):
        drops = masks[without > with_item]
        for mask in drops[drops < end].tolist():
            smaller = mask ^ (1 << i)
            found.append((mask, i, (
                f"not monotone: v({sorted(bits_of(smaller))}) = "
                f"{values[smaller]} > {values[mask]} = v({sorted(bits_of(mask))})")))
    problems += [message for _, _, message in sorted(found)]
    if end < size:
        problems.append(f"subset {end}: value {values[end]!r} is not an integer")
    return problems


@dataclass(frozen=True)
class Table:
    """Explicit valuation: one integer per subset, indexed by bit mask.

    Validated exhaustively at construction; pass ``validate=False`` only to
    build deliberately broken tables for ``validate_instance`` to report on.
    """

    values: tuple[int, ...]
    validate: bool = field(default=True, compare=False, repr=False)
    kind = "table"

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        size = len(self.values)
        m = size.bit_length() - 1
        if size == 0 or size != 1 << m:
            raise ValueError(f"table length {size} is not a power of two")
        _check_cap(m, "table valuations")
        if self.validate:
            problems = table_violations(self.values)
            if problems:
                raise ValueError("; ".join(problems[:5]))

    @property
    def m(self) -> int:
        return len(self.values).bit_length() - 1

    def value_of(self, mask: int) -> int:
        return self.values[mask]


Valuation = Union[Additive, CappedAdditive, Table]


@dataclass(frozen=True)
class Instance:
    """An allocation instance: m items and n agents with valuations over them."""

    m: int
    n: int
    valuations: tuple[Valuation, ...]

    def __post_init__(self):
        object.__setattr__(self, "valuations", tuple(self.valuations))
        for name, value in (("m", self.m), ("n", self.n)):
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.m < 1:
            raise ValueError(f"need at least one item, got m={self.m}")
        if self.n < 1:
            raise ValueError(f"need at least one agent, got n={self.n}")
        if len(self.valuations) != self.n:
            raise ValueError(
                f"expected {self.n} valuations, got {len(self.valuations)}"
            )
        for i, v in enumerate(self.valuations):
            if v.m != self.m:
                raise ValueError(
                    f"valuation {i} covers {v.m} items, instance has {self.m}"
                )

    @property
    def all_items(self) -> Bundle:
        return Bundle((1 << self.m) - 1)


@dataclass(frozen=True)
class PartialAllocation:
    """Disjoint bundles pool, bundles[0..n-1] covering all m items.

    The pool holds the unallocated items; a full allocation has an empty pool.
    """

    m: int
    pool: Bundle
    bundles: tuple[Bundle, ...]

    def __post_init__(self):
        object.__setattr__(self, "bundles", tuple(self.bundles))
        full = (1 << self.m) - 1
        union = overlap = 0
        for b in (self.pool, *self.bundles):
            mask = b.mask
            if mask & ~full:
                raise MalformedBundleError(
                    f"bundle {b.items()} outside item range [0, {self.m})"
                )
            overlap |= union & mask
            union |= mask
        if union != full or overlap:
            raise ValueError("pool and bundles must partition the item set")

    @classmethod
    def _unchecked(
        cls, m: int, pool: Bundle, bundles: tuple[Bundle, ...]
    ) -> "PartialAllocation":
        """The allocation of ``pool`` and the tuple ``bundles``, built
        without the partition check: only for callers whose bundles
        partition the m items by construction."""
        alloc = object.__new__(cls)
        # A frozen dataclass refuses attribute assignment, not its __dict__.
        alloc.__dict__.update(m=m, pool=pool, bundles=bundles)
        return alloc

    @classmethod
    def empty(cls, m: int, n: int) -> "PartialAllocation":
        return cls(m, Bundle((1 << m) - 1), tuple(EMPTY_BUNDLE for _ in range(n)))

    @property
    def n(self) -> int:
        return len(self.bundles)

    @property
    def is_full(self) -> bool:
        return self.pool.mask == 0


def _check_shape(inst: Instance, alloc: PartialAllocation) -> None:
    """Refuse an allocation whose item count or bundle count is not the
    instance's."""
    if alloc.m != inst.m or len(alloc.bundles) != inst.n:
        raise ValueError("allocation does not match instance shape")


@dataclass
class QueryLedger:
    """Per-run counters for value and comparison oracle queries."""

    value_queries: int = 0
    comparison_queries: int = 0


def _check_range(v: Valuation, bundle: Bundle) -> None:
    if bundle.mask >> v.m:
        raise MalformedBundleError(
            f"bundle {bundle.items()} outside item range [0, {v.m})"
        )


def _value(v: Valuation, mask: int, ledger: QueryLedger) -> int:
    """v(mask), charged to the ledger as a value query. The mask must lie
    inside v's items."""
    ledger.value_queries += 1
    return v.value_of(mask)


def _compare(v: Valuation, s: int, t: int, ledger: QueryLedger) -> bool:
    """v(s) >= v(t), charged to the ledger as a comparison query. The masks
    must lie inside v's items."""
    ledger.comparison_queries += 1
    return v.value_of(s) >= v.value_of(t)


def value_query(v: Valuation, S: Bundle, ledger: QueryLedger) -> int:
    """Answer a value query v(S) and charge it to the ledger."""
    _check_range(v, S)
    return _value(v, S.mask, ledger)


def compare_query(v: Valuation, S: Bundle, T: Bundle, ledger: QueryLedger) -> bool:
    """Answer a comparison query v(S) >= v(T) and charge it to the ledger."""
    _check_range(v, S)
    _check_range(v, T)
    return _compare(v, S.mask, T.mask, ledger)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[dict, ...]


def validate_instance(inst: Instance) -> ValidationReport:
    """Report every valuation invariant violated by ``inst``.

    Additive and capped-additive valuations are checked by their
    constructors and are monotone and normalized by construction; tables are
    checked exhaustively here (they may have been built unvalidated, e.g.
    straight from a file).
    """
    violations: list[dict] = []
    for i, v in enumerate(inst.valuations):
        if isinstance(v, Table):
            for problem in table_violations(v.values):
                violations.append({"agent": i, "problem": problem})
    return ValidationReport(not violations, tuple(violations))


# ---------------------------------------------------------------------------
# JSON wire formats (bit-exact contract, see README)

def valuation_to_json(v: Valuation) -> dict:
    if isinstance(v, Additive):
        return {"kind": "additive", "values": list(v.values)}
    if isinstance(v, CappedAdditive):
        return {"kind": "capped_additive", "values": list(v.values), "cap": v.cap}
    if isinstance(v, Table):
        return {"kind": "table", "values": list(v.values)}
    raise TypeError(f"unknown valuation type {type(v)!r}")


def _json_key(d, key: str):
    """``d[key]`` of a JSON object, or a ValueError naming what is
    missing."""
    if not isinstance(d, dict):
        raise ValueError(f"expected a JSON object, got {type(d).__name__}")
    if key not in d:
        raise ValueError(f"missing key {key!r}")
    return d[key]


def _json_list(d, key: str) -> list:
    """``d[key]``, checked to be a list inside a JSON object."""
    value = _json_key(d, key)
    if not isinstance(value, list):
        raise ValueError(f"{key!r} must be a JSON list, got {type(value).__name__}")
    return value


def valuation_from_json(d: dict, validate: bool = True) -> Valuation:
    values = tuple(_json_list(d, "values"))
    kind = d.get("kind")
    if kind == "additive":
        return Additive(values)
    if kind == "capped_additive":
        return CappedAdditive(values, _json_key(d, "cap"))
    if kind == "table":
        return Table(values, validate=validate)
    raise ValueError(f"unknown valuation kind {kind!r}")


def instance_to_json(inst: Instance) -> dict:
    return {
        "m": inst.m,
        "n": inst.n,
        "valuations": [valuation_to_json(v) for v in inst.valuations],
    }


def instance_from_json(d: dict, validate: bool = True) -> Instance:
    valuations = _json_list(d, "valuations")
    return Instance(
        m=_json_key(d, "m"),
        n=_json_key(d, "n"),
        valuations=tuple(valuation_from_json(v, validate) for v in valuations),
    )


def allocation_to_json(alloc: PartialAllocation) -> dict:
    return {
        "pool": alloc.pool.items(),
        "bundles": [b.items() for b in alloc.bundles],
    }


def _bundle_from_json(items, m: int) -> Bundle:
    if not isinstance(items, list):
        raise ValueError(f"a bundle must be a JSON list, got {type(items).__name__}")
    for e in items:
        if type(e) is not int or not 0 <= e < m:
            raise MalformedBundleError(f"item {e!r} is not an integer in [0, {m})")
    bundle = Bundle.from_items(items)
    if len(bundle) != len(items):
        raise MalformedBundleError(f"bundle {items} lists an item twice")
    return bundle


def allocation_from_json(d: dict, m: int) -> PartialAllocation:
    bundles = _json_list(d, "bundles")
    return PartialAllocation(
        m,
        _bundle_from_json(_json_key(d, "pool"), m),
        tuple(_bundle_from_json(b, m) for b in bundles),
    )


def _write_json(obj, fh) -> None:
    """The one JSON output format: two-space indents and a final newline."""
    json.dump(obj, fh, indent=2)
    fh.write("\n")


def dump_json(obj: dict, path) -> None:
    with open(path, "w") as fh:
        _write_json(obj, fh)


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
