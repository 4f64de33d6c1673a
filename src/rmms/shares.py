"""Exact share computation: MMS, MXS, and the residual maximin share.

All solvers enumerate subsets (2^m) and are intentionally exponential;
``core.MAX_EXACT_ITEMS`` bounds what they accept. Searches are anchored on
the lowest item index throughout, so every witness is deterministic.

Two searches and one lattice kernel do the work.

- **pack** (``_packer``): split a mask into q parts, each worth >= t. The
  family is upward-closed. ``acceptable_partition``, MMS and the residual
  check all use it. A packer serves one threshold, so the residual check,
  which asks about many remainders at the same t, never searches a failed
  state twice. Failure is inherited by subsets: a mask with no q-partition
  has no subset with one.
- **cover** (``_coverer``): split a mask into at most q parts P with
  weights[P] <= bound. The family is downward-closed, so failure is
  inherited by supersets. MXS uses it for the other agents' bundles (parts
  the agent does not EFX-envy), with weights g(P), the most the agent
  values P minus one item, computed once per agent.
- **cover ladder** (``_cover_ladder``): the same question as cover for
  every mask at once. For a downward-closed family over all 2^m masks it
  yields, for k = 1, 2, ..., the masks that are unions of at most k
  members, each step one zeta/Moebius cover product
  (Bjorklund-Husfeldt-Koivisto). The residual check uses it for the
  removals: parts inside S worth < t, that is <= t - 1. MXS uses it from
  ``MXS_LADDER_ITEMS`` items up.

Both searches scan the same way and remember every (mask, q) state that
failed for their lifetime. Both also fail a state without a search when a
state one item away has already failed and the family's closure passes
that failure on.

MXS is the least t = v(own) at which the complement of own splits into
n - 1 parts with g <= t. Below ``MXS_LADDER_ITEMS`` items it runs one cover
search per own bundle in (value, mask) order. From there up it works over
the distinct values t of v. With C_t, rung n - 1 of the ladder of
{P : g(P) <= t}, it bisects for the least t at which some X in C_t has
v(full ^ X) <= t. That predicate grows with t, as C_t does. Any t with an
exact hit, some X in C_t with v(full ^ X) == t, satisfies it, so its least
t is an exact lower bound on MXS. It can be lower than MXS: the own
bundle that satisfies it may be worth less than t, and its complement need
not split at that lower value. A scan upward from the bound then takes the
first t with an exact hit, and the lowest own bundle among the hits. One
cover search for that own bundle gives the other bundles, so both paths
give the same witness.

The residual check tests each removal R only at its binding k, the fewest
parts worth < t that R splits into: the masks in rung k of the ladder and
not in rung k - 1. This is exact. If S minus R splits into n - k0 parts
worth >= t, merging parts gives a split into n - k parts for every
k >= k0, so a larger k fails only where k0 already fails. The first failing
(k, R) in (k ascending, R ascending) order is therefore the same as in a
scan of every k.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, partial
from itertools import groupby, islice
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    MAX_EXACT_ITEMS,
    Bundle,
    CapExceededError,
    Instance,
    InvariantError,
    Valuation,
)


@dataclass(frozen=True)
class ShareReport:
    """A computed share value plus an audit witness.

    For MMS and RMMS the witness is a partition attaining the value (for
    RMMS, the no-removals case). For MXS it is a witness allocation with the
    agent's bundle in her own slot.
    """

    share_kind: str
    value: int
    witness: Optional[tuple[Bundle, ...]]
    agent: Optional[int]
    n_effective: int


class ResidualCheck(NamedTuple):
    feasible: bool
    k: Optional[int] = None
    removed: Optional[Bundle] = None


def _check_caps(v: Valuation) -> None:
    if v.m > MAX_EXACT_ITEMS:
        raise CapExceededError(
            f"exact share solvers support at most {MAX_EXACT_ITEMS} items, got {v.m}"
        )


@lru_cache(maxsize=4096)
def _value_table(v: Valuation) -> tuple[int, ...]:
    """v(S) for every mask, built by one DP pass over submask order."""
    m = v.m
    if v.kind == "table":
        return tuple(v.values)
    table = [0] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        table[mask] = table[mask ^ low] + v.values[low.bit_length() - 1]
    if v.kind == "capped_additive":
        cap = v.cap
        table = [val if val < cap else cap for val in table]
    return tuple(table)


@lru_cache(maxsize=1)
def _value_array(v: Valuation) -> np.ndarray:
    """``_value_table(v)`` as an int64 array, read-only.

    The residual check, the candidate values and MXS read it. One entry is
    enough: callers ask about one agent many times in a row (the residual
    checks of its thresholds, for one), so the array is rebuilt only when
    the agent changes.
    """
    values = np.array(_value_table(v), dtype=np.int64)
    values.flags.writeable = False
    return values


@lru_cache(maxsize=4096)
def _candidate_values(v: Valuation, smask: int) -> tuple[int, ...]:
    """Distinct subset values of smask, ascending. Always contains 0."""
    masks = np.arange(1 << v.m)
    values = np.sort(_value_array(v)[(masks | smask) == smask])
    # Values are >= 0, so the first one always differs from -1.
    return tuple(values[np.diff(values, prepend=-1) != 0].tolist())


def _packer(
    table: tuple[int, ...], t: int
) -> Callable[[int, int], Optional[list[int]]]:
    """The pack search at threshold t > 0.

    ``pack(mask, q)`` returns the first q-partition of ``mask`` into parts
    each worth >= t, as part masks, or None. Each part is anchored on the
    lowest remaining item and candidate parts are scanned in ascending mask
    order. Failed (mask, q) states are kept for the packer's lifetime; a
    state also fails, without a search, when the state with one more item
    did.
    """
    return partial(_pack, table, t, set())


# The pack and cover steps are module functions, not closures: a recursive
# closure refers to itself, so its memo would live until the cycle
# collector runs instead of going as soon as the search is dropped.
def _pack(
    table: tuple[int, ...], t: int, failed: set[tuple[int, int]],
    remaining: int, parts: int,
) -> Optional[list[int]]:
    if table[remaining] < t:
        return None  # monotone: no part inside `remaining` can reach t
    if parts == 1:
        return [remaining]
    if (remaining, parts) in failed:
        return None
    p = (len(table) - 1) ^ remaining
    while p:
        e = p & -p
        if (remaining | e, parts) in failed:
            failed.add((remaining, parts))
            return None
        p ^= e
    low = remaining & -remaining
    rest = remaining ^ low
    sub = 0
    while sub != rest:
        part = low | sub
        if table[part] >= t and table[remaining ^ part] >= t:
            tail = _pack(table, t, failed, remaining ^ part, parts - 1)
            if tail is not None:
                return [part] + tail
        sub = (sub - rest) & rest
    failed.add((remaining, parts))
    return None


def _coverer(
    weights: Sequence[int], bound: int
) -> Callable[[int, int], Optional[list[int]]]:
    """The cover search for the parts P with ``weights[P] <= bound``.

    ``cover(mask, q)`` returns the first split of ``mask`` into q parts from
    that family, as part masks, or None. Empty parts are allowed, so this
    asks for at most q non-empty parts. Each part is anchored on the lowest
    remaining item and candidate parts are scanned in ascending mask order.
    Failed (mask, q) states are kept for the coverer's lifetime; a state
    also fails, without a search, when the state with one item fewer did.
    ``weights`` must be monotone, so that the family is downward-closed.
    """
    return partial(_cover, weights, bound, set())


def _cover(
    weights: Sequence[int], bound: int, failed: set[tuple[int, int]],
    mask: int, parts: int,
) -> Optional[list[int]]:
    if mask == 0:
        return [0] * parts
    if parts == 1:
        return [mask] if weights[mask] <= bound else None
    if (mask, parts) in failed:
        return None
    p = mask
    while p:
        e = p & -p
        if (mask ^ e, parts) in failed:
            failed.add((mask, parts))
            return None
        p ^= e
    low = mask & -mask
    rest = mask ^ low
    sub = 0
    while True:
        part = low | sub
        if weights[part] <= bound:
            tail = _cover(weights, bound, failed, mask ^ part, parts - 1)
            if tail is not None:
                return [part] + tail
        if sub == rest:
            break
        sub = (sub - rest) & rest
    failed.add((mask, parts))
    return None


def _zeta(a: np.ndarray) -> np.ndarray:
    """In place: a[X] becomes the sum of a over the submasks of X."""
    for i in range(a.size.bit_length() - 1):
        pairs = a.reshape(-1, 2, 1 << i)
        pairs[:, 1] += pairs[:, 0]
    return a


def _moebius(a: np.ndarray) -> np.ndarray:
    """In place: the inverse of ``_zeta``."""
    for i in range(a.size.bit_length() - 1):
        pairs = a.reshape(-1, 2, 1 << i)
        pairs[:, 1] -= pairs[:, 0]
    return a


def _cover_ladder(family: np.ndarray) -> Iterator[np.ndarray]:
    """The cover search for every mask at once.

    ``family`` is a boolean array over all 2^m masks that marks a
    downward-closed family (so it holds the empty mask). Yields, for
    k = 1, 2, ..., as many rungs as the caller takes, the boolean array
    "X is a union of at most k members". As the family is downward-closed,
    that is "X splits into at most k members", the question ``_coverer``
    answers for one X. Rung 1 is the family; rung k + 1 is computed only
    when asked for, as the cover product
    ``moebius(zeta(rung k) * zeta(family)) > 0``.

    The arithmetic is exact in int64. A zeta value counts submasks, at most
    2^m, so a product is at most 4^m; each partial Moebius sum adds at most
    2^m such terms, so every intermediate value is at most
    8^m <= 2^60 at ``MAX_EXACT_ITEMS`` = 20.
    """
    yield family
    members = _zeta(family.astype(np.int64))
    counts = members  # zeta of rung 1
    while True:
        rung = _moebius(counts * members) > 0
        yield rung
        counts = _zeta(rung.astype(np.int64))


def _partition(
    table: tuple[int, ...], smask: int, q: int, t: int
) -> Optional[tuple[Bundle, ...]]:
    if t == 0:
        return (Bundle(smask),) + (Bundle(),) * (q - 1)
    parts = _packer(table, t)(smask, q)
    if parts is None:
        return None
    return tuple(Bundle(p) for p in parts)


def acceptable_partition(
    v: Valuation, S: Bundle, q: int, t: int
) -> Optional[tuple[Bundle, ...]]:
    """A q-partition of S with every part of value >= t, or None.

    Empty parts appear only at t = 0, where the partition (S, {}, ..., {})
    is returned directly. Deterministic: each part is anchored on the lowest
    remaining item and candidate parts are scanned in ascending mask order.
    """
    if q < 1:
        raise ValueError(f"need at least one part, got q={q}")
    if t < 0:
        raise ValueError(f"threshold must be non-negative, got t={t}")
    _check_caps(v)
    return _partition(_value_table(v), S.mask, q, t)


def _canonical(parts: tuple[Bundle, ...]) -> tuple[Bundle, ...]:
    return tuple(sorted(parts))


@lru_cache(maxsize=65536)
def _mms(v: Valuation, smask: int, n: int) -> ShareReport:
    table = _value_table(v)
    candidates = _candidate_values(v, smask)
    # Feasibility of an acceptable partition is downward closed in t.
    lo, hi = 0, len(candidates) - 1
    best = _partition(table, smask, n, candidates[0])
    best_idx = 0
    while lo < hi:
        mid = (lo + hi + 1) // 2
        parts = _partition(table, smask, n, candidates[mid])
        if parts is not None:
            lo = mid
            best, best_idx = parts, mid
        else:
            hi = mid - 1
    return ShareReport("MMS", candidates[best_idx], _canonical(best), None, n)


def mms(v: Valuation, S: Bundle, n: int, agent: Optional[int] = None) -> ShareReport:
    """Maximin share of S under v for n agents, with a witness partition."""
    if n < 1:
        raise ValueError(f"need at least one agent, got n={n}")
    _check_caps(v)
    return replace(_mms(v, S.mask, n), agent=agent)


def is_residual_feasible(v: Valuation, S: Bundle, n: int, t: int) -> ResidualCheck:
    """Check residual feasibility of threshold t for (v, S, n).

    True iff for every k in [0, n) and every removed set R that splits into
    k disjoint bundles each of value < t, the remainder has an (n-k)-partition
    with all parts >= t. On failure, the first offending (k, R) in (k
    ascending, R ascending) order comes back as a counterexample.
    """
    if n < 1:
        raise ValueError(f"need at least one agent, got n={n}")
    if t < 0:
        raise ValueError(f"threshold must be non-negative, got t={t}")
    _check_caps(v)
    if t == 0:
        # (S, {}, ..., {}) is acceptable, and no bundle has value < 0, so no
        # removals qualify for any k >= 1.
        return ResidualCheck(True)
    table = _value_table(v)
    smask = S.mask
    pack = _packer(table, t)
    if pack(smask, n) is None:
        return ResidualCheck(False, 0, Bundle())
    # The removals split into parts inside S worth < t, that is <= t - 1:
    # values are integers. Rung k minus rung k - 1 holds the removals whose
    # binding k is k; rung 0 is R = 0 alone, checked above.
    values = _value_array(v)
    masks = np.arange(values.size)
    low = (values <= t - 1) & ((masks | smask) == smask)
    fewer = masks == 0
    for k, rung in zip(range(1, n), _cover_ladder(low)):
        for R in np.flatnonzero(rung & ~fewer).tolist():
            if pack(smask ^ R, n - k) is None:
                return ResidualCheck(False, k, Bundle(R))
        fewer = rung
    return ResidualCheck(True)


@lru_cache(maxsize=65536)
def _rmms(v: Valuation, smask: int, n: int) -> ShareReport:
    S = Bundle(smask)
    ceiling = _mms(v, smask, n).value
    candidates = [c for c in _candidate_values(v, smask) if c <= ceiling]
    # Feasibility is monotone in t: for t' < t, every removal that qualifies
    # at t' (parts worth < t') also qualifies at t, and a pack at t is also a
    # pack at t'. So the first feasible candidate in descending order is the
    # maximum. The scan stays descending rather than bisecting: RMMS is
    # usually at or just below MMS, so few thresholds are visited, and an
    # infeasible one stops at its first failing removal where a feasible
    # one checks every removal.
    for t in reversed(candidates):
        if is_residual_feasible(v, S, n, t).feasible:
            witness = _partition(_value_table(v), smask, n, t)
            return ShareReport("RMMS", t, _canonical(witness), None, n)
    raise InvariantError("t = 0 is always residual feasible")


def rmms(v: Valuation, S: Bundle, n: int, agent: Optional[int] = None) -> ShareReport:
    """Residual maximin share: the largest residual-feasible threshold.

    The optimum is attained at a subset value because feasibility only
    depends on t through comparisons against subset values, so scanning the
    distinct subset values suffices.
    """
    if n < 1:
        raise ValueError(f"need at least one agent, got n={n}")
    _check_caps(v)
    return replace(_rmms(v, S.mask, n), agent=agent)


MXS_MAX_ITEMS = 16
# MXS scans thresholds on the cover ladder from this many items up. Below
# it the cover searches are cheaper. All agents of 24 generated instances
# (n 3-4, every kind), CPU s, cover against ladder: 0.085 against 0.113 at
# m = 9, 0.211 against 0.111 at m = 10.
MXS_LADDER_ITEMS = 10


def _mxs_cover(v: Valuation, g: np.ndarray, n: int) -> tuple[int, int, list[int]]:
    """(MXS, own bundle, the other n - 1 bundles) by one cover search per
    own bundle, in (value, mask) order."""
    table = _value_table(v)
    full = len(table) - 1
    weights = g.tolist()
    # The cover search depends only on the own bundle's value, so one
    # coverer serves all own bundles of that value.
    order = np.argsort(_value_array(v), kind="stable").tolist()
    for value, owns in groupby(order, key=table.__getitem__):
        cover = _coverer(weights, value)
        for own in owns:
            others = cover(full ^ own, n - 1)
            if others is not None:
                return value, own, others
    raise InvariantError("own = all items always admits an envy-free remainder")


def _mxs_ladder(v: Valuation, g: np.ndarray, n: int) -> tuple[int, int, list[int]]:
    """(MXS, own bundle, the other n - 1 bundles) by a scan over thresholds
    on the cover ladder; the same result as ``_mxs_cover``."""
    values = _value_array(v)
    full = values.size - 1
    own_value = values[::-1]  # own_value[X] = v(full ^ X)
    # Every X splits into its singletons, worth g = 0 and so never envied:
    # rung m holds every mask, and no rung above it is needed.
    k = min(n - 1, full.bit_length())

    @lru_cache(maxsize=None)
    def coverable(t: int) -> np.ndarray:
        """X splits into at most n - 1 parts the agent does not envy at t."""
        return next(islice(_cover_ladder(g <= t), k - 1, None))

    candidates = _candidate_values(v, full)
    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        t = candidates[mid]
        if (coverable(t) & (own_value <= t)).any():
            hi = mid
        else:
            lo = mid + 1
    for t in candidates[lo:]:
        hits = np.flatnonzero(coverable(t) & (own_value == t))
        if hits.size:
            own = full ^ int(hits[-1])
            return t, own, _coverer(g.tolist(), t)(full ^ own, n - 1)
    raise InvariantError("own = all items always admits an envy-free remainder")


def mxs(inst: Instance, agent: int) -> ShareReport:
    """Minimum EFX share: cheapest own bundle in some full allocation in
    which the agent has no EFX envy toward anyone.

    Quantifies over full allocations, so with a single agent the only
    allocation hands her everything.
    """
    n, m = inst.n, inst.m
    v = inst.valuations[agent]
    _check_caps(v)
    full = (1 << m) - 1
    if n == 1:
        return ShareReport("MXS", v.value_of(full), (Bundle(full),), agent, 1)
    if m > MXS_MAX_ITEMS:
        raise CapExceededError(
            f"mxs supports at most {MXS_MAX_ITEMS} items, got {m}"
        )

    # g[P] is the most the agent values P with one item taken out, so she
    # has no EFX envy toward P iff g[P] <= v(own).
    # One pass per item i: in the pair view, P holding i sits at [:, 1] and
    # P without i at [:, 0].
    values = _value_array(v)
    g = np.zeros_like(values)
    for i in range(m):
        with_item = g.reshape(-1, 2, 1 << i)[:, 1]
        np.maximum(with_item, values.reshape(-1, 2, 1 << i)[:, 0], out=with_item)

    # Split the complement of the own bundle into n-1 bundles none of which
    # the agent EFX-envies. "Not envied" is downward-closed because g is
    # monotone, so empty parts are fine.
    search = _mxs_ladder if m >= MXS_LADDER_ITEMS else _mxs_cover
    value, own, others = search(v, g, n)
    bundles = others[:agent] + [own] + others[agent:]
    return ShareReport("MXS", value, tuple(Bundle(b) for b in bundles), agent, n)


def ratio_bound(n: int, valuation_class: str) -> Fraction:
    """Guaranteed RMMS/MMS lower bound ratio, as an exact rational."""
    if n < 1:
        raise ValueError(f"need at least one agent, got n={n}")
    if valuation_class == "subadditive":
        return Fraction(1, n)
    if valuation_class == "additive":
        if n == 1:
            return Fraction(1)
        if n % 2 == 1:
            return Fraction(2 * n, 3 * n - 1)
        return Fraction(2 * n - 2, 3 * n - 4)
    raise ValueError(f"unknown valuation class {valuation_class!r}")
