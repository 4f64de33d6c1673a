"""Naive enumerators and share-property checkers.

Everything here deliberately re-derives results from first principles,
sharing no search code with the exact solvers: the point is to cross-check
them. Caps are tight (the recursions are unmemoized on purpose) and
exceeding them raises rather than silently degrading.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from operator import or_
from typing import Callable, Iterator, Optional

from .core import (
    EMPTY_BUNDLE,
    Bundle,
    CapExceededError,
    Instance,
    InvariantError,
    PartialAllocation,
    Valuation,
    bits_of,
    instance_to_json,
)
from . import shares as _shares

ENUMERATION_CAP = 2 ** 24
BRUTE_MAX_ITEMS = 10
BRUTE_MAX_AGENTS = 4

ShareFn = Callable[[Valuation, Bundle, int], int]


class _Bundles(dict):
    """One shared ``Bundle`` per mask, made on first use."""

    def __missing__(self, mask: int) -> Bundle:
        bundle = self[mask] = Bundle(mask)
        return bundle


def _slot_masks(items: range, base: int) -> Iterator[tuple[int, ...]]:
    """The mask of each of ``base`` slots, for every assignment of
    ``items`` to slots in lexicographic order."""
    for assignment in itertools.product(range(base), repeat=len(items)):
        masks = [0] * base
        for item, slot in zip(items, assignment):
            masks[slot] |= 1 << item
        yield tuple(masks)


def enumerate_allocations(
    inst: Instance, partial: bool
) -> Iterator[PartialAllocation]:
    """Every assignment of items to agents (and pool if partial), exactly
    once, in lexicographic assignment order.

    The slots are the pool (if partial) and then the agents' bundles. The
    slot masks of every assignment of the last m - m // 2 items are listed
    once; each assignment of the first m // 2 items, in turn, is OR-ed with
    each of them. Bundles with the same mask are one shared ``Bundle``,
    looked up by mask in a dict kept for one assignment of the first items,
    so it holds at most base * 2^(m - m // 2) of them. One dict for the whole
    enumeration would grow to a ``Bundle`` per subset: at n = 2, m = 20 its
    peak RSS was 198 MB, against 30 MB.
    """
    base = inst.n + 1 if partial else inst.n
    m = inst.m
    if base ** m > ENUMERATION_CAP:
        raise CapExceededError(
            f"allocation enumeration cap exceeded: {base}^{m}"
        )
    half = m // 2
    lows = list(_slot_masks(range(half, m), base))
    # Each assignment puts every item in exactly one slot, so the slots
    # partition the items and the partition check is skipped.
    unchecked = PartialAllocation._unchecked
    for high in _slot_masks(range(half), base):
        bundles = _Bundles()
        for low in lows:
            slots = tuple(map(bundles.__getitem__, map(or_, high, low)))
            if partial:
                yield unchecked(m, slots[0], slots[1:])
            else:
                yield unchecked(m, EMPTY_BUNDLE, slots)


def _check_brute_caps(m: int, n: int) -> None:
    if m > BRUTE_MAX_ITEMS or n > BRUTE_MAX_AGENTS:
        raise CapExceededError(
            f"brute oracle caps are m <= {BRUTE_MAX_ITEMS}, "
            f"n <= {BRUTE_MAX_AGENTS}; got m={m}, n={n}"
        )


def _values_naive(v: Valuation, smask: int) -> dict[int, int]:
    vals = {}
    sub = 0
    while True:
        vals[sub] = v.value_of(sub)
        if sub == smask:
            return vals
        sub = (sub - smask) & smask


def brute_mms(v: Valuation, S: Bundle, n: int) -> int:
    """MMS by scanning every assignment of S's items into n parts."""
    _check_brute_caps(v.m, n)
    if n < 1:
        raise ValueError("need at least one agent")
    items = S.items()
    best = 0
    for assignment in itertools.product(range(n), repeat=len(items)):
        parts = [0] * n
        for item, slot in zip(items, assignment):
            parts[slot] |= 1 << item
        worst = min(v.value_of(p) for p in parts)
        if worst > best:
            best = worst
    return best


def _naive_partition_exists(vals, mask: int, q: int, t: int) -> bool:
    # Anchor the lowest item, try every containing subset; no memoization.
    if vals[mask] < t:
        return False
    if q == 1:
        return True
    low = mask & -mask
    rest = mask ^ low
    sub = 0
    while True:
        part = low | sub
        if vals[part] >= t and _naive_partition_exists(vals, mask ^ part, q - 1, t):
            return True
        if sub == rest:
            return False
        sub = (sub - rest) & rest


def brute_rmms(v: Valuation, S: Bundle, n: int) -> int:
    """RMMS by direct enumeration of thresholds, removals, and partitions."""
    _check_brute_caps(v.m, n)
    if n < 1:
        raise ValueError("need at least one agent")
    vals = _values_naive(v, S.mask)
    candidates = sorted(set(vals.values()), reverse=True)

    def removals(avail: int, k: int, removed: int, out: set[int], t: int) -> None:
        # Ordered choices of k disjoint bundles each of value < t.
        if k == 0:
            out.add(removed)
            return
        sub = 0
        while True:
            if sub and v.value_of(sub) < t:
                removals(avail ^ sub, k - 1, removed | sub, out, t)
            if sub == avail:
                return
            sub = (sub - avail) & avail

    for t in candidates:
        feasible = True
        for k in range(n):
            removed_sets: set[int] = {0} if k == 0 else set()
            if k > 0:
                removals(S.mask, k, 0, removed_sets, t)
            for R in sorted(removed_sets):
                if not _naive_partition_exists(vals, S.mask ^ R, n - k, t):
                    feasible = False
                    break
            if not feasible:
                break
        if feasible:
            return t
    return 0


def brute_mxs(inst: Instance, agent: int) -> int:
    """MXS by scanning every full allocation and re-deriving EFX envy."""
    _check_brute_caps(inst.m, inst.n)
    v = inst.valuations[agent]
    best: Optional[int] = None
    for alloc in enumerate_allocations(inst, partial=False):
        own = alloc.bundles[agent].mask
        own_val = v.value_of(own)
        envious = False
        for j in range(inst.n):
            if j == agent:
                continue
            other = alloc.bundles[j].mask
            for e in bits_of(other):
                if own_val < v.value_of(other ^ (1 << e)):
                    envious = True
                    break
            if envious:
                break
        if not envious and (best is None or own_val < best):
            best = own_val
    if best is None:
        raise InvariantError("the all-items bundle is never EFX-envious")
    return best


def check_self_maximizing(
    share: ShareFn, v: Valuation, v_prime: Valuation, n: int
) -> tuple[bool, Optional[Bundle]]:
    """Is there a bundle feasible under the reported valuation whose true
    value does not exceed the truthful share? Witness on success."""
    if v.m != v_prime.m:
        raise ValueError("valuations must cover the same items")
    _check_brute_caps(v.m, n)
    s_true = share(v, Bundle((1 << v.m) - 1), n)
    s_reported = share(v_prime, Bundle((1 << v.m) - 1), n)
    for mask in range(1 << v.m):
        if v_prime.value_of(mask) >= s_reported and v.value_of(mask) <= s_true:
            return True, Bundle(mask)
    return False, None


def check_monotone_share(
    share: ShareFn, v: Valuation, v_prime: Valuation, n: int
) -> bool:
    """share(v) >= share(v') whenever v dominates v' pointwise."""
    if v.m != v_prime.m:
        raise ValueError("valuations must cover the same items")
    _check_brute_caps(v.m, n)
    for mask in range(1 << v.m):
        if v.value_of(mask) < v_prime.value_of(mask):
            raise ValueError("precondition violated: v does not dominate v'")
    full = Bundle((1 << v.m) - 1)
    return share(v, full, n) >= share(v_prime, full, n)


def check_lipschitz_share(
    share: ShareFn, v: Valuation, v_prime: Valuation, n: int, eps: int
) -> bool:
    """|share(v) - share(v')| <= eps whenever the valuations are eps-close."""
    if v.m != v_prime.m:
        raise ValueError("valuations must cover the same items")
    _check_brute_caps(v.m, n)
    for mask in range(1 << v.m):
        if abs(v.value_of(mask) - v_prime.value_of(mask)) > eps:
            raise ValueError("precondition violated: valuations are not eps-close")
    full = Bundle((1 << v.m) - 1)
    return abs(share(v, full, n) - share(v_prime, full, n)) <= eps


def exact_rmms_value(v: Valuation, S: Bundle, n: int) -> int:
    """The exact solver's RMMS value, in the shape share checkers expect."""
    return _shares.rmms(v, S, n).value


CHECK_NAMES = (
    "rmms_le_mms",
    "mxs_le_rmms",
    "additive_ratio",
    "subadditive_ratio",
    "shares_agreement",
)


def verify_corpus(corpus: list[Instance], checks=None) -> dict:
    """Run the enabled comparison checks over every corpus instance.

    Returns {"checks": [{"name", "passed", "failed", "failures"}, ...]};
    failing instances are serialized in full for replay.
    """
    enabled = tuple(checks) if checks is not None else CHECK_NAMES
    for name in enabled:
        if name not in CHECK_NAMES:
            raise ValueError(f"unknown check {name!r}")
    results = {name: {"passed": 0, "failed": 0, "failures": []} for name in enabled}

    def record(name: str, ok: bool, inst: Instance, agent: int, detail: str) -> None:
        if ok:
            results[name]["passed"] += 1
        else:
            results[name]["failed"] += 1
            results[name]["failures"].append(
                {"instance": instance_to_json(inst), "agent": agent, "detail": detail}
            )

    for inst in corpus:
        full = inst.all_items
        n = inst.n
        for i, v in enumerate(inst.valuations):
            classes = _shares._KIND_CLASSES[v.kind]
            rmms_val = _shares.rmms(v, full, n).value
            mms_val = _shares.mms(v, full, n).value
            # MXS is not kept on the valuation: one search serves both checks.
            if "mxs_le_rmms" in enabled or "shares_agreement" in enabled:
                mxs_val = _shares.mxs(inst, i).value
            if "rmms_le_mms" in enabled:
                record(
                    "rmms_le_mms", rmms_val <= mms_val, inst, i,
                    f"rmms={rmms_val} > mms={mms_val}",
                )
            if "mxs_le_rmms" in enabled:
                record(
                    "mxs_le_rmms", mxs_val <= rmms_val, inst, i,
                    f"mxs={mxs_val} > rmms={rmms_val}",
                )
            if "additive_ratio" in enabled and "additive" in classes:
                bound = _shares.ratio_bound(n, "additive")
                ok = rmms_val * bound.denominator >= bound.numerator * mms_val
                record(
                    "additive_ratio", ok, inst, i,
                    f"rmms={rmms_val} < {bound} * mms={mms_val}",
                )
            if "subadditive_ratio" in enabled and "subadditive" in classes:
                bound = _shares.ratio_bound(n, "subadditive")
                ok = rmms_val * bound.denominator >= bound.numerator * mms_val
                record(
                    "subadditive_ratio", ok, inst, i,
                    f"rmms={rmms_val} * {n} < mms={mms_val}",
                )
            if "shares_agreement" in enabled:
                ok = (
                    rmms_val == brute_rmms(v, full, n)
                    and mms_val == brute_mms(v, full, n)
                    and mxs_val == brute_mxs(inst, i)
                )
                record("shares_agreement", ok, inst, i, "solver/oracle mismatch")

    return {
        "checks": [
            {"name": name, **results[name]} for name in enabled
        ]
    }
