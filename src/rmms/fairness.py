"""Envy predicates and allocation certificates.

Every predicate reads per-bundle envy thresholds. For an envied non-empty
bundle B under a valuation v, an own bundle worth x has

- EF1 envy iff x < min over e in B of v(B - e);
- EFL envy iff |B| >= 2 and x < min over e of max(v(B - e), v({e}));
- EFX envy iff x < max over e of v(B - e), with the witness the first e,
  in ascending order, with x < v(B - e);
- EF envy iff x < v(B).

Each threshold is its definition's quantifier folded over the items of B,
so it does not depend on x. ``_thresholds`` computes the four once per
(valuation, B) and keeps them by mask in the valuation's ``core._kept``
dict ``"_envy"``: at most 2^m - 1 entries of five numbers each. The EFX
witness does depend on x, and only pairs whose strongest envy is EFX need
it, so ``_witness`` reads it from its definition, not from the memo.
``_envious`` makes one pass over the ordered pairs and keeps those whose
own value falls below some threshold; ``certificate`` and the ``is_*``
predicates read that list, and ``envy_between`` reads one pair's
thresholds. An allocation is EF1/EFL/EFX/EF when no pair exhibits the
respective envy.

The thresholds work on raw bit masks and plain integers: the allocation
was validated against its item range when it was built, and the shape
check against the instance runs once per call at the API edge.

Each notion is computed from its own definition rather than inferred from
the hierarchy EFX => EFL => EF1, which needs monotone valuations: a table
built with ``validate=False`` can break it, and its verdicts must still be
those of the definitions. Two normalizations keep the hierarchy intact for
monotone normalized valuations:

- an empty envied bundle triggers no envy of any kind (EF envy toward the
  empty bundle is then impossible, and the universally-quantified
  predicates would otherwise hold vacuously);
- a singleton envied bundle triggers no EFL envy (with one item there is no
  "less preferred" item to point at; without this exemption an allocation
  could be EFX but not EFL). Its EFL threshold is -inf, not 0, since a
  table built with ``validate=False`` may hold negative values.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (Instance, PartialAllocation, Valuation, _check_agent,
                   _check_shape, _kept)

ENVY_KINDS = ("EF1", "EFL", "EFX", "EF", "none")
_INF = float("inf")


@dataclass(frozen=True)
class EnvyVerdict:
    """The strongest envy agent ``envier`` has toward ``envied``.

    ``witness`` is the lowest-index item certifying EFX envy (an item e in
    the envied bundle with v(own) < v(envied - e)); None for other kinds.
    """

    envier: int
    envied: int
    kind: str
    witness: Optional[int] = None


def _thresholds(v: Valuation, other: int, memo: dict) -> tuple:
    """The thresholds of the non-empty bundle B = ``other`` under ``v``,
    stored in ``memo``: (some, EF1, EFL, EFX, EF), so the threshold of
    ENVY_KINDS[k] sits at index k + 1.

    An own bundle worth x shows a notion's envy iff x is below that
    notion's threshold, and some envy iff x is below ``some``, the largest.
    """
    value_of = v.value_of
    ef1 = _INF
    efl = _INF if other & (other - 1) else -_INF
    efx = -_INF
    rest = other
    while rest:
        bit = rest & -rest
        rest ^= bit
        less = value_of(other ^ bit)
        if less < ef1:
            ef1 = less
        if less > efx:
            efx = less
        if less < efl:
            alone = value_of(bit)
            if alone < efl:
                efl = less if less > alone else alone
    ef = value_of(other)
    found = memo[other] = (max(efl, efx, ef), ef1, efl, efx, ef)
    return found


def _witness(v: Valuation, other: int, own_val: int) -> int:
    """The first item e of B = ``other``, in ascending order, with
    own_val < v(B - e)."""
    return next(e for e in range(other.bit_length())
                if other >> e & 1 and own_val < v.value_of(other ^ (1 << e)))


def _strongest(
    v: Valuation, other: int, own_val: int, envy: tuple
) -> tuple[str, Optional[int]]:
    """The strongest envy of an own bundle worth ``own_val`` toward the
    bundle ``other`` with thresholds ``envy`` under ``v``, with its EFX
    witness."""
    _, ef1, efl, efx, ef = envy
    if own_val < ef1:
        return "EF1", None
    if own_val < efl:
        return "EFL", None
    if own_val < efx:
        return "EFX", _witness(v, other, own_val)
    if own_val < ef:
        return "EF", None
    return "none", None


def _envious(inst: Instance, alloc: PartialAllocation) -> list[tuple]:
    """(i, j, v_i(own bundle), thresholds of j's bundle under v_i) for every
    ordered pair with envy of some kind, in (i, j) order. Each notion comes
    from its own definition (see the module docstring), so a pair counts if
    its own value falls below any of the four thresholds."""
    _check_shape(inst, alloc)
    masks = [b.mask for b in alloc.bundles]
    found = []
    for i, v in enumerate(inst.valuations):
        memo = _kept(v, "_envy")
        own_val = v.value_of(masks[i])
        for j, other in enumerate(masks):
            if other and j != i:
                envy = memo.get(other) or _thresholds(v, other, memo)
                if own_val < envy[0]:
                    found.append((i, j, own_val, envy))
    return found


def envy_between(
    inst: Instance, alloc: PartialAllocation, i: int, j: int
) -> EnvyVerdict:
    """Evaluate all four envy notions of i toward j; return the strongest."""
    if i == j:
        raise ValueError("envy is defined between distinct agents")
    _check_shape(inst, alloc)
    _check_agent(i, inst.n)
    _check_agent(j, inst.n)
    other = alloc.bundles[j].mask
    if other == 0:
        return EnvyVerdict(i, j, "none")
    v = inst.valuations[i]
    memo = _kept(v, "_envy")
    envy = memo.get(other) or _thresholds(v, other, memo)
    own_val = v.value_of(alloc.bundles[i].mask)
    return EnvyVerdict(i, j, *_strongest(v, other, own_val, envy))


def _scan(inst, alloc, k: int) -> tuple[bool, list[EnvyVerdict]]:
    violations = [
        EnvyVerdict(i, j, *_strongest(inst.valuations[i],
                                      alloc.bundles[j].mask, own_val, envy))
        for i, j, own_val, envy in _envious(inst, alloc)
        if own_val < envy[k + 1]
    ]
    return (not violations, violations)


def is_ef1(inst: Instance, alloc: PartialAllocation):
    """No ordered pair exhibits EF1 envy."""
    return _scan(inst, alloc, 0)


def is_efl(inst: Instance, alloc: PartialAllocation):
    """No ordered pair exhibits EFL envy."""
    return _scan(inst, alloc, 1)


def is_efx(inst: Instance, alloc: PartialAllocation):
    """No ordered pair exhibits EFX envy."""
    return _scan(inst, alloc, 2)


def is_ef(inst: Instance, alloc: PartialAllocation):
    """No ordered pair exhibits plain envy."""
    return _scan(inst, alloc, 3)


def certificate(inst: Instance, alloc: PartialAllocation) -> dict:
    """JSON-ready fairness certificate for an allocation."""
    ef1 = efl = efx = ef = True
    violations = []
    for i, j, own_val, envy in _envious(inst, alloc):
        # _strongest unrolled, with the flags: a call per pair costs about
        # a seventh of a certificate.
        _, ef1_at, efl_at, efx_at, ef_at = envy
        witness = None
        if own_val < ef1_at:
            kind = "EF1"
            ef1 = False
        elif own_val < efl_at:
            kind = "EFL"
        elif own_val < efx_at:
            kind = "EFX"
            witness = _witness(inst.valuations[i], alloc.bundles[j].mask,
                               own_val)
        else:  # _envious kept the pair, so own_val < ef_at
            kind = "EF"
        if own_val < efl_at:
            efl = False
        if own_val < efx_at:
            efx = False
        if own_val < ef_at:
            ef = False
        violations.append(
            {"envier": i, "envied": j, "kind": kind, "witness": witness}
        )
    return {"ef1": ef1, "efl": efl, "efx": efx, "ef": ef, "violations": violations}
