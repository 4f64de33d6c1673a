"""Envy predicates and allocation certificates.

One pair kernel, ``_pair``, serves every predicate. For an ordered agent
pair (i, j) it walks the items e of j's bundle B once, computing v_i(B - e)
for each and v_i({e}) only where EFL still needs it, and returns EF1, EFL,
EFX (with its lowest-index witness) and EF envy together. ``_envious``
makes one pass over the ordered pairs, valuing each agent's own bundle
once, and keeps the pairs with some envy; ``certificate`` and the ``is_*``
predicates read that list, and ``envy_between`` calls the kernel directly.
An allocation is EF1/EFL/EFX/EF when no pair exhibits the respective envy.

The kernel works on raw bit masks and plain integers: the allocation was
validated against its item range when it was built, and the shape check
against the instance runs once per call at the API edge.

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
  could be EFX but not EFL).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import Instance, PartialAllocation, Valuation

ENVY_KINDS = ("EF1", "EFL", "EFX", "EF", "none")


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


def _pair(v: Valuation, own_val: int, other: int) -> tuple:
    """(EF1, EFL, EFX, EF, witness) envy toward the non-empty bundle
    ``other`` of an agent with valuation ``v`` whose own bundle is worth
    ``own_val``; the first four are bools, indexed as in ENVY_KINDS."""
    value_of = v.value_of
    ef1 = True
    efl = other & (other - 1) != 0
    witness = None
    rest = other
    while rest:
        bit = rest & -rest
        rest ^= bit
        if own_val < value_of(other ^ bit):
            if witness is None:
                witness = bit.bit_length() - 1
        else:
            ef1 = False
            if efl and own_val >= value_of(bit):
                efl = False
    return ef1, efl, witness is not None, own_val < value_of(other), witness


def _strongest(envy: tuple) -> tuple[str, Optional[int]]:
    """The strongest kind in a ``_pair`` result, with its EFX witness."""
    for k in range(4):
        if envy[k]:
            return ENVY_KINDS[k], envy[4] if k == 2 else None
    return "none", None


def _check_shape(inst: Instance, alloc: PartialAllocation) -> None:
    if alloc.m != inst.m or alloc.n != inst.n:
        raise ValueError("allocation does not match instance shape")


def _envious(inst: Instance, alloc: PartialAllocation) -> list[tuple]:
    """(i, j, envy) for every ordered pair with envy of some kind, in (i, j)
    order. Each notion comes from its own definition (see the module
    docstring), so a pair counts if any of the four holds."""
    _check_shape(inst, alloc)
    masks = [b.mask for b in alloc.bundles]
    found = []
    for i, v in enumerate(inst.valuations):
        own_val = v.value_of(masks[i])
        for j, other in enumerate(masks):
            if other and j != i:
                envy = _pair(v, own_val, other)
                if envy[0] or envy[1] or envy[2] or envy[3]:
                    found.append((i, j, envy))
    return found


def envy_between(
    inst: Instance, alloc: PartialAllocation, i: int, j: int
) -> EnvyVerdict:
    """Evaluate all four envy notions of i toward j; return the strongest."""
    if i == j:
        raise ValueError("envy is defined between distinct agents")
    _check_shape(inst, alloc)
    other = alloc.bundles[j].mask
    if other == 0:
        return EnvyVerdict(i, j, "none")
    v = inst.valuations[i]
    envy = _pair(v, v.value_of(alloc.bundles[i].mask), other)
    return EnvyVerdict(i, j, *_strongest(envy))


def _scan(inst, alloc, k: int) -> tuple[bool, list[EnvyVerdict]]:
    violations = [
        EnvyVerdict(i, j, *_strongest(envy))
        for i, j, envy in _envious(inst, alloc)
        if envy[k]
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
    for i, j, envy in _envious(inst, alloc):
        ef1 = ef1 and not envy[0]
        efl = efl and not envy[1]
        efx = efx and not envy[2]
        ef = ef and not envy[3]
        kind, witness = _strongest(envy)
        violations.append(
            {"envier": i, "envied": j, "kind": kind, "witness": witness}
        )
    return {"ef1": ef1, "efl": efl, "efx": efx, "ef": ef, "violations": violations}
