"""Allocation procedures: envy-cycle elimination, EFL completion, and the
round-based procedure producing an EFX partial allocation in which every
agent meets her residual maximin share.

Envy-cycle elimination and the completion pipeline touch valuations only
through comparison queries; the share-threshold algorithm needs actual share
values and therefore uses value queries as well.

Inside the procedures bundles are raw bit masks, and no mask is checked
against the item range again: every mask is a subset of the items of the
instance, as the input allocation was validated against it. ``Bundle`` and
``PartialAllocation`` appear only at the API edge, in what the procedures
take and return. The share-threshold algorithm queries through
``core._value``, which charges the ledger exactly as ``value_query`` does.

The EFL completion runs two private kernels on raw masks, ``_preprocess``
and ``_cycle_run``; ``preprocess_singletons`` and ``envy_cycle_run`` are
thin wrappers that check the shape and build the allocation, and
``efl_complete`` calls the kernels directly, so it builds a
``PartialAllocation`` only for its result. Both kernels read values and
charge the comparison queries those values stand for. The preprocessing
reads an agent's own value once per scan of the pool and charges one
comparison query per pool item it compares. Envy-cycle elimination keeps
each agent's values of the current bundles across rounds and charges each
search for an un-envied agent as the n(n - 1) comparison queries of the
envy matrix.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core import (
    EMPTY_BUNDLE,
    Bundle,
    Instance,
    InvariantError,
    PartialAllocation,
    PreconditionError,
    QueryLedger,
    _check_shape,
    _value,
    bits_of,
    submasks,
)
from . import fairness
from . import shares


@dataclass
class RunTrace:
    """Audit record of one algorithm run.

    ``matching`` maps each final bundle to the index of the start bundle it
    contains (the permutation realized by bundle rotations); ``last_added``
    holds, per final bundle, the last item granted to it, or None if the
    bundle never grew.
    """

    rounds: list = field(default_factory=list)
    matching: Optional[list[int]] = None
    last_added: Optional[list[Optional[int]]] = None
    ledger: Optional[QueryLedger] = None
    partial: Optional[PartialAllocation] = None
    completion_ledger: Optional[QueryLedger] = None
    rmms_values: Optional[list[int]] = None


def envy_cycle_run(
    inst: Instance, start: PartialAllocation, ledger: QueryLedger
) -> tuple[PartialAllocation, RunTrace]:
    """Run envy-cycle elimination from ``start`` until the pool is empty.

    While pool items remain: if no agent is envied by nobody, rotate bundles
    along an envy cycle (each agent in the cycle takes the bundle she envies);
    then grant the lowest-index un-envied agent the lowest-index pool item.
    Uses only comparison queries.
    """
    _check_shape(inst, start)
    return _cycle_run(
        inst, start.pool.mask, [b.mask for b in start.bundles], ledger
    )


def _cycle_run(
    inst: Instance, pool: int, masks: list[int], ledger: QueryLedger
) -> tuple[PartialAllocation, RunTrace]:
    """``envy_cycle_run`` on raw masks: the bundle masks, which the run
    takes over, and the pool mask partition the items."""
    n = inst.n
    # Bundle records move between agents whole, as one index across three
    # parallel lists: the mask, the start bundle it grew from and the last
    # item granted to it.
    origin = list(range(n))
    last: list[Optional[int]] = [None] * n
    trace = RunTrace(ledger=ledger)
    valuations = inst.valuations
    # worth[i][j] is agent i's value of the bundle agent j holds. A grant
    # changes one bundle and a rotation only moves bundles, so the table is
    # kept across rounds: it is built before the first search for an
    # un-envied agent, the next grant recomputes one column, and a rotation
    # permutes the columns along the cycle. Agent i envies j iff
    # worth[i][i] < worth[i][j], which never holds for j = i. Each search
    # is still charged as the n(n - 1) comparison queries of the envy
    # matrix ``_compare`` would fill.
    worth: list[list[int]] = []

    while pool:
        if worth:
            granted = masks[unenvied]
            for v, row in zip(valuations, worth):
                row[unenvied] = v.value_of(granted)
        else:
            worth = [[v.value_of(b) for b in masks] for v in valuations]
        while True:
            ledger.comparison_queries += n * (n - 1)
            own = [row[i] for i, row in enumerate(worth)]
            # The lowest-index agent nobody envies, or None.
            for unenvied in range(n):
                for mine, row in zip(own, worth):
                    if mine < row[unenvied]:
                        break
                else:
                    break
            else:
                unenvied = None
            if unenvied is not None:
                break
            # Every agent is envied, so walking enviers backwards must loop.
            seen: dict[int, int] = {}
            cur = 0
            path = []
            while cur not in seen:
                seen[cur] = len(path)
                path.append(cur)
                cur = next(i for i in range(n) if own[i] < worth[i][cur])
            cycle = path[seen[cur]:]
            # Each cycle member envies the one before it (cycle[0] envies
            # cycle[-1]) and takes that member's bundle; agent j ends up
            # with the bundle of agent taken[j].
            taken = list(range(n))
            for idx, agent in enumerate(cycle):
                taken[agent] = cycle[idx - 1]
            masks = [masks[j] for j in taken]
            origin = [origin[j] for j in taken]
            last = [last[j] for j in taken]
            worth = [[row[j] for j in taken] for row in worth]
            trace.rounds.append({"kind": "rotate", "agents": list(cycle)})
        item = (pool & -pool).bit_length() - 1
        pool ^= 1 << item
        masks[unenvied] |= 1 << item
        last[unenvied] = item
        trace.rounds.append({"kind": "grant", "agent": unenvied, "item": item})

    result = PartialAllocation(inst.m, EMPTY_BUNDLE, tuple(map(Bundle, masks)))
    trace.matching = origin
    trace.last_added = last
    return result, trace


def verify_cycle_run_properties(
    inst: Instance,
    start: PartialAllocation,
    result: PartialAllocation,
    trace: RunTrace,
) -> list[str]:
    """Check the three guarantees of envy-cycle elimination; return failures.

    1. matching: the start bundle matched to each agent is contained in her
       final bundle; 2. every agent's final value weakly dominates her start
       value; 3. a grown bundle minus its last item is envied by nobody.
    """
    _check_shape(inst, start)
    _check_shape(inst, result)
    failures = []
    pi = trace.matching
    if sorted(pi) != list(range(inst.n)):
        failures.append(f"matching {pi} is not a permutation")
        return failures
    for i in range(inst.n):
        if not start.bundles[pi[i]].issubset(result.bundles[i]):
            failures.append(f"start bundle {pi[i]} not contained in final bundle {i}")
        v = inst.valuations[i]
        if v.value_of(result.bundles[i].mask) < v.value_of(start.bundles[i].mask):
            failures.append(f"agent {i} lost value against her start bundle")
    for j in range(inst.n):
        last = trace.last_added[j]
        grew = result.bundles[j] != start.bundles[pi[j]]
        if grew != (last is not None):
            failures.append(f"last_added[{j}] inconsistent with bundle growth")
            continue
        if last is None:
            continue
        reduced = result.bundles[j].mask ^ (1 << last)
        for i in range(inst.n):
            v = inst.valuations[i]
            if v.value_of(result.bundles[i].mask) < v.value_of(reduced):
                failures.append(
                    f"agent {i} envies bundle {j} even without its last item"
                )
    return failures


def preprocess_singletons(
    inst: Instance, partial: PartialAllocation, ledger: QueryLedger
) -> PartialAllocation:
    """Swap agents onto strictly preferred single pool items until stable.

    Repeatedly the lowest-index agent strictly preferring some pool item to
    her whole bundle takes the lowest-index such item, returning her old
    bundle to the pool. Strict preference is expressed with >=-comparisons
    only: NOT v(bundle) >= v({item}). Terminates within n*m swaps (each swap
    strictly increases the swapping agent's value and item values are fixed).
    """
    _check_shape(inst, partial)
    pool, masks = _preprocess(
        inst, partial.pool.mask, [b.mask for b in partial.bundles], ledger
    )
    return PartialAllocation(inst.m, Bundle(pool), tuple(map(Bundle, masks)))


def _preprocess(
    inst: Instance, pool: int, masks: list[int], ledger: QueryLedger
) -> tuple[int, list[int]]:
    """``preprocess_singletons`` on raw masks: the bundle masks, which the
    preprocessing takes over, and the pool mask partition the items.

    An agent's scan of the pool reads her own value once and charges one
    comparison query per pool item it compares, as ``_compare`` would.
    """
    n, m = inst.n, inst.m
    swaps = 0
    while True:
        for i, v in enumerate(inst.valuations):
            own = masks[i]
            mine = v.value_of(own)
            rest = pool
            while rest:
                bit = rest & -rest
                ledger.comparison_queries += 1
                if mine < v.value_of(bit):
                    break
                rest ^= bit
            if rest:
                pool = (pool | own) ^ bit
                masks[i] = bit
                swaps += 1
                if swaps > n * m:
                    raise InvariantError("singleton preprocessing failed to converge")
                break
        else:
            return pool, masks


def efl_complete(
    inst: Instance, partial: PartialAllocation, ledger: QueryLedger
) -> tuple[PartialAllocation, RunTrace]:
    """Complete an EFL partial allocation to a full EFL allocation.

    Singleton preprocessing followed by envy-cycle elimination; every agent's
    final value weakly dominates her value in ``partial``. Uses only
    comparison queries against the ledger.
    """
    ok, violations = fairness.is_efl(inst, partial)
    if not ok:
        raise PreconditionError(
            f"input allocation is not EFL: {violations[0]}"
        )
    before = ledger.value_queries
    # ``is_efl`` checked the shape. The kernels only move items between the
    # pool and the bundles, so the result's partition check also covers the
    # preprocessed allocation, which is never built.
    pool, masks = _preprocess(
        inst, partial.pool.mask, [b.mask for b in partial.bundles], ledger
    )
    result, trace = _cycle_run(inst, pool, masks, ledger)
    if ledger.value_queries != before:
        raise InvariantError("completion issued a value query")
    trace.partial = partial
    return result, trace


def _minimal_desired_shrink(part, poor, desires):
    """Shrink a part to an inclusion-minimal non-empty subset some poor agent
    desires, scanning removable items in ascending index."""
    cur = part
    progress = True
    while progress:
        progress = False
        # Items leave cur only as they are reached, so every item of the
        # snapshot is still in cur when its turn comes.
        for e in list(bits_of(cur)):
            cand = cur ^ (1 << e)
            if cand and any(desires(a, cand) for a in poor):
                cur = cand
                progress = True
    return cur


def _max_matching(
    num_parts: int, adj: list[list[int]]
) -> tuple[list[int], Optional[set[int]]]:
    """Augmenting-path maximum matching; adj[p] lists agents desiring part p.

    Returns (match_of_part, hall): match_of_part holds each part's agent
    index or -1, deterministic for fixed input. hall is None when every part
    is matched. Otherwise it is the set of agents one more augmenting search
    from the lowest unmatched part reaches. That search fails, as the
    matching is maximum, so it has explored every alternating path from the
    part: hall is the set of agents those paths reach, each matched to a
    reached part, and the reached parts are desired by no one else.
    """
    match_of_part = [-1] * num_parts
    match_of_agent: dict[int, int] = {}

    def augment(p: int, seen: set[int]) -> bool:
        for a in adj[p]:
            if a in seen:
                continue
            seen.add(a)
            if a not in match_of_agent or augment(match_of_agent[a], seen):
                match_of_agent[a] = p
                match_of_part[p] = a
                return True
        return False

    for p in range(num_parts):
        augment(p, set())
    if -1 not in match_of_part:
        return match_of_part, None
    hall: set[int] = set()
    if augment(match_of_part.index(-1), hall):
        raise InvariantError("augmenting path missed by matching")
    return match_of_part, hall


def rmms_efx_partial(
    inst: Instance, ledger: QueryLedger
) -> tuple[PartialAllocation, RunTrace]:
    """Partial allocation that is EFX and gives every agent at least her RMMS.

    Round structure: a lowest-index poor agent partitions the free items into
    one acceptable part per poor agent; parts shrink to inclusion-minimal
    subsets desired by some poor agent; either one wealthy agent upgrades to
    a minimal strictly-preferred strict subset of a part (freeing her old
    items), or poor agents are matched to parts they desire, completing a
    perfect matching or the deficiency-maximal partial one. The deficiency
    set is the Hall set ``_max_matching`` returns: the agents a failed
    augmenting search from the lowest unmatched part reaches. They take
    their matched parts, and the reached parts, one more than those agents,
    are desired by no other poor agent.
    """
    n, m = inst.n, inst.m
    full = (1 << m) - 1
    rmms_values = [
        shares.rmms(inst.valuations[i], Bundle(full), n, agent=i).value
        for i in range(n)
    ]
    trace = RunTrace(ledger=ledger, rmms_values=list(rmms_values))
    # None = poor (holds nothing); an int mask (possibly 0) = wealthy.
    assigned: list[Optional[int]] = [None] * n
    free = full

    def desires(a: int, mask: int) -> bool:
        return _value(inst.valuations[a], mask, ledger) >= rmms_values[a]

    def check_minimal(mask: int, poor: list[int]) -> None:
        # Allocated bundles with >= 2 items must be minimal: dropping any
        # item leaves a bundle no currently-poor agent desires.
        if mask.bit_count() < 2:
            return
        for e in bits_of(mask):
            reduced = mask ^ (1 << e)
            for a in poor:
                if inst.valuations[a].value_of(reduced) >= rmms_values[a]:
                    raise InvariantError(
                        f"allocated bundle {sorted(bits_of(mask))} is not minimal"
                    )

    max_rounds = n * (1 << m) + n
    rounds = 0
    while any(b is None for b in assigned):
        rounds += 1
        if rounds > max_rounds:
            raise InvariantError("round bound exceeded")
        poor = [a for a in range(n) if assigned[a] is None]
        n_r = len(poor)
        leader = poor[0]
        t = rmms_values[leader]
        parts = shares.acceptable_partition(
            inst.valuations[leader], Bundle(free), n_r, t
        )
        if parts is None:
            raise InvariantError(
                "residual feasibility promised an acceptable partition of the "
                "free items and none was found"
            )
        shrunk = [_minimal_desired_shrink(P.mask, poor, desires) for P in parts]

        # Wealthy upgrade: first (part, strict subset, agent) hit in
        # (part index, cardinality, mask, agent index) order.
        wealthy = [a for a in range(n) if assigned[a] is not None]
        upgrade = next(
            ((w, S)
             for pmask in shrunk
             for S in sorted((s for s in submasks(pmask) if s != pmask),
                             key=lambda s: (s.bit_count(), s))
             for w in wealthy
             if _value(inst.valuations[w], S, ledger)
             > _value(inst.valuations[w], assigned[w], ledger)),
            None,
        )
        if upgrade is not None:
            w, S = upgrade
            if inst.valuations[w].value_of(S) < rmms_values[w]:
                raise InvariantError(
                    "upgraded wealthy bundle fell below the agent's share"
                )
            check_minimal(S, poor)
            free = (free | assigned[w]) & ~S
            assigned[w] = S
            trace.rounds.append(
                {"kind": "upgrade", "agent": w, "bundle": sorted(bits_of(S))}
            )
            continue

        adj = [[a for a in poor if desires(a, pmask)] for pmask in shrunk]
        match_of_part, hall = _max_matching(n_r, adj)
        if hall is None:
            kind, winners = "final-matching", enumerate(match_of_part)
        else:
            # The reached parts T are desired by exactly the |T| - 1 agents
            # of the Hall set; those agents keep their matched parts.
            if not hall:
                raise InvariantError("every part is desired by some poor agent")
            winners = [(match_of_part.index(a), a) for a in sorted(hall)]
            reached = [match_of_part.index(-1)] + [p for p, _ in winners]
            if set().union(*(adj[p] for p in reached)) != hall:
                raise InvariantError(
                    "deficiency set does not certify Hall violation"
                )
            kind = "deficiency-matching"
        assigned_now = {}
        for p, a in winners:
            check_minimal(shrunk[p], poor)
            assigned[a] = shrunk[p]
            free &= ~shrunk[p]
            assigned_now[a] = sorted(bits_of(shrunk[p]))
        trace.rounds.append({"kind": kind, "assigned": assigned_now})

    result = PartialAllocation(
        m, Bundle(free), tuple(Bundle(b if b is not None else 0) for b in assigned)
    )
    trace.partial = result
    return result, trace


def rmms_efl_full(
    inst: Instance,
    ledger: QueryLedger,
    completion_ledger: Optional[QueryLedger] = None,
) -> tuple[PartialAllocation, RunTrace]:
    """Full EFL allocation giving every agent at least her RMMS.

    Runs the EFX partial procedure, then completes it; the completion phase
    gets its own ledger so its comparison-only behavior stays auditable.
    """
    if completion_ledger is None:
        completion_ledger = QueryLedger()
    partial, trace = rmms_efx_partial(inst, ledger)
    result, completion_trace = efl_complete(inst, partial, completion_ledger)
    trace.rounds.extend(completion_trace.rounds)
    trace.matching = completion_trace.matching
    trace.last_added = completion_trace.last_added
    trace.completion_ledger = completion_ledger
    return result, trace
