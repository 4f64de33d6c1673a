"""Exact share computation: MMS, MXS, and the residual maximin share.

All solvers enumerate subsets (2^m) and are intentionally exponential;
``core.MAX_EXACT_ITEMS`` bounds what they accept. Searches are anchored on
the lowest item index throughout, so every witness is deterministic.

Two searches and one lattice kernel do the work.

- **pack** (``_pack``): split a mask into q parts, each worth >= t. The
  family is upward-closed. ``acceptable_partition``, MMS and the residual
  check all use it. Failure is inherited by subsets: a mask with no
  q-partition has no subset with one.
- **cover** (``_cover``): split a mask into at most q parts P with
  weights[P] <= bound. The family is downward-closed, so failure is
  inherited by supersets. MXS uses it for the other agents' bundles (parts
  the agent does not EFX-envy), with weights g(P), the most the agent
  values P minus one item, computed once per agent.
- **cover ladder** (``_CoverLadder``): the same question as cover for
  every mask at once. For a downward-closed family F over all 2^m masks,
  rung k holds the masks that are unions of at most k members. It is a
  cover product (Bjorklund-Husfeldt-Kaski-Koivisto): one zeta transform
  of F, then one Moebius transform of zeta(F)^k per rung read, rung 1
  being F itself. The residual check uses it for the removals: parts
  inside S worth < t, that is <= t - 1. MXS uses it from
  ``MXS_LADDER_ITEMS`` items up, and the RMMS bound for tables reads one
  of its rungs at S alone.

Every per-item pass over an array indexed by all 2^m masks (the record's
weights, MXS's g, the signs, the maximal-removal mark and the transforms)
takes its views from ``core._item_pairs``, which owns that layout, and
``core._subset_sums`` builds the record's weight sums and popcounts. The
transforms are m in-place passes over an int64 array, one per item i,
each adding (zeta) or subtracting (Moebius) the masks without i into the
same masks with i. The Moebius value of zeta(F)^k at X counts the
k-tuples of members whose union is X, at most (2^k - 1)^m. int64
arithmetic is exact modulo 2^64, so that count is read exactly while it
stays below 2^63, even where the power itself wraps: up to
``_exact_factors(m)`` factors, 5 at m = 12 and 3 at m = 20. A rung
further up starts from the highest rung within reach, zeta-transformed,
as a new base. The ladder runs the transforms in work buffers, zeta(F)
and the product, 16 bytes per mask, and the base once it rebases, with
each buffer's (with i, without i) views made once (``core._bit_views``).
Items 0 to 2 get one 1-D strided view per residue: as pair views of inner
length 1, 2 or 4 they cost several normal passes each. ``out=`` arguments
keep the products in the buffers, so a ladder allocates only the boolean
rungs it returns. The buffers live in the search record: built at the
agent's first ladder, used by every ladder of its RMMS and MXS, one
ladder at a time, and gone with the record when the slot moves to the
next agent.

Both searches scan the same way and remember every (mask, q) state that
failed, keyed by the one int q * 2^m + mask. The pack search also fails a
state without a search when the state with one more item, the key with
that item's bit set, has already failed, as pack failure passes to
subsets. The cover search has no such rule: its memo lasts one search,
and MXS gives each own bundle's search a fresh one. The rule and a memo
shared by the own bundles of one value saved few cover calls and cost
more per call than they saved. The pack memo lives in the search record
(``_record``, one slot: the agent in hand) and spans thresholds, so MMS,
the RMMS scan, every residual check and ``acceptable_partition`` share
it. A state that fails at t fails at every t' > t, as parts worth >= t'
are worth >= t, and a state that packs at t packs at every t' < t. So the
memo keeps, per state, the least t known to fail (``failed``) and the
greatest t known to pack (``packed``). The search itself reads only
``failed``, which holds only true failures at the t searched: pruning them
cannot change which partition the scan finds first, so a witness taken
from the shared memo is the one a fresh search gives. ``packed`` only
answers yes or no, through ``_packs``, in MMS's probes and the residual
check. A partition found at t packs its state at every t' up to its worst
part, so ``packed`` keeps the worst part, not t: MMS jumps to it, and checks
higher up the RMMS search reuse it.

Results live on the valuation: ``_candidate_values``, ``_mms`` and
``_rmms`` keep them in its ``core._kept`` dict ``"_shares"``
(``_on_valuation``) and go with it.
RMMS reuses the MMS ceiling and witness, and ``rmms_efx_partial`` the RMMS
values of the same valuations computed before it. The record is not kept
there, as keeping every agent's raised the all-agent MMS + RMMS peak RSS
at (3, 20), item values up to 1,000, from 150 to 228 MB. It is kept in one
slot, keyed by the valuation's identity, and the slot is emptied before
the next record is built, so one record is alive at a time.

The pack search also prunes by a sum bound (Korf 1998; Schreiber, Korf
and Moffitt 2018). Each item j gets a weight w_j such that the additive
w(P), the sum of w_j over P, is at least v(P) for every P. Then the parts
of any split of X are worth at most w(X) in all, kept as sums[X]. Additive
and capped valuations use the item values: a cap only lowers v. Tables
start from the largest marginals, which majorise v one item at a time but
loosely, and then lower w_j, last item first, to the most v(X) - w(X - j)
over the X holding j, the least that keeps the majorant. The anchored
search's states hold mostly high items, so those are tightened first. A
state with sums[remaining] < parts * t fails, and a part that leaves less
than (parts - 1) * t is skipped. Neither holds a partition, so the first
partition found is the same as without the bound, and ``failed`` still
holds only true failures.

Both scans also jump over blocks of candidate parts that hold no split
(the dominance pruning of bin completion, in its exact, order-keeping
form). The scan takes the submasks sub of the items above the anchor in
ascending order, so the candidates after sub and below sub + lowbit(sub)
are sub plus items below lowbit(sub): each holds the part of sub and adds
lower items. When a pack candidate worth >= t leaves a remainder that
fails, worth < t, under the sum bound or with no split into the parts
left, every candidate of its block leaves a subset of that remainder,
which fails too: pack failure passes to subsets, and the item weights are
non-negative. When a cover candidate is too heavy, every candidate of its
block holds it and is as heavy, as the weights are monotone. Either way
the scan jumps to (sub + ~rest + lowbit(sub)) & rest, the first candidate
past the block, and stops when that wraps to 0, which covers sub = 0: the
anchor alone. The candidates skipped hold no split, so the scan order and
the first split found are those of a plain scan, and ``failed`` still
holds only true failures. The record also keeps ``most[s]``, the most any
s items are worth, so a part worth >= t holds at least fewest(t) =
bisect_left(most, t) items, and a pack state with fewer than
parts * fewest(t) items fails without a scan. No candidate is counted: one
that leaves too few items leaves a failing remainder, and the jump skips
its block.

MMS searches the distinct subset values of S. A pack found at t has a
worst part worth p >= t, kept in ``packed``, so every value up to p packs,
and a pack an earlier residual check found answers a probe without a
search. The first probes
jump to the first value above p, and the first failure usually ends the
search at MMS = p: only the probes that fail must search exhaustively, and
the jumps skip most of them. A jump can gain a single value, so after
4 * log2(C) probes, C values, the search bisects, and the probes stay
O(log C). One more pack at MMS, on the shared memo, gives the witness.

MXS is the least t = v(own) at which the complement of own splits into
n - 1 parts with g <= t. Below ``MXS_LADDER_ITEMS`` items it runs one cover
search per own bundle in (value, mask) order. From there up it works over
the distinct values t of v. With C_t, rung n - 1 of the ladder of
{P : g(P) <= t}, read without the rungs below it, it bisects for the least t at which some X in C_t has
v(full ^ X) <= t. That predicate grows with t, as C_t does. Any t with an
exact hit, some X in C_t with v(full ^ X) == t, satisfies it, so its least
t is an exact lower bound on MXS. It can be lower than MXS: the own
bundle that satisfies it may be worth less than t, and its complement need
not split at that lower value. A scan upward from the bound then takes the
first t with an exact hit, and the lowest own bundle among the hits. One
cover search for that own bundle gives the other bundles, so both paths
give the same witness. The scan may read again the rungs at which the
bisection's predicate held, all at or above its final bound, so those are
kept; the others are not.

MXS <= RMMS <= MMS, so when the agent's MMS of all items for n agents is
already kept on the valuation (the CLI computes it first), the bisection
looks only at candidates up to it; MMS is never computed just for this.
The result is the same for any bound, right or wrong. If the predicate
holds at some candidate up to the bound, the bisection finds the least
such t as before. If it fails at every one, it fails at every t below the
least t with an exact hit, as an exact hit satisfies it, so MXS lies above
the bound, and the scan for exact hits, which starts at the bound and runs
up to the last candidate, still stops at MXS.

The residual check tests each removal R only at its binding k, the fewest
parts worth < t that R splits into: the masks in rung k of the ladder and
not in rung k - 1. This is exact. If S minus R splits into n - k0 parts
worth >= t, merging parts gives a split into n - k parts for every
k >= k0, so a larger k fails only where k0 already fails. One walk
(``_residual_failure``) visits the rungs in ascending k and stops at the
first rung with a failure, so its k is the least failing k. A rung with a
remainder worth < t fails without a search, and none is needed when
n - k = 1. Otherwise the walk searches the rung's removals until a
remainder fails to pack. A remainder that packs has supersets that pack,
so when many removals wait (``MAXIMAL_FIRST_REMOVALS``) only those with no
waiting removal one item larger are kept: if they all pack, every waiting
removal does, usually after far fewer searches. The walk holds an
n-partition P_1..P_n of S with every part worth >= t (the MMS witness in
RMMS, the partition found at t in ``is_residual_feasible``), and a removal
R usually damages few of its parts. So each kept R is first certified
(``_certified``) with no search: walking the parts in order, a part with
X = S - R inside it worth >= t is a bundle, and the others pile up in a
union, a bundle as soon as X inside it is worth >= t. If that makes
n - k bundles, X splits into n - k parts worth >= t, as the items left
over join any bundle and values are monotone. That is O(n) passes over the
kept removals' array, and it answers most of them: on the 54 m = 12
instances of perfbench's shares_large at seeds 1-3 the searches fell from
39,464 to 8,263. Certified remainders are not written to ``packed``. The
rest are searched in ascending order of remainder value, the likeliest
to fail first. RMMS needs only this yes or no. ``is_residual_feasible``
also returns the first failing (k, R) in (k ascending, R ascending)
order. The walk's R fails, so the first failing R of its rung lies at or
before it. The same search (``_failing``) then runs again over the
rung's removals below the current R, taking each failing R it returns as
the new current R, until it returns None: every removal below the
current R then packs, so the current R is the first. Each run keeps the
maximal-first filter, the certification and the value order.

At k = n - 1 a removal fails only by leaving a remainder worth < t, with
no search, and then S splits into n parts worth < t: t > mFS (below).
Every RMMS check lies at or below a proven mFS, so its walk stops at rung
n - 2. At n = 3 it reads rung 1 alone, F itself, with no transform, and at
n = 2 it reads none and builds no ladder. ``is_residual_feasible`` answers
for any t, so it reads every rung up to n - 1.

RMMS's checks never search (S, n): the MMS witness splits S into parts
worth >= MMS, so at every candidate, and where RMMS = MMS it is the RMMS
witness.

RMMS gallops: it checks its upper bound, then steps down 1, 2, 4, ...
candidates below the last infeasible check until one is feasible, and
bisects between the two. Feasibility is monotone in t, so this finds the
largest feasible candidate in O(log C) checks for C candidates, however far
RMMS lies below the bound, and the packs found at one threshold answer the
same remainders at every threshold below it.

The bound is min(MMS, mFS). mFS, the min-max fair share (Bouveret and
Lemaitre 2016), is the least c such that S splits into at most n parts
worth <= c. Every t > mFS fails the residual check at k = n - 1: removing
n - 1 of those parts, each worth < t, leaves one worth < t. Additive and
capped valuations always have mFS >= MMS, so their bound is MMS, with no
probe: n parts worth <= c < MMS <= cap hold items summing to < n * MMS,
and the items of S sum to at least n * MMS. A table's bound is probed, at
every m. S splits so iff S lies in rung n of the ladder of the parts
inside S worth <= c (``_split_probe``): the Moebius value of zeta(F)^n at
S alone, one zeta transform and one signed sum over the subsets of S,
with the signs built once per RMMS. Past the exact limit the ladder
climbs to a lower rung first. That test runs once at the candidate just
below MMS and, if it holds there, bisects below it: O(log C) ladders and
no pack search. On generated tables RMMS mostly equals mFS or lies one
candidate below, so one or two checks remain, where the gallop from MMS
made about 8 at m = 12. So for every kind each RMMS check, at or below
the bound, lies at or below a proven mFS and stops at rung n - 2. The
ladder at candidates[i - 1] is the residual check's at candidates[i], so
the last probe that fails to split hands a copy of its zeta(F) to the
first check when that check reads a transformed rung: at n >= 4.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from itertools import accumulate
from math import inf
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    Bundle,
    Instance,
    InvariantError,
    Valuation,
    _bit_views,
    _check_agent,
    _check_cap,
    _check_range,
    _item_pairs,
    _kept,
    _subset_sums,
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


class _Record(NamedTuple):
    """Everything the searches keep about one valuation: v(S) for every
    mask, as a tuple and as a read-only int64 array, the item-weight sums
    of the pack bound, and the pack memo. ``sums[X]`` is the sum over j in
    X of a weight w_j, with sums[P] >= v(P) for every P, so a split of X
    into parts P has sum of v(P) <= sums[X]. ``failed`` maps a pack state
    (mask, q), keyed ``q * 2^m + mask``, to the least t at which it is
    known to fail; ``packed`` maps (mask, q) to the greatest t at which it
    is known to pack: the worst part of the partition found. ``most[s]`` is
    the most any s items are worth. ``workspace`` is the cover ladders'
    (see ``_CoverLadder``): their exact-factor limit and work buffers,
    empty until the first ladder."""

    table: tuple[int, ...]
    values: np.ndarray
    sums: tuple[int, ...]
    most: list[int]
    failed: dict[int, int]
    packed: dict[tuple[int, int], int]
    workspace: dict


def _on_valuation(fn):
    """Memoize fn(v, *args) in v's ``_kept`` dict ``"_shares"``.
    ``fn.kept(v, *args)`` returns the kept result, or None, computing
    nothing."""
    @wraps(fn)
    def memoized(v: Valuation, *args):
        memo = _kept(v, "_shares")
        key = (fn.__name__, *args)
        if key not in memo:
            memo[key] = fn(v, *args)
        return memo[key]

    def kept(v: Valuation, *args):
        return _kept(v, "_shares").get((fn.__name__, *args))

    memoized.kept = kept
    return memoized


def _check_query(v: Valuation, S: Bundle, n: int = 1,
                 agent: Optional[int] = None, t: int = 0) -> None:
    """Refuse a share query's arguments, in this order: n, the agent, t,
    the item cap, then S outside v's items."""
    if n < 1:
        raise ValueError(f"need at least one agent, got n={n}")
    _check_agent(agent, n)
    if t < 0:
        raise ValueError(f"threshold must be non-negative, got t={t}")
    _check_cap(v.m, "exact share solvers")
    _check_range(v, S)


# The one record kept: [valuation, record], keyed by identity.
_slot: list = [None, None]


def _record(v: Valuation) -> _Record:
    """The record of v. One slot is enough: callers ask about one agent
    many times in a row (its MMS probes, its MXS and the residual checks of
    its thresholds), so the record is rebuilt only when the agent changes.
    The slot is emptied first, so the old record is gone before the new one
    is built."""
    if _slot[0] is not v:
        _slot[:] = None, None
        _slot[:] = v, _build_record(v)
    return _slot[1]


def _build_record(v: Valuation) -> _Record:
    if v.kind == "table":
        values = np.array(v.values, dtype=np.int64)
        sums = _subset_sums([int((with_item - without).max())
                             for with_item, without in _item_pairs(values)])
        # Lower each weight, last item first, to the least that keeps
        # sums[X] >= v(X) for every X holding it. The anchored search's
        # states hold mostly high items, so those are tightened first.
        for (with_item, without), (worth, _) in reversed(list(
                zip(_item_pairs(sums), _item_pairs(values)))):
            np.add(without, (worth - without).max(), out=with_item)
        # most[s], the most any s items are worth, one popcount layer at a
        # time. For the other kinds it is the s most valuable items, up to
        # the cap, as the layer scan would double the cost of an additive
        # record at m = 12.
        popcount = _subset_sums((1,) * v.m, np.uint8)
        most = [int(values[popcount == s].max()) for s in range(v.m + 1)]
        table = v.values
    else:
        sums = values = _subset_sums(v.values)  # a cap only lowers marginals
        most = list(accumulate(sorted(v.values, reverse=True), initial=0))
        if v.kind == "capped_additive":
            values = np.minimum(sums, v.cap)
            most = [min(value, v.cap) for value in most]
        table = tuple(values.tolist())
    values.flags.writeable = False
    weight_sums = table if values is sums else tuple(sums.tolist())
    return _Record(table, values, weight_sums, most, {}, {}, {})


def _fewest(rec: _Record, t: int) -> int:
    """The fewest items a part worth >= t can hold: m + 1 if none can."""
    return bisect_left(rec.most, t)


@_on_valuation
def _candidate_values(v: Valuation, smask: int) -> tuple[int, ...]:
    """Distinct subset values of smask, ascending. Always contains 0 for a
    valid valuation."""
    values = _record(v).values
    if smask != values.size - 1:
        values = values[(np.arange(values.size) | smask) == smask]
    values = np.sort(values)
    # The least value, then each value above the one before it.
    return (int(values[0]), *values[1:][values[1:] != values[:-1]].tolist())


# The pack and cover steps are module functions, not closures: a recursive
# closure refers to itself, so its memo would live until the cycle
# collector runs instead of going as soon as the search is dropped.
def _pack(
    table: tuple[int, ...], sums: tuple[int, ...], t: int,
    failed: dict[int, int], remaining: int, parts: int, fewest: int,
) -> Optional[list[int]]:
    """The first split of ``remaining`` into ``parts`` parts each worth
    >= t > 0, as part masks, or None. Each part is anchored on the lowest
    remaining item and candidate parts are scanned in ascending mask order.

    ``sums`` are the record's item-weight sums: the parts of X are worth at
    most ``sums[X]`` in all, so a state with ``sums[remaining] < parts * t``
    fails, and a candidate part that leaves less than ``(parts - 1) * t``
    is skipped. ``fewest`` is the fewest items a part worth >= t can hold
    (0 for no bound), so a state with fewer than ``parts * fewest`` items
    fails. When a candidate worth >= t leaves a remainder that fails, the
    scan jumps past the candidates that only add items below its lowest
    scanned item: their remainders lie inside the failed one. None of these
    prunes a partition, so the first one found is the same. ``failed`` is
    the failure memo (see ``_Record``); pass ``{}`` for a fresh search. A
    state fails without a search when it is known to fail at some t' <= t,
    or when the state with one more item is."""
    if table[remaining] < t:
        return None  # monotone: no part inside `remaining` can reach t
    if parts == 1:
        return [remaining]
    if (sums[remaining] < parts * t
            or remaining.bit_count() < parts * fewest):
        return None
    # The state's key is parts * 2^m + remaining, so key | e is the key of
    # the state with item e added.
    size = len(table)
    key = parts * size + remaining
    if failed.get(key, inf) <= t:
        return None
    p = (size - 1) ^ remaining
    while p:
        e = p & -p
        known = failed.get(key | e, inf)
        if known <= t:
            failed[key] = known
            return None
        p ^= e
    low = remaining & -remaining
    rest = remaining ^ low
    need = (parts - 1) * t
    sub = 0
    while True:
        part = low | sub
        if table[part] >= t:
            left = remaining ^ part
            if table[left] >= t and sums[left] >= need:
                tail = _pack(table, sums, t, failed, left, parts - 1, fewest)
                if tail is not None:
                    return [part] + tail
            # left fails, and the parts up to sub + lowbit(sub) only add
            # lower items to this one: their remainders lie inside left.
            sub = (sub + ~rest + (sub & -sub)) & rest
            if not sub:
                break
        else:
            # No wrap: sub = rest is the part ``remaining``, worth >= t.
            sub = (sub - rest) & rest
    failed[key] = t
    return None


def _packs(rec: _Record, mask: int, q: int, t: int) -> bool:
    """Whether mask splits into q parts worth >= t; reads and extends both
    memos of rec. A partition found packs mask at every t' up to its worst
    part, so ``packed`` keeps that worst part."""
    key = (mask, q)
    if rec.packed.get(key, -1) >= t:
        return True
    parts = _pack(rec.table, rec.sums, t, rec.failed, mask, q,
                  _fewest(rec, t))
    if parts is None:
        return False
    rec.packed[key] = min(map(rec.table.__getitem__, parts))
    return True


def _cover(
    weights: Sequence[int], bound: int, failed: set[int],
    mask: int, parts: int,
) -> Optional[list[int]]:
    """The first split of ``mask`` into ``parts`` parts P with
    ``weights[P] <= bound``, as part masks, or None. Empty parts are
    allowed, so this asks for at most ``parts`` non-empty parts. Each part
    is anchored on the lowest remaining item and candidate parts are scanned
    in ascending mask order.

    When a candidate is too heavy, the scan jumps past the candidates that
    only add items below its lowest scanned item: they hold it, so are as
    heavy. That prunes no split, so the first one found is the same.
    ``failed`` collects the (mask, parts) states that fail under these
    weights and this bound; pass ``set()`` for a fresh search. It never
    hits at parts <= 3, but more than halves the calls at parts = 5.
    ``weights``, any int sequence indexed by mask, must be monotone, so
    that the family is downward-closed. MXS passes ``memoryview(g)``,
    which reads Python ints in place: a list would copy all 2^m (40 MiB at
    m = 20), and the array itself yields numpy scalars, slower to
    compare."""
    if mask == 0:
        return [0] * parts
    if parts == 1:
        return [mask] if weights[mask] <= bound else None
    key = parts * len(weights) + mask  # as in ``_pack``
    if key in failed:
        return None
    low = mask & -mask
    rest = mask ^ low
    sub = 0
    while True:
        part = low | sub
        if weights[part] <= bound:
            tail = _cover(weights, bound, failed, mask ^ part, parts - 1)
            if tail is not None:
                return [part] + tail
            sub = (sub - rest) & rest
        else:
            # The parts up to sub + lowbit(sub) hold this one: as heavy.
            sub = (sub + ~rest + (sub & -sub)) & rest
        if not sub:
            break
    failed.add(key)
    return None


def _zeta(views: list[tuple[np.ndarray, np.ndarray]]) -> None:
    """In place, over the ``_bit_views`` of an array a: a[X] becomes the
    sum of a over the submasks of X."""
    for with_item, without in views:
        np.add(with_item, without, out=with_item)


def _moebius(views: list[tuple[np.ndarray, np.ndarray]]) -> None:
    """In place: the inverse of ``_zeta``."""
    for with_item, without in views:
        np.subtract(with_item, without, out=with_item)


def _exact_factors(m: int) -> int:
    """The most zeta factors a cover product over m items may have and
    still be read exactly from int64: the largest j, up to 63, with
    (2^j - 1)^m < 2^63."""
    j = 1
    while j < 63 and (2 ** (j + 1) - 1) ** m < 2 ** 63:
        j += 1
    return j


def _moebius_signs(smask: int, m: int) -> np.ndarray:
    """(-1)^|S - Y| at every mask Y inside S = smask and 0 elsewhere, over
    all 2^m masks: the dot product of these signs with an array is the
    Moebius transform of that array at S alone."""
    signs = np.ones(1 << m, dtype=np.int64)
    for i, (with_item, without) in enumerate(_item_pairs(signs)):
        if smask >> i & 1:
            np.negative(without, out=without)
        else:
            with_item.fill(0)
    return signs


class _CoverLadder:
    """The cover search for every mask at once.

    ``family`` is a boolean array over all 2^m masks that marks a
    downward-closed family F (so it holds the empty mask). Rung k is the
    boolean array "X is a union of at most k members". As F is
    downward-closed, that is "X splits into at most k members", the
    question ``_cover`` answers for one X. Rung 1 is F itself. Rungs are
    computed only when asked for, in any order, each as one Moebius
    transform of a product of zeta transforms (Bjorklund, Husfeldt, Kaski
    and Koivisto 2007): ``moebius(zeta(F)^k) > 0``. ``holds`` reads one
    rung at one mask alone, with a signed sum in place of the transform.

    The product is exact although it wraps. Moebius(zeta(F)^k) at X counts
    the k-tuples of members whose union is X: each item of X lies in at
    least one of the k, so the count is at most (2^k - 1)^|X|. Products,
    sums and differences of int64 arrays are exact modulo 2^64, so a
    count below 2^63 is read exactly even where zeta(F)^k wraps. That
    holds for up to ``_exact_factors(m)`` factors: 3 at
    ``MAX_EXACT_ITEMS`` = 20, 5 at m = 12. A rung further up starts from
    a lower rung B, the highest one reachable, as the new base: rung
    b + i is ``moebius(zeta(B) * zeta(F)^i) > 0``, with i + 1 factors.

    The transforms run in ``workspace``: int64 buffers over all masks, each
    with its ``_bit_views``, for zeta(F), the product and, once the ladder
    rebases, zeta(B). Each buffer is built at its first use, and the
    exact-factor limit at the first ladder. The search record keeps one
    workspace for every ladder of its agent, and a ladder given none makes
    its own. ``zeta``, if given, is zeta(F) made already,
    copied in instead of transformed. One ladder at a time uses a
    workspace: a ladder that finds another's zeta(F) there makes its own
    again, and its base with it. Each rung is a new array, so it stays
    valid after the ladder moves on.
    """

    def __init__(self, family: np.ndarray, workspace: Optional[dict] = None,
                 zeta: Optional[np.ndarray] = None):
        self.family = family
        workspace = {} if workspace is None else workspace
        if "limit" not in workspace:  # once per record
            workspace["limit"] = _exact_factors(family.size.bit_length() - 1)
        self._workspace, self._limit = workspace, workspace["limit"]
        self._zeta = zeta  # zeta(F) made elsewhere, until it is copied in
        # Marks the workspace as this ladder's. The ladder itself would make
        # a cycle, and the buffers would outlive the record until collected.
        self._token = object()
        self._at = 1  # the rung whose zeta is the base; 1 is zeta(F)
        self._last = 1, family  # the last rung computed, and its k

    def _buffer(self, name: str) -> tuple[np.ndarray, list]:
        """The workspace's buffer ``name`` and its views."""
        if name not in self._workspace:
            a = np.empty(self.family.size, np.int64)
            self._workspace[name] = a, _bit_views(a)
        return self._workspace[name]

    def zeta(self) -> np.ndarray:
        """zeta(F), in the workspace until another ladder uses it."""
        members, views = self._buffer("zeta")
        if self._workspace.get("owner") is not self._token:
            if self._zeta is None:
                np.copyto(members, self.family)
                _zeta(views)
            else:
                np.copyto(members, self._zeta)
            self._zeta, self._at = None, 1
            self._workspace["owner"] = self._token
        return members

    def _product(self, k: int) -> tuple[np.ndarray, list]:
        """The product buffer and its views. The buffer now holds
        zeta(B) * zeta(F)^(k - b) for the base B, rung b, whose Moebius
        transform counts exactly and is positive on rung k alone."""
        members = self.zeta()
        product, views = self._buffer("product")
        if k < self._at:
            self._at = 1
        while k - self._at >= self._limit:
            self._rebase(self._at + self._limit - 1)
        np.copyto(product,
                  members if self._at == 1 else self._buffer("base")[0])
        for _ in range(k - self._at):
            np.multiply(product, members, out=product)
        return product, views

    def _rebase(self, k: int) -> None:
        """Make rung k the base."""
        last, rung = self._last
        if last != k:
            rung = self.rung(k)
        base, views = self._buffer("base")
        np.copyto(base, rung)
        _zeta(views)
        self._at = k

    def rung(self, k: int) -> np.ndarray:
        """Rung k >= 1: "X is a union of at most k members", for every X."""
        if k == 1:
            return self.family
        product, views = self._product(k)
        _moebius(views)
        rung = product > 0
        self._last = k, rung
        return rung

    def holds(self, k: int, signs: np.ndarray) -> bool:
        """Whether S lies in rung k, for the S of ``signs``, its
        ``_moebius_signs``: one signed sum over the subsets of S."""
        product, _ = self._product(k)
        return bool(np.dot(signs, product) > 0)


def _partition(
    rec: _Record, smask: int, q: int, t: int
) -> Optional[tuple[Bundle, ...]]:
    if t == 0:
        return (Bundle(smask),) + (Bundle(),) * (q - 1)
    parts = _pack(rec.table, rec.sums, t, rec.failed, smask, q,
                  _fewest(rec, t))
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
    _check_query(v, S, t=t)
    return _partition(_record(v), S.mask, q, t)


def _canonical(parts: tuple[Bundle, ...]) -> tuple[Bundle, ...]:
    return tuple(sorted(parts))


@_on_valuation
def _mms(v: Valuation, smask: int, n: int) -> ShareReport:
    rec = _record(v)
    candidates = _candidate_values(v, smask)
    # candidates[lo] packs and candidates[hi], if any, fails. A pack at t has
    # a worst part worth some p >= t, kept in packed, so every candidate up
    # to p packs and lo moves to p. The first probes jump to the first
    # candidate above p: the packs on the way are cheap, and the first
    # failure usually ends the search. A jump can gain as little as one
    # candidate, so after 4 * log2(C) probes, C candidates, the probes
    # bisect. On generated m = 12 instances, item values up to 10, 1,000 and
    # 100,000, the scan took at most 4.5 * log2(C) jumps, 1.5 * log2(C) on
    # average.
    lo, hi = 0, len(candidates)
    jumps, probes = 4 * len(candidates).bit_length(), 0
    while hi - lo > 1:
        mid = lo + 1 if probes < jumps else (lo + hi) // 2
        probes += 1
        if _packs(rec, smask, n, candidates[mid]):
            lo = bisect_right(candidates, rec.packed[smask, n], mid) - 1
        else:
            hi = mid
    witness = _partition(rec, smask, n, candidates[lo])
    return ShareReport("MMS", candidates[lo], _canonical(witness), None, n)


def mms(v: Valuation, S: Bundle, n: int, agent: Optional[int] = None) -> ShareReport:
    """Maximin share of S under v for n agents, with a witness partition."""
    _check_query(v, S, n, agent)
    kept = _mms(v, S.mask, n)
    return ShareReport("MMS", kept.value, kept.witness, agent, n)


# The residual check keeps only the maximal waiting removals, before it
# certifies and searches them, when more than this many removals wait in a
# rung. Below it, the m whole-lattice passes that find them cost more than
# the certifications and searches they save. Each rung's search timed both
# ways from the same memo (best of 5), summed, never filtering against a
# cutoff of 32, 128 or 384: 180 generated instances with n 3-4 and m 6-8
# (generate_instance(0, idx, n, m, kind, 10), idx < 10), 34.3 ms against
# 41.2, 33.7, 33.6 (always filtering 65.0); the 18 m = 12 instances of
# seed 1 (item values up to 10) 23.7 ms against 21.2, 20.3, 20.1; the same
# with values up to 1,000 91.5 ms against 78.7, 77.0, 75.8; seeds 2-3,
# 44.2 ms against 38.5, 36.4, 36.1, and with values up to 1,000 170.6 ms
# against 136.3, 133.4, 133.6. A cutoff of 256 read within 1.5% of 128 on
# every set, either way.
MAXIMAL_FIRST_REMOVALS = 128


def _certified(
    rec: _Record, smask: int, q: int, t: int, waiting: np.ndarray,
    parts: Sequence[int],
) -> np.ndarray:
    """For each R of ``waiting``, whether ``parts``, masks partitioning
    smask, show that X = smask ^ R splits into q parts worth >= t. The
    parts are walked in order: one with X inside it worth >= t is a bundle,
    and the others pile up in a union, a bundle as soon as X inside it is
    worth >= t. Items left over join any bundle, as values are monotone.
    False only means no such bundles were found. Two gathers per part:
    O(len(parts)) passes over ``waiting``."""
    values = rec.values
    rest = smask ^ waiting
    union = np.zeros_like(rest)
    bundles = np.zeros(waiting.shape, np.int64)
    for part in parts:
        inside = rest & part
        whole = values[inside] >= t
        union |= np.where(whole, 0, inside)
        # The union was worth < t before, so it closes only where not whole.
        closed = values[union] >= t
        union[closed] = 0
        bundles += whole | closed
    return bundles >= q


def _failing(
    rec: _Record, smask: int, q: int, t: int, waiting: np.ndarray,
    parts: Sequence[int],
) -> Optional[int]:
    """A removal R of ``waiting`` (ascending masks inside smask) whose
    remainder smask ^ R does not split into q parts worth >= t, or None if
    every remainder splits.

    A remainder that packs has supersets that pack, so if R is inside R'
    and smask ^ R' packs, so does smask ^ R. Every waiting R lies under a
    waiting R' with no waiting R' + e: with many waiting, only those are
    kept. ``parts`` are masks of a partition of smask, each worth >= t, or
    empty: the kept removals that leave q of them, or unions of them, worth
    >= t are certified (``_certified``) and not searched. The others are
    searched in ascending order of remainder value, a stable sort, so that
    likely failures come first, and the first failure answers."""
    removals = waiting
    if waiting.size > MAXIMAL_FIRST_REMOVALS:
        marked = np.zeros(rec.values.size, dtype=bool)
        marked[waiting] = True
        # below[X]: some waiting removal is X plus one item.
        below = np.zeros_like(marked)
        for (_, below_without), (marked_with, _) in zip(
                _item_pairs(below), _item_pairs(marked)):
            np.logical_or(below_without, marked_with, out=below_without)
        removals = waiting[~below[waiting]]
    removals = removals[~_certified(rec, smask, q, t, removals, parts)]
    removals = removals[np.argsort(rec.values[smask ^ removals],
                                   kind="stable")]
    return next((R for R in removals.tolist()
                 if not _packs(rec, smask ^ R, q, t)), None)


def _parts_within(rec: _Record, smask: int, bound: int) -> np.ndarray:
    """The masks inside smask worth <= bound, over all 2^m masks: a
    downward-closed family, as values are monotone."""
    masks = np.arange(rec.values.size)
    return (rec.values <= bound) & ((masks | smask) == smask)


def _residual_failure(
    rec: _Record, smask: int, n: int, t: int,
    parts: Optional[Sequence[int]], last: int,
    zeta: Optional[np.ndarray] = None,
) -> Optional[tuple[int, np.ndarray, int]]:
    """(k, removals, R) at which threshold t fails the residual check of
    (S, n), or None if t is residual feasible. k is the least failing k,
    removals the ascending removals whose binding k is k, and R one of them
    whose remainder fails; (0, [0], 0) when S itself does not split. A rung
    with a remainder worth < t fails without a search, and the first
    failure found answers. ``parts`` are masks of an n-partition of S with
    every part worth >= t, or None when S has none; ``_failing`` certifies
    removals against them. The walk reads rungs 1 to ``last``: n - 1 for
    the whole check, or n - 2 where t <= mFS is known, as at k = n - 1 a
    removal fails only by leaving a remainder worth < t, a split of S into
    n parts worth < t. ``zeta``, if given for t > 0, is zeta(F) of the
    parts inside S worth < t, and the walk's ladder starts from it."""
    if parts is None:
        return 0, np.zeros(1, dtype=np.int64), 0
    if t == 0 or last < 1:
        # At t = 0, (S, {}, ..., {}) is acceptable, and no bundle has value
        # < 0, so no removals qualify for any k >= 1. Otherwise no rung is
        # left to read.
        return None
    # The removals split into parts inside S worth < t, that is <= t - 1:
    # values are integers. Rung k minus rung k - 1 holds the removals whose
    # binding k is k; rung 0 is R = 0 alone, checked above.
    ladder = _CoverLadder(_parts_within(rec, smask, t - 1), rec.workspace,
                          zeta)
    values = rec.values
    fewer = np.arange(values.size) == 0
    for k in range(1, last + 1):
        rung = ladder.rung(k)
        removals = (rung & ~fewer).nonzero()[0]
        # A remainder worth < t has no part worth >= t, so it fails without
        # a search, and with one part left no other remainder can fail.
        short = (values[smask ^ removals] < t).nonzero()[0]
        if short.size:
            return k, removals, int(removals[short[0]])
        if n - k > 1:
            R = _failing(rec, smask, n - k, t, removals, parts)
            if R is not None:
                return k, removals, R
        fewer = rung
    return None


def is_residual_feasible(v: Valuation, S: Bundle, n: int, t: int) -> ResidualCheck:
    """Check residual feasibility of threshold t for (v, S, n).

    True iff for every k in [0, n) and every removed set R that splits into
    k disjoint bundles each of value < t, the remainder has an (n-k)-partition
    with all parts >= t. On failure, the first offending (k, R) in (k
    ascending, R ascending) order comes back as a counterexample.
    """
    _check_query(v, S, n, t=t)
    rec = _record(v)
    partition = _partition(rec, S.mask, n, t)
    parts = None if partition is None else [p.mask for p in partition]
    failure = _residual_failure(rec, S.mask, n, t, parts, n - 1)
    if failure is None:
        return ResidualCheck(True)
    # The walk's k is the least failing k. A search of the removals below
    # the current R returns a failing one, strictly below it, or None when
    # every one of them packs: then the current R is the first. A remainder
    # worth < t fails ``_packs`` without a search. At k = 0 no removal lies
    # below R = 0, and there are no parts.
    k, removals, first = failure
    if _packs(rec, S.mask ^ first, n - k, t):
        raise InvariantError(
            f"the remainder of removal {first} failed to split, then split")
    while (R := _failing(rec, S.mask, n - k, t, removals[removals < first],
                         parts or ())) is not None:
        first = R
    return ResidualCheck(False, k, Bundle(first))


def _split_probe(
    rec: _Record, smask: int, n: int, c: int, signs: np.ndarray,
) -> Optional[_CoverLadder]:
    """None if S splits into at most n parts worth <= c, and otherwise the
    probe's ladder of the parts F inside S worth <= c, whose zeta(F) stays
    in the workspace until another ladder uses it. S splits so iff it lies
    in rung n of that ladder, read at S alone through ``signs``, the
    ``_moebius_signs`` of S."""
    ladder = _CoverLadder(_parts_within(rec, smask, c), rec.workspace)
    return None if ladder.holds(n, signs) else ladder


@_on_valuation
def _rmms(v: Valuation, smask: int, n: int) -> ShareReport:
    maximin = _mms(v, smask, n)
    ceiling = maximin.value
    # The MMS witness splits S into n parts worth >= MMS: parts worth >= t
    # for every candidate checked.
    parts = [p.mask for p in maximin.witness]
    candidates = [c for c in _candidate_values(v, smask) if c <= ceiling]
    rec = _record(v)
    top, zeta = len(candidates) - 1, None

    # The bound (see the module docstring): MMS for additive and capped
    # valuations, which have mFS >= MMS; probing them changed their RMMS
    # time at m 10-14 by -6% to +21%. A table gets one probe just below MMS
    # and, if it splits S, a bisection below it for mFS. The probe at
    # candidates[i - 1] makes zeta(F) of the check at candidates[i], as the
    # parts worth <= candidates[i - 1] are those worth < candidates[i]. So
    # the last probe that does not split, at top - 1, hands its zeta(F) to
    # the first check, at top, when that check reads a transformed rung:
    # at n >= 4, as the check stops at rung n - 2 and rung 1 is F itself.
    if n > 1 and top > 0 and v.kind == "table":
        signs = _moebius_signs(smask, v.m)

        def splits(i: int) -> bool:
            nonlocal zeta
            ladder = _split_probe(rec, smask, n, candidates[i], signs)
            if ladder is not None and n >= 4:
                zeta = ladder.zeta().copy()
            return ladder is None

        if splits(top - 1):
            lo, top = 0, top - 1
            while lo < top:
                mid = (lo + top) // 2
                if splits(mid):
                    top = mid
                else:
                    lo = mid + 1

    # mFS >= candidates[top]: that is MMS for additive and capped
    # valuations, and a table's S does not split at candidates[top - 1], if
    # top > 0, while mFS is a subset value of S. So every check, at or
    # below candidates[top], stops at rung n - 2.
    def feasible(i: int, zeta: Optional[np.ndarray] = None) -> bool:
        return _residual_failure(rec, smask, n, candidates[i], parts, n - 2,
                                 zeta) is None

    # Feasibility is monotone in t: for t' < t, every removal that qualifies
    # at t' (parts worth < t') also qualifies at t, and a pack at t is also a
    # pack at t'. So a gallop down from the bound (steps 1, 2, 4, ...) and a
    # bisection find the largest feasible candidate in O(log C) checks.
    # Galloping pays only because feasible checks are cheap, the check
    # searching the maximal removals of a rung first. candidates[hi] is
    # infeasible; hi = len(candidates) stands for a threshold above MMS.
    hi, lo, step = top + 1, top, 1
    while not feasible(lo, zeta):
        zeta = None
        if lo == 0:
            raise InvariantError("t = 0 is always residual feasible")
        hi, lo, step = lo, max(lo - step, 0), 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    if lo == len(candidates) - 1:
        # RMMS = MMS: the canonical partition at MMS is the MMS witness.
        witness = maximin.witness
    else:
        witness = _canonical(_partition(rec, smask, n, candidates[lo]))
    return ShareReport("RMMS", candidates[lo], witness, None, n)


def rmms(v: Valuation, S: Bundle, n: int, agent: Optional[int] = None) -> ShareReport:
    """Residual maximin share: the largest residual-feasible threshold.

    The optimum is attained at a subset value because feasibility only
    depends on t through comparisons against subset values, so scanning the
    distinct subset values suffices.
    """
    _check_query(v, S, n, agent)
    kept = _rmms(v, S.mask, n)
    return ShareReport("RMMS", kept.value, kept.witness, agent, n)


# MXS scans thresholds on the cover ladder from this many items up. Below
# it the cover searches are as cheap or cheaper. All agents of
# generate_instance(1, idx, n, m, kind, 10), idx < 4, n 3-4, every kind,
# each agent's MMS first, MXS CPU s in the median of 9 rounds, cover
# against ladder: 0.053 against 0.054 at m = 9 (0.057 against 0.074 with
# item values up to 1,000), 0.124 against 0.068 at m = 10.
MXS_LADDER_ITEMS = 10


def _mxs_cover(rec: _Record, g: np.ndarray, n: int) -> tuple[int, int, list[int]]:
    """(MXS, own bundle, the other n - 1 bundles) by one cover search per
    own bundle, in (value, mask) order."""
    table = rec.table
    full = len(table) - 1
    weights = memoryview(g)
    for own in np.argsort(rec.values, kind="stable").tolist():
        others = _cover(weights, table[own], set(), full ^ own, n - 1)
        if others is not None:
            return table[own], own, others
    raise InvariantError("own = all items always admits an envy-free remainder")


def _mxs_ladder(
    rec: _Record, g: np.ndarray, n: int, candidates: tuple[int, ...],
    bound: float,
) -> tuple[int, int, list[int]]:
    """(MXS, own bundle, the other n - 1 bundles) by a scan over thresholds
    on the cover ladder; the same result as ``_mxs_cover``. The bisection
    looks only at candidates up to ``bound``, the same result for any
    bound."""
    values = rec.values
    full = values.size - 1
    own_value = values[::-1]  # own_value[X] = v(full ^ X)
    # Every X splits into its singletons, worth g = 0 and so never envied:
    # rung m holds every mask, and no rung above it is needed.
    k = min(n - 1, full.bit_length())
    # The rungs at which the predicate held: all at t >= candidates[hi], so
    # the scan up from candidates[lo] may read them again. A rung at which
    # it failed lies below the new lo, and is dropped.
    kept: dict[int, np.ndarray] = {}

    def coverable(t: int) -> np.ndarray:
        """X splits into at most n - 1 parts the agent does not envy at t."""
        if t in kept:
            return kept.pop(t)
        return _CoverLadder(g <= t, rec.workspace).rung(k)

    # If the predicate fails up to the bound, it fails below the least t
    # with an exact hit, and the scan up from hi still stops there.
    lo, hi = 0, bisect_right(candidates, bound) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        t = candidates[mid]
        rung = coverable(t)
        if (rung & (own_value <= t)).any():
            hi, kept[t] = mid, rung
        else:
            lo = mid + 1
    for t in candidates[lo:]:
        hits = np.flatnonzero(coverable(t) & (own_value == t))
        if hits.size:
            own = full ^ int(hits[-1])
            return t, own, _cover(memoryview(g), t, set(), full ^ own, n - 1)
    raise InvariantError("own = all items always admits an envy-free remainder")


def mxs(inst: Instance, agent: int) -> ShareReport:
    """Minimum EFX share: cheapest own bundle in some full allocation in
    which the agent has no EFX envy toward anyone.

    Quantifies over full allocations, so with a single agent the only
    allocation hands her everything.
    """
    n, m = inst.n, inst.m
    _check_agent(agent, n)
    v = inst.valuations[agent]
    _check_query(v, inst.all_items)
    full = (1 << m) - 1
    if n == 1:
        return ShareReport("MXS", v.value_of(full), (Bundle(full),), agent, 1)

    # g[P] is the most the agent values P with one item taken out, so she
    # has no EFX envy toward P iff g[P] <= v(own).
    rec = _record(v)
    g = np.zeros_like(rec.values)
    for (with_item, _), (_, without) in zip(_item_pairs(g),
                                            _item_pairs(rec.values)):
        np.maximum(with_item, without, out=with_item)

    # Split the complement of the own bundle into n-1 bundles none of which
    # the agent EFX-envies. "Not envied" is downward-closed because g is
    # monotone, so empty parts are fine.
    if m >= MXS_LADDER_ITEMS:
        # MXS <= MMS, so a kept MMS brackets the bisection; it is never
        # computed just for this.
        kept = _mms.kept(v, full, n)
        bound = inf if kept is None else kept.value
        value, own, others = _mxs_ladder(rec, g, n, _candidate_values(v, full),
                                         bound)
    else:
        value, own, others = _mxs_cover(rec, g, n)
    bundles = others[:agent] + [own] + others[agent:]
    return ShareReport("MXS", value, tuple(Bundle(b) for b in bundles), agent, n)


# The valuation classes of each kind, tightest first: the first class's
# ratio_bound is the kind's guarantee. Tables belong to none.
_KIND_CLASSES = {"additive": ("additive", "subadditive"),
                 "capped_additive": ("subadditive",), "table": ()}


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
