"""Output checks for the benchmark workloads.

Every check re-derives the answer independently of the code under test and
returns a list of problems (empty when the output is correct). The checks
run outside the timed region of each operation.

- Shares at m = 12 are beyond the brute-force oracles, so ``check_shares``
  checks the share chain and every witness instead of optimality.
- ``brute_mms`` and ``brute_mxs`` scan all n^m assignments with numpy. They
  are the same exhaustive definitions as ``rmms.oracle.brute_mms`` and
  ``brute_mxs`` (the benchmark's tests require equal results), vectorised so
  that checking a small instance costs about as much as solving it.
- ``EnvyReference`` derives the four envy predicates from per-bundle
  tables built from their definitions, not from ``rmms.fairness``.
"""
from __future__ import annotations

import csv
import io
from fractions import Fraction

import numpy as np

from rmms import oracle

# The header ``rmms bench`` must keep, written out here rather than taken
# from ``rmms.cli`` so that a changed header fails the check.
BENCH_COLUMNS = [
    "seed", "index", "n", "m", "kind", "algorithm", "status",
    "mms", "mxs", "rmms", "ratio_num", "ratio_den", "ratio_decimal",
    "efx", "efl", "ef1", "value_queries", "comparison_queries",
]


def _value_table(v, m: int) -> np.ndarray:
    return np.array([v.value_of(mask) for mask in range(1 << m)], dtype=np.int64)


def _mask_of(items) -> int:
    mask = 0
    for e in items:
        mask |= 1 << e
    return mask


def _partition_problems(inst, witness, label: str) -> tuple[list[str], list[int]]:
    """Problems with ``witness`` as an n-bundle partition of all items."""
    if not isinstance(witness, list) or len(witness) != inst.n:
        return [f"{label}: witness is not a list of {inst.n} bundles"], []
    masks, seen = [], 0
    for bundle in witness:
        mask = _mask_of(bundle)
        if mask & seen or mask >> inst.m or len(bundle) != mask.bit_count():
            return [f"{label}: witness bundles overlap or repeat items"], []
        seen |= mask
        masks.append(mask)
    if seen != (1 << inst.m) - 1:
        return [f"{label}: witness does not cover all items"], []
    return [], masks


def check_shares(inst, report) -> list[str]:
    """Check ``rmms shares --share all`` output for one instance.

    MXS <= RMMS <= MMS; the MMS witness is a partition whose worst part is
    worth exactly the MMS; the RMMS witness is a partition with every part
    worth at least the RMMS; the MXS witness is a full allocation whose own
    bundle is worth the MXS and in which the agent has no EFX envy.
    """
    expected = [(i, kind) for i in range(inst.n) for kind in ("mms", "mxs", "rmms")]
    if [(r.get("agent"), r.get("share")) for r in report] != expected:
        return ["share rows are missing or out of order"]
    problems = []
    for i in range(inst.n):
        v = inst.valuations[i]
        rows = {r["share"]: r for r in report[3 * i: 3 * i + 3]}
        vals = {k: r["value"] for k, r in rows.items()}
        if not all(type(x) is int for x in vals.values()):
            problems.append(f"agent {i}: share values are not integers")
            continue
        if not vals["mxs"] <= vals["rmms"] <= vals["mms"]:
            problems.append(f"agent {i}: share chain broken: {vals}")
        for kind in ("mms", "rmms"):
            bad, masks = _partition_problems(inst, rows[kind]["witness"], f"agent {i} {kind}")
            problems += bad
            if masks:
                worst = min(v.value_of(mask) for mask in masks)
                if worst < vals[kind] or (kind == "mms" and worst != vals[kind]):
                    problems.append(
                        f"agent {i} {kind}: worst witness part {worst} vs value {vals[kind]}"
                    )
        bad, masks = _partition_problems(inst, rows["mxs"]["witness"], f"agent {i} mxs")
        problems += bad
        if masks:
            own = v.value_of(masks[i])
            if own != vals["mxs"]:
                problems.append(f"agent {i} mxs: own bundle {own} != value {vals['mxs']}")
            for j, other in enumerate(masks):
                if j != i and any(
                    own < v.value_of(other ^ (1 << e))
                    for e in range(inst.m) if other >> e & 1
                ):
                    problems.append(f"agent {i} mxs: EFX envy toward bundle {j}")
    return problems


class BruteShares:
    """Exhaustive MMS and MXS over all n^m assignments, vectorised.

    The bundle masks of every assignment depend only on (n, m) and are
    cached per shape.
    """

    def __init__(self):
        self._bundles: dict[tuple[int, int], np.ndarray] = {}

    def bundles(self, n: int, m: int) -> np.ndarray:
        """Array of shape (n^m, n): the bundle mask of each agent slot."""
        key = (n, m)
        if key not in self._bundles:
            assignment = np.indices((n,) * m).reshape(m, -1).T  # items as digits
            bits = (1 << np.arange(m, dtype=np.int64))
            self._bundles[key] = np.stack(
                [((assignment == slot) * bits).sum(axis=1) for slot in range(n)],
                axis=1,
            )
        return self._bundles[key]

    def mms(self, inst, agent: int) -> int:
        table = _value_table(inst.valuations[agent], inst.m)
        return int(table[self.bundles(inst.n, inst.m)].min(axis=1).max())

    def mxs(self, inst, agent: int) -> int:
        m = inst.m
        table = _value_table(inst.valuations[agent], m)
        masks = np.arange(1 << m, dtype=np.int64)
        # best_drop[P] = max over items e in P of v(P - e): the agent has no
        # EFX envy toward P exactly when her own value is at least this.
        best_drop = np.zeros(1 << m, dtype=np.int64)
        for e in range(m):
            has = (masks >> e) & 1 == 1
            best_drop[has] = np.maximum(best_drop[has], table[masks[has] ^ (1 << e)])
        bundles = self.bundles(inst.n, m)
        own = table[bundles[:, agent]]
        others = np.delete(bundles, agent, axis=1)
        ok = (best_drop[others] <= own[:, None]).all(axis=1)
        return int(own[ok].min())


def check_bench_csv(text: str, inst, seed: int, kind: str, brute: BruteShares) -> list[str]:
    """Check the CSV of ``rmms bench --trials 1 --algorithm rmms-efl``.

    Share values must match the exhaustive references (RMMS from
    ``rmms.oracle.brute_rmms``), the ratio must be the least RMMS/MMS, and the
    final allocation must be EFL and hence EF1.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) != 2 or rows[0] != BENCH_COLUMNS:
        return ["bench CSV does not have the expected header and one row"]
    row = dict(zip(rows[0], rows[1]))
    n, m = inst.n, inst.m
    problems = []
    ident = {"seed": str(seed), "index": "0", "n": str(n), "m": str(m),
             "kind": kind, "algorithm": "rmms-efl", "status": "ok"}
    for col, want in ident.items():
        if row[col] != want:
            problems.append(f"{col} is {row[col]!r}, expected {want!r}")
    full = inst.all_items
    want = {
        "mms": [brute.mms(inst, i) for i in range(n)],
        "mxs": [brute.mxs(inst, i) for i in range(n)],
        "rmms": [oracle.brute_rmms(inst.valuations[i], full, n) for i in range(n)],
    }
    for col, values in want.items():
        if row[col] != "|".join(map(str, values)):
            problems.append(f"{col} is {row[col]}, reference {values}")
    ratios = [Fraction(r, mm) for r, mm in zip(want["rmms"], want["mms"]) if mm > 0]
    ratio = min(ratios) if ratios else None
    got = (row["ratio_num"], row["ratio_den"], row["ratio_decimal"])
    expect = (
        (str(ratio.numerator), str(ratio.denominator), f"{float(ratio):.6f}")
        if ratio is not None else ("", "", "")
    )
    if got != expect:
        problems.append(f"ratio is {got}, reference {expect}")
    if row["efl"] != "1" or row["ef1"] != "1" or row["efx"] not in ("0", "1"):
        problems.append(f"fairness flags efx={row['efx']} efl={row['efl']} ef1={row['ef1']}")
    for col in ("value_queries", "comparison_queries"):
        if not row[col].isdigit():
            problems.append(f"{col} is not a count: {row[col]!r}")
    return problems


class EnvyReference:
    """Envy verdicts of one instance from per-bundle tables.

    For a non-empty bundle P and an envier holding a bundle of value x:
    EF1 envy iff x < min_e v(P - e); EFL envy iff |P| >= 2 and
    x < min_e max(v({e}), v(P - e)); EFX envy iff x < max_e v(P - e), with
    the lowest such e as witness; EF envy iff x < v(P).
    """

    def __init__(self, inst):
        self.inst = inst
        m = inst.m
        self.tables = []
        for v in inst.valuations:
            val = [v.value_of(mask) for mask in range(1 << m)]
            ef1, efl, efx = [0] * (1 << m), [0] * (1 << m), [0] * (1 << m)
            for mask in range(1, 1 << m):
                drops = [val[mask ^ (1 << e)] for e in range(m) if mask >> e & 1]
                singles = [val[1 << e] for e in range(m) if mask >> e & 1]
                ef1[mask] = min(drops)
                efl[mask] = min(map(max, singles, drops)) if len(drops) >= 2 else 0
                efx[mask] = max(drops)
            self.tables.append((val, ef1, efl, efx))

    def kind(self, i: int, own: int, other: int) -> tuple[str, int | None]:
        val, ef1, efl, efx = self.tables[i]
        x = val[own]
        if other == 0:
            return "none", None
        if x < ef1[other]:
            return "EF1", None
        if x < efl[other]:
            return "EFL", None
        if x < efx[other]:
            e = next(e for e in range(self.inst.m)
                     if other >> e & 1 and x < val[other ^ (1 << e)])
            return "EFX", e
        if x < val[other]:
            return "EF", None
        return "none", None

    def certificate(self, bundles: list[int]) -> dict:
        n = self.inst.n
        holds = {"ef1": True, "efl": True, "efx": True, "ef": True}
        violations = []
        for i in range(n):
            val, ef1, efl, efx = self.tables[i]
            x = val[bundles[i]]
            for j in range(n):
                if i == j or not bundles[j]:
                    continue
                other = bundles[j]
                holds["ef1"] &= x >= ef1[other]
                holds["efl"] &= x >= efl[other]
                holds["efx"] &= x >= efx[other]
                holds["ef"] &= x >= val[other]
                kind, witness = self.kind(i, bundles[i], other)
                if kind != "none":
                    violations.append(
                        {"envier": i, "envied": j, "kind": kind, "witness": witness}
                    )
        return {**holds, "violations": violations}


def check_certify(ref: EnvyReference, partial, cert, completion) -> list[str]:
    """Check one certificate and, for EFL allocations, its completion.

    ``completion`` is None or (allocation, value queries issued).
    """
    bundles = [b.mask for b in partial.bundles]
    want = ref.certificate(bundles)
    problems = [] if cert == want else [f"certificate {cert} != reference {want}"]
    if want["efl"] != (completion is not None):
        problems.append("completion ran on a non-EFL allocation or was skipped")
    if completion is not None:
        full, value_queries = completion
        if full.pool.mask:
            problems.append("completion left items in the pool")
        if not ref.certificate([b.mask for b in full.bundles])["efl"]:
            problems.append("completion is not EFL")
        if value_queries:
            problems.append(f"completion issued {value_queries} value queries")
    return problems
