"""Command-line entry point: gen, shares, allocate, check, verify, bench.

Exit codes: 0 success, 2 validation failure, 3 solver cap exceeded,
4 property check failed (check/verify in assert mode).

Instance generation uses numpy's Philox counter-based generator keyed on
(seed, instance index), so outputs are byte-identical across platforms and
reruns. Benchmark CSVs are deterministic; wall-clock timings are therefore
opt-in (--timings) because they can never reproduce byte-for-byte.
"""
from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

from .core import (
    Bundle,
    CapExceededError,
    MAX_VALUE,
    Instance,
    InvariantError,
    PartialAllocation,
    QueryLedger,
    Additive,
    CappedAdditive,
    Table,
    _check_cap,
    _subset_sums,
    _write_json,
    allocation_from_json,
    allocation_to_json,
    dump_json,
    instance_from_json,
    instance_to_json,
    load_json,
    validate_instance,
)
from . import algorithms, fairness, oracle, shares

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAP = 3
EXIT_PROPERTY = 4


class PropertyCheckFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# instance generation

def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, index]))


def generate_valuation(rng: np.random.Generator, kind: str, m: int,
                       max_value: int, cap):
    values = tuple(int(x) for x in rng.integers(0, max_value + 1, size=m))
    if kind == "additive":
        return Additive(values)
    if kind == "capped_additive":
        if cap is None:
            total = max(1, sum(values))
            cap = int(rng.integers(1, total + 1))
        return CappedAdditive(values, cap)
    if kind == "table":
        # Additive base plus a random monotone bump: a subset's bump is its
        # own draw plus the largest bump one item below it. The draws come
        # in mask order, in one call, and the bumps one popcount layer at a
        # time; masks not yet reached still have bump 0, which no max
        # takes.
        size = 1 << m
        draws = rng.integers(0, max_value + 1, size=size - 1)
        if 2 * m * max_value >= 1 << 63:
            draws = draws.astype(object)  # past int64: exact, if slow
        base = _subset_sums(values, draws.dtype)
        bump = np.zeros_like(base)
        popcount = _subset_sums((1,) * m)
        masks = np.arange(size)
        for p in range(1, m + 1):
            layer = masks[popcount == p]
            floor = bump[layer & ~1]
            for i in range(1, m):
                np.maximum(floor, bump[layer & ~(1 << i)], out=floor)
            bump[layer] = floor + draws[layer - 1]
        # Monotone and normalized by construction; generate_instance
        # validates the whole instance once.
        return Table(tuple((base + bump).tolist()), validate=False)
    raise ValueError(f"unknown valuation kind {kind!r}")


def _check_generation(n: int, m: int, kind: str, max_value: int, cap) -> None:
    """Refuse generation arguments before any draw or output: a table's
    generation takes memory in 2^m (154 MB at m = 21), each kind's largest
    value follows from the arguments alone, and a run of no instances must
    refuse them too."""
    if max_value < 0:
        raise ValueError(f"--max-value must be at least 0, got {max_value}")
    if cap is not None and kind != "capped_additive":
        raise ValueError("--cap applies to --kind capped_additive only, "
                         f"not {kind}")
    if m < 1:
        raise ValueError(f"--items must be at least 1, got {m}")
    # The largest value the run can generate, and the flag that sets it.
    flag, given, top = "--max-value", max_value, max_value
    if kind == "table":
        _check_cap(m, "table valuations")
        # v(all items) is a generated table's largest value: m item values
        # and one bump per popcount layer, each at most max_value.
        top = 2 * m * max_value
    elif kind == "capped_additive":
        if cap is None:  # drawn up to the item sum
            top = m * max_value
        elif cap < 0:
            raise ValueError(f"--cap must be at least 0, got {cap}")
        elif cap > max_value:
            flag, given, top = "--cap", cap, cap
    if top > MAX_VALUE:
        raise ValueError(f"{flag} {given} gives {kind} values up to {top}, "
                         f"past {MAX_VALUE}")
    if n < 1:
        raise ValueError(f"need at least one agent, got n={n}")


def generate_instance(seed: int, index: int, n: int, m: int, kind: str,
                      max_value: int, cap=None) -> Instance:
    _check_generation(n, m, kind, max_value, cap)
    rng = _rng(seed, index)
    vals = tuple(
        generate_valuation(rng, kind, m, max_value, cap) for _ in range(n)
    )
    inst = Instance(m=m, n=n, valuations=vals)
    report = validate_instance(inst)
    if not report.ok:
        raise InvariantError(
            f"generator produced an invalid instance: {report.violations}"
        )
    return inst


def cmd_gen(args) -> int:
    if args.count < 0:
        raise ValueError(f"--count must be at least 0, got {args.count}")
    spec = args.agents, args.items, args.kind, args.max_value, args.cap
    _check_generation(*spec)
    out = Path(args.output)
    for idx in range(args.count):
        inst = generate_instance(args.seed, idx, *spec)
        if idx == 0:  # so that a refused run leaves nothing behind
            out.mkdir(parents=True, exist_ok=True)
        dump_json(instance_to_json(inst), out / f"instance_{args.seed}_{idx}.json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# shares / check / allocate / verify

def _load_instance(path: str) -> Instance:
    inst = instance_from_json(load_json(path), validate=False)
    report = validate_instance(inst)
    if not report.ok:
        raise ValueError(
            f"invalid instance {path}: {report.violations[0]['problem']}"
        )
    return inst


def cmd_shares(args) -> int:
    inst = _load_instance(args.instance)
    kinds = ("mms", "mxs", "rmms") if args.share == "all" else (args.share,)
    results = []
    for i in range(inst.n):
        for kind in kinds:
            if kind == "mxs":
                report = shares.mxs(inst, i)
            else:
                fn = shares.mms if kind == "mms" else shares.rmms
                report = fn(inst.valuations[i], inst.all_items, inst.n, agent=i)
            results.append(
                {
                    "agent": i,
                    "share": kind,
                    "value": report.value,
                    "witness": [b.items() for b in report.witness]
                    if report.witness is not None
                    else None,
                }
            )
    _emit(results, args.output)
    return EXIT_OK


def _load_allocation(path: str, inst: Instance) -> PartialAllocation:
    alloc = allocation_from_json(load_json(path), inst.m)
    if alloc.n != inst.n:
        raise ValueError(
            f"allocation has {alloc.n} bundles, instance has {inst.n} agents"
        )
    return alloc


def cmd_check(args) -> int:
    inst = _load_instance(args.instance)
    alloc = _load_allocation(args.allocation, inst)
    cert = fairness.certificate(inst, alloc)
    _emit(cert, args.output)
    if args.require and not cert[args.require]:
        raise PropertyCheckFailed(f"allocation is not {args.require.upper()}")
    return EXIT_OK


# The algorithms allocate and bench run; the last is the default.
_ALGORITHMS = ("envy-cycle", "rmms-efx", "rmms-efl")


def _run(algorithm: str, inst: Instance, ledger: QueryLedger, start=None,
         completion_ledger=None):
    """Run the named algorithm: envy-cycle from ``start`` or from nothing,
    and rmms-efl with its completion counted on ``completion_ledger``, or
    on a ledger of its own."""
    if algorithm == "envy-cycle":
        if start is None:
            start = PartialAllocation.empty(inst.m, inst.n)
        return algorithms.envy_cycle_run(inst, start, ledger)
    if algorithm == "rmms-efx":
        return algorithms.rmms_efx_partial(inst, ledger)
    return algorithms.rmms_efl_full(inst, ledger, completion_ledger)


def cmd_allocate(args) -> int:
    if args.start and args.algorithm != "envy-cycle":
        raise ValueError("--start applies to --algorithm envy-cycle only, "
                         f"not {args.algorithm}")
    inst = _load_instance(args.instance)
    start = _load_allocation(args.start, inst) if args.start else None
    alloc, trace = _run(args.algorithm, inst, QueryLedger(), start)
    _emit(allocation_to_json(alloc), args.output)
    if args.trace:
        dump_json(_trace_json(trace), args.trace)
    return EXIT_OK


def _trace_json(trace: algorithms.RunTrace) -> dict:
    out = {
        "rounds": trace.rounds,
        "matching": trace.matching,
        "last_added": trace.last_added,
        "value_queries": trace.ledger.value_queries,
        "comparison_queries": trace.ledger.comparison_queries,
    }
    if trace.rmms_values is not None:
        out["rmms_values"] = trace.rmms_values
    if trace.completion_ledger is not None:
        out["completion_value_queries"] = trace.completion_ledger.value_queries
        out["completion_comparison_queries"] = (
            trace.completion_ledger.comparison_queries
        )
    return out


def cmd_verify(args) -> int:
    corpus = [_load_instance(path) for path in args.instances]
    checks = args.checks.split(",") if args.checks else None
    report = oracle.verify_corpus(corpus, checks)
    _emit(report, args.output)
    if args.assert_mode:
        failed = sum(c["failed"] for c in report["checks"])
        if failed:
            raise PropertyCheckFailed(f"{failed} corpus check(s) failed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench

BENCH_COLUMNS = [
    "seed", "index", "n", "m", "kind", "algorithm", "status",
    "mms", "mxs", "rmms", "ratio_num", "ratio_den", "ratio_decimal",
    "efx", "efl", "ef1", "value_queries", "comparison_queries",
]


def _fraction_json(f):
    """An exact ratio as written out: numerator, denominator and decimal."""
    if f is None:
        return None
    return {"num": f.numerator, "den": f.denominator,
            "decimal": f"{float(f):.6f}"}


def _bench_one(task) -> dict:
    seed, index, n, m, kind, max_value, cap, algorithm, timings = task
    row = {
        "seed": seed, "index": index, "n": n, "m": m, "kind": kind,
        "algorithm": algorithm,
    }
    inst = generate_instance(seed, index, n, m, kind, max_value, cap)
    ledger = QueryLedger()
    started = time.perf_counter()
    # Agent by agent, so that RMMS runs on the pack memo MMS left and all
    # three shares use one record per agent; rmms_efx_partial reuses the
    # RMMS values kept on the valuations.
    mms_vals, rmms_vals, mxs_vals = [], [], []
    for i, v in enumerate(inst.valuations):
        mms_vals.append(shares.mms(v, inst.all_items, n).value)
        rmms_vals.append(shares.rmms(v, inst.all_items, n).value)
        mxs_vals.append(shares.mxs(inst, i).value)
    # One ledger counts the queries of both phases of rmms-efl.
    alloc, _ = _run(algorithm, inst, ledger, completion_ledger=ledger)
    elapsed_us = int((time.perf_counter() - started) * 1e6)
    ratio = min((Fraction(r, mm) for r, mm in zip(rmms_vals, mms_vals)
                 if mm > 0), default=None)
    exact = _fraction_json(ratio) or {"num": "", "den": "", "decimal": ""}
    cert = fairness.certificate(inst, alloc)
    row.update(
        {
            "status": "ok",
            "mms": "|".join(map(str, mms_vals)),
            "mxs": "|".join(map(str, mxs_vals)),
            "rmms": "|".join(map(str, rmms_vals)),
            # Not a column: cmd_bench's summary takes the least of these.
            "ratio": ratio,
            **{f"ratio_{key}": value for key, value in exact.items()},
            "efx": int(cert["efx"]),
            "efl": int(cert["efl"]),
            "ef1": int(cert["ef1"]),
            "value_queries": ledger.value_queries,
            "comparison_queries": ledger.comparison_queries,
        }
    )
    if timings:
        row["wall_time_us"] = elapsed_us
    return row


def cmd_bench(args) -> int:
    if args.trials < 0 or args.jobs < 1:
        raise ValueError("--trials must be at least 0 and --jobs at least 1, "
                         f"got {args.trials} and {args.jobs}")
    # Every row shares the run's item count, so past the solvers' cap no
    # row could hold a share: the whole run is refused, not filled with
    # skipped rows.
    _check_cap(args.items, "exact share solvers")
    spec = args.agents, args.items, args.kind, args.max_value, args.cap
    _check_generation(*spec)
    columns = list(BENCH_COLUMNS)
    if args.timings:
        columns.append("wall_time_us")
    tasks = [(args.seed, idx, *spec, args.algorithm, args.timings)
             for idx in range(args.trials)]
    # The pool starts all its workers at once, so more than there are
    # trials or CPUs would only cost processes.
    workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_bench_one, tasks))
    else:
        rows = [_bench_one(task) for task in tasks]

    with open(args.output, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        for row in rows:  # already in (seed, index) order
            writer.writerow(row)

    if args.summary:
        observed = min((r["ratio"] for r in rows if r["ratio"] is not None),
                       default=None)
        # The tightest class's guarantee; tables have none.
        classes = shares._KIND_CLASSES[args.kind]
        bound = (shares.ratio_bound(args.agents, classes[0])
                 if classes else None)
        summary = {
            "trials": args.trials,
            # Runs past the item cap are refused, so every row completes.
            "completed": len(rows),
            "skipped": 0,
            "min_rmms_over_mms": _fraction_json(observed),
            "guaranteed_bound": _fraction_json(bound),
        }
        dump_json(summary, args.summary)
    return EXIT_OK


# ---------------------------------------------------------------------------

def _emit(obj, output) -> None:
    if output:
        dump_json(obj, output)
    else:
        _write_json(obj, sys.stdout)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmms",
        description="Exact fair-division toolkit for indivisible goods, "
        "centered on the residual maximin share.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The generation arguments of gen and bench, checked by
    # _check_generation.
    generation = argparse.ArgumentParser(add_help=False)
    generation.add_argument("--agents", type=int, required=True)
    generation.add_argument("--items", type=int, required=True)
    generation.add_argument("--kind", default="additive",
                            choices=["additive", "capped_additive", "table"])
    generation.add_argument("--max-value", type=int, default=10)
    generation.add_argument("--cap", type=int, default=None,
                            help="cap for capped_additive (random if omitted)")

    p = sub.add_parser("gen", parents=[generation],
                       help="generate instance files")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("shares", help="compute per-agent share values")
    p.add_argument("instance")
    p.add_argument("--share", choices=["mms", "mxs", "rmms", "all"],
                   default="all")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_shares)

    algorithm = {"choices": _ALGORITHMS, "default": _ALGORITHMS[-1]}

    p = sub.add_parser("allocate", help="run an allocation algorithm")
    p.add_argument("instance")
    p.add_argument("--algorithm", **algorithm)
    p.add_argument("--start", default=None,
                   help="starting partial allocation (envy-cycle only)")
    p.add_argument("--trace", default=None, help="write trace JSON here")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("check", help="emit a fairness certificate")
    p.add_argument("instance")
    p.add_argument("allocation")
    p.add_argument("--require", choices=["ef1", "efl", "efx", "ef"],
                   default=None, help="exit 4 unless the property holds")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify", help="run oracle checks over instances")
    p.add_argument("instances", nargs="+")
    p.add_argument("--checks", default=None,
                   help=f"comma list from {','.join(oracle.CHECK_NAMES)}")
    p.add_argument("--assert", dest="assert_mode", action="store_true",
                   help="exit 4 on any failed check")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", parents=[generation],
                       help="batch experiment harness")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--algorithm", **algorithm)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--timings", action="store_true",
                   help="add wall-clock column (breaks byte-identical reruns)")
    p.add_argument("-o", "--output", required=True, help="CSV path")
    p.add_argument("--summary", default=None, help="summary JSON path")
    p.set_defaults(func=cmd_bench)

    return parser


# Parsing leaves a parser unchanged, so one parser serves every call.
_parser = lru_cache(maxsize=1)(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except PropertyCheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
