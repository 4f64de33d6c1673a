"""rmms benchmark: one closed-loop workload per run, end to end or traced.

    python3 perfbench/run.py --workload shares_large --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
``--trace 0`` sets up the inputs, runs operations until ``--seconds`` of
busy time have passed (ending on a whole cycle of the input mix), checks
every output outside the timed region and prints the end-to-end metrics.
Their times are on-CPU times converted to a reference host speed by
``hostspeed``.
``--trace 1`` runs a fixed number of operations twice, untraced and then
with spans around every layer call, and prints the per-layer metrics.
The last line of standard output is the result as one JSON object.
"""
import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / "_work"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 5
P90_MIN_SAMPLES = 100  # p90 needs at least ten samples beyond it


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["shares_large", "pipeline_small", "certify"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def import_program() -> None:
    """Put the checkout's ``src`` on the path and check rmms comes from it."""
    if not (SRC / "rmms" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'rmms'} not found; run from a full checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import rmms

    if not Path(rmms.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: rmms imported from {rmms.__file__}, not from {SRC}")


@dataclass
class Pass:
    """What one pass over the operations measured."""

    ops: int = 0
    failed: int = 0
    busy_s: float = 0.0
    # wall start, wall end and on-CPU seconds of each op, flat and compact so
    # that the record adds little to the peak RSS however many ops run
    intervals: array = field(default_factory=lambda: array("d"))
    peak_rss_mb: float = 0.0
    digest: str | None = None

    def each(self):
        """(wall start, wall end, on-CPU seconds) per op."""
        return zip(*[iter(self.intervals)] * 3)


def cpu_now() -> float:
    """CPU seconds used by this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_ops(wl, seconds=None, ops=None, tracer=None) -> Pass:
    """Issue operations one after another and check each output.

    Stops after ``ops`` operations, or once ``seconds`` of busy time have
    passed and at least ``wl.min_ops`` ops have run, at a cycle boundary,
    or when the inputs run out. Checks and
    digests run between operations, outside their timing.
    """
    result = Pass()
    digest = hashlib.sha256()
    available = wl.available()
    i = 0
    while available is None or i < available:
        if ops is not None and i >= ops:
            break
        if ops is None and i >= wl.min_ops and result.busy_s >= seconds and i % wl.cycle == 0:
            break
        if tracer:
            tracer.op, tracer.enabled = i, True
        error = None
        wall, cpu = time.perf_counter(), cpu_now()
        try:
            with tracer.span("op") if tracer else nullcontext():
                wl.op(i)
        except Exception as exc:  # a failed op is counted, not fatal
            error = f"op raised {type(exc).__name__}: {exc}"
        end = time.perf_counter()
        latency, cpu = end - wall, cpu_now() - cpu
        result.intervals.extend((wall, end, cpu))
        if tracer:
            tracer.enabled = False
        result.busy_s += latency
        data, problems = b"", [error] if error else []
        if not error:
            try:
                data, problems = wl.collect(i)
            except Exception as exc:  # a check that cannot run is a failure
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            result.failed += 1
            if result.failed <= 5:
                print(f"op {i} failed: {'; '.join(problems)[:500]}", file=sys.stderr)
        if i < wl.digest_ops:
            digest.update(len(data).to_bytes(8, "big") + data)
        i += 1
        if i == wl.digest_ops:
            result.digest = digest.hexdigest()
        if i == wl.min_ops:
            result.peak_rss_mb = peak_rss_mb()
    result.ops = i
    result.peak_rss_mb = result.peak_rss_mb or peak_rss_mb()
    return result


def digest_failures(wl, seed: int, *passes: Pass) -> int:
    """Count digest mismatches: between passes, and against the recorded
    reference for the default seed."""
    digests = [p.digest for p in passes if p.digest is not None]
    failures = len(set(digests)) - 1 if digests else 0
    if failures:
        print("outputs differ between the untraced and traced passes", file=sys.stderr)
    if seed == DEFAULT_SEED and digests:
        want = json.loads(REFERENCE.read_text())["digests"][wl.name]
        if digests[0] != want:
            print(f"output digest {digests[0]} != reference {want}", file=sys.stderr)
            failures += 1
    if digests:
        print(f"digest of the first {wl.digest_ops} outputs: {digests[0]}")
    return failures


def clear_caches() -> None:
    """Empty the program's memo caches so a second pass starts cold."""
    from rmms import algorithms, cli, core, fairness, oracle, shares

    for module in (cli, core, shares, algorithms, fairness, oracle):
        for obj in list(vars(module).values()):
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def timed_cpu(probe, fn) -> float:
    """On-CPU time of ``fn()`` at reference speed."""
    started, cpu = time.perf_counter(), cpu_now()
    fn()
    return probe.cpu(started, time.perf_counter(), cpu_now() - cpu)


def import_in_fresh_process() -> float:
    """CPU seconds of a fresh interpreter importing the program, as a user's
    ``rmms`` command does. Not converted to reference speed: host-speed
    probes cannot follow another process, and import work moves less with
    the host's speed than the probe kernel does. One BLAS thread: numpy's
    BLAS workers otherwise spin at start-up for a varying CPU time, and rmms
    makes no BLAS calls."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    cpu = cpu_now()
    subprocess.run([sys.executable, "-c",
                    f"import sys; sys.path.insert(0, {str(SRC)!r}); import rmms.cli"],
                   env=env, check=True, timeout=60)
    return cpu_now() - cpu


def end_to_end(wl) -> dict:
    probe = hostspeed.Probe()
    probe.start()
    try:
        import_s = statistics.median(import_in_fresh_process() for _ in range(SETUP_REPEATS))
        setup_s = statistics.median(timed_cpu(probe, wl.setup) for _ in range(SETUP_REPEATS))
        p = run_ops(wl, seconds=wl.seconds)
    finally:
        probe.stop()
    failed = min(p.ops, p.failed + digest_failures(wl, wl.seed, p))
    lat = array("d", (probe.cpu(a, b, cpu) for a, b, cpu in p.each()))
    busy_s = sum(lat)
    if len(lat) >= P90_MIN_SAMPLES:
        p90 = f"op_latency_p90_s {statistics.quantiles(lat, n=10)[8]:.6g} s"
    else:
        p90 = f"op_latency_p90_s not reported (needs {P90_MIN_SAMPLES} samples)"
    print(f"{wl.name}: {p.ops} ops, {failed} failed, error_rate {failed / p.ops:.6g}, "
          f"{len(lat)} latency samples, {p90}")
    cpu_s = sum(cpu for _, _, cpu in p.each())
    print(f"measured: {p.busy_s:.3f} s busy, {p.ops / p.busy_s:.6g} ops/s wall, "
          f"p50 {statistics.median(b - a for a, b, _ in p.each()):.6g} s wall, "
          f"{1 - cpu_s / p.busy_s:.3g} of busy time off-CPU, {len(probe.cpus)} "
          f"host-speed probes, {busy_s / cpu_s:.4g} reference s per CPU s")
    metrics = {
        "ops_per_s": (p.ops / busy_s, "1/s"),
        "op_latency_p50_s": (statistics.median(lat), "s"),
        "cpu_s_per_op": (busy_s / p.ops, "s"),
        "peak_rss_mb": (p.peak_rss_mb, "MB"),
        "setup_s": (import_s + setup_s, "s"),
    }
    return {
        "correct": failed == 0,
        "attempted": p.ops,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced(wl) -> dict:
    import tracing

    tracer = tracing.Tracer()
    with tracer.patched():
        tracer.enabled = True
        wl.setup()
        tracer.enabled = False
    base = run_ops(wl, ops=wl.trace_ops)
    clear_caches()
    with tracer.patched():
        spanned = run_ops(wl, ops=wl.trace_ops, tracer=tracer)
    failed = min(base.ops + spanned.ops,
                 base.failed + spanned.failed + digest_failures(wl, wl.seed, base, spanned))
    path = WORKDIR / f"trace_{wl.name}_{wl.seed}.json"
    tracer.dump(path)
    print(f"{wl.name}: {spanned.ops} traced ops, {len(tracer.spans)} spans in {path}")
    metrics = tracer.layer_metrics(spanned.busy_s / base.busy_s)
    if wl.seed == DEFAULT_SEED:
        # Work counts repeat exactly; a change that alters them is reported,
        # not failed, because reducing work is what optimisations do.
        recorded = json.loads(REFERENCE.read_text())["counters"][wl.name]
        for name, value in recorded.items():
            if metrics[name]["value"] != value:
                print(f"{name} is {metrics[name]['value']}, recorded {value}")
    return {
        "correct": failed == 0,
        "attempted": base.ops + spanned.ops,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    WORKDIR.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.seconds, WORKDIR)
    result = traced(wl) if args.trace else end_to_end(wl)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
