"""The three benchmark workloads.

Each workload is a closed loop with one caller: operation i is issued only
after operation i - 1 has returned. ``setup`` builds every input from the
seed with ``rmms.cli.generate_instance``; ``op(i)`` is the timed call into the
program; ``collect(i)`` (untimed) returns the output bytes of operation i and
the problems its check found.

Why these workloads:

- shares_large: the ``rmms shares --share all`` path at m = 12, the size the
  ROADMAP wants to push. The shares layer does nearly all the work, with the
  RMMS residual check and the MXS search dominant; table instances cost about
  twice as much as additive ones, so a gain confined to additive valuations
  shows as partial.
- pipeline_small: the ``rmms bench`` path on many small instances (n 3-4,
  m 6-8, all kinds). Each share call starts from a fresh valuation, so
  per-call set-up (value tables, candidate lists, cache hashing) counts, and
  generation, algorithms and fairness take a visible share.
- certify: fairness certificates for every partial allocation of small
  instances, with EFL completion of the EFL ones. The shares layer does no
  work, so a shares change should show no change here; this is where
  table-based fairness predicates would show.
"""
from __future__ import annotations

import itertools
import json
from pathlib import Path

from rmms import algorithms, cli, core, fairness, oracle

import checks

KINDS = ("additive", "capped_additive", "table")
MAX_VALUE = 10


class Workload:
    """Shared shape of a workload; subclasses set the class attributes.

    cycle: ops per balanced round of the input mix; a timed run ends on a
        cycle boundary so that every run sees the same mix.
    min_ops: ops a timed run makes however slow the machine is, so that a
        slow spell does not change the mix or skip the digest. Peak RSS is
        read after these ops, so that it covers a fixed amount of work and
        does not grow with the number of ops a run fits in.
    digest_ops: ops whose outputs are digested and, for the default seed,
        compared with ``reference.json``.
    trace_ops: fixed number of ops in a traced run, so counters repeat.
    """

    name = ""
    cycle = 1
    min_ops = 1
    digest_ops = 1
    trace_ops = 1

    def __init__(self, seed: int, seconds: float, workdir: Path):
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def available(self) -> int | None:
        """Number of ops the inputs allow, or None for no limit."""
        return None

    def op(self, i: int) -> None:
        raise NotImplementedError

    def collect(self, i: int) -> tuple[bytes, list[str]]:
        raise NotImplementedError


def _run_cli(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise RuntimeError(f"rmms {argv[0]} exited with code {code}")


class SharesLarge(Workload):
    name = "shares_large"
    m = 12
    combos = [(n, kind) for n, kind in zip(itertools.cycle((3, 4)), KINDS * 2)]
    cycle = len(combos)
    min_ops = 3 * cycle
    digest_ops = cycle
    trace_ops = cycle

    def setup(self) -> None:
        # One cycle of instances per 5 s of run time, and at least min_ops.
        # At --seconds 15 that is min_ops, so every run times the same 18
        # instances of its seed however fast the shares layer becomes.
        count = max(self.min_ops, self.cycle * -(-int(self.seconds) // 5))
        self.instances = []
        for idx in range(count):
            n, kind = self.combos[idx % self.cycle]
            inst = cli.generate_instance(self.seed, idx, n, self.m, kind, MAX_VALUE)
            core.dump_json(core.instance_to_json(inst), self._path(idx, "instance"))
            self.instances.append(inst)

    def _path(self, i: int, what: str) -> str:
        return str(self.workdir / f"{self.name}_{what}_{i}.json")

    def available(self) -> int:
        return len(self.instances)

    def op(self, i: int) -> None:
        _run_cli(["shares", self._path(i, "instance"), "--share", "all",
                  "-o", self._path(i, "shares")])

    def collect(self, i: int) -> tuple[bytes, list[str]]:
        data = Path(self._path(i, "shares")).read_bytes()
        return data, checks.check_shares(self.instances[i], json.loads(data))


class PipelineSmall(Workload):
    name = "pipeline_small"
    combos = [(n, m, kind) for n, m in ((3, 6), (4, 7), (3, 8), (4, 6), (3, 7), (4, 8))
              for kind in KINDS]
    cycle = len(combos)
    min_ops = 4 * cycle
    digest_ops = cycle
    trace_ops = 4 * cycle

    def setup(self) -> None:
        # ``rmms bench`` generates its own instance, so set-up only fixes the
        # per-op seeds: op i runs instance (seed * 10^6 + i, index 0).
        self.csv_path = self.workdir / f"{self.name}.csv"
        self.brute = checks.BruteShares()

    def _task(self, i: int) -> tuple[int, int, int, str]:
        n, m, kind = self.combos[i % self.cycle]
        return self.seed * 10 ** 6 + i, n, m, kind

    def op(self, i: int) -> None:
        op_seed, n, m, kind = self._task(i)
        _run_cli(["bench", "--agents", str(n), "--items", str(m), "--kind", kind,
                  "--trials", "1", "--seed", str(op_seed), "--jobs", "1",
                  "-o", str(self.csv_path)])

    def collect(self, i: int) -> tuple[bytes, list[str]]:
        op_seed, n, m, kind = self._task(i)
        data = self.csv_path.read_bytes()
        inst = cli.generate_instance(op_seed, 0, n, m, kind, MAX_VALUE)
        return data, checks.check_bench_csv(data.decode(), inst, op_seed, kind, self.brute)


class Certify(Workload):
    name = "certify"
    combos = [(n, m, kind) for (n, m), kind in zip(itertools.cycle(((3, 6), (4, 5))), KINDS * 2)]
    cycle = 1
    digest_ops = (3 + 1) ** 6  # every partial allocation of the first instance
    min_ops = digest_ops
    trace_ops = sum((n + 1) ** m for n, m, _ in combos)

    def setup(self) -> None:
        # An instance lasts about 0.5 s; ten per second of run time leaves
        # room for the fairness layer to become several times faster.
        count = len(self.combos) * max(1, -(-int(10 * self.seconds) // len(self.combos)))
        self.instances = [
            cli.generate_instance(self.seed, idx, *self.combos[idx % len(self.combos)],
                                  MAX_VALUE)
            for idx in range(count)
        ]
        self.refs: dict[int, checks.EnvyReference] = {}

    def _start(self, inst_idx: int) -> None:
        self.inst_idx = inst_idx
        self.allocs = oracle.enumerate_allocations(self.instances[inst_idx], partial=True)

    def available(self) -> int:
        return sum((inst.n + 1) ** inst.m for inst in self.instances)

    def op(self, i: int) -> None:
        # Op i is the next partial allocation in (instance, enumeration) order.
        # The enumeration starts inside op 0, so every pass over the ops
        # starts afresh and a traced pass enumerates through the traced call.
        if i == 0:
            self._start(0)
        partial = next(self.allocs, None)
        if partial is None:
            self._start(self.inst_idx + 1)
            partial = next(self.allocs)
        inst = self.instances[self.inst_idx]
        cert = fairness.certificate(inst, partial)
        completion = None
        if cert["efl"]:
            ledger = core.QueryLedger()
            full, _ = algorithms.efl_complete(inst, partial, ledger)
            completion = (full, ledger.value_queries)
        self.last = (self.inst_idx, partial, cert, completion)

    def collect(self, i: int) -> tuple[bytes, list[str]]:
        inst_idx, partial, cert, completion = self.last
        if inst_idx not in self.refs:
            self.refs = {inst_idx: checks.EnvyReference(self.instances[inst_idx])}
        data = b""
        if i < self.digest_ops:
            out = {"certificate": cert,
                   "completion": [b.items() for b in completion[0].bundles] if completion else None}
            data = json.dumps(out, sort_keys=True).encode()
        return data, checks.check_certify(self.refs[inst_idx], partial, cert, completion)


WORKLOADS = {w.name: w for w in (SharesLarge, PipelineSmall, Certify)}
