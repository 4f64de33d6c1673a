"""Tests of the benchmark itself: python3 -m pytest perfbench

Smoke runs use small sizes and a non-default seed, so the recorded output
digests are not compared.
"""
import json
import re
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import run

run.import_program()

import checks  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402
from rmms import cli, core, fairness, oracle, shares  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = 3


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload to a size that runs in about a second."""
    monkeypatch.setattr(workloads.SharesLarge, "m", 6)
    monkeypatch.setattr(workloads.PipelineSmall, "trace_ops", workloads.PipelineSmall.cycle)
    monkeypatch.setattr(workloads.Certify, "trace_ops", 500)


def run_main(capsys, workload: str, trace: int) -> dict:
    code = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "0.2",
                     "--trace", str(trace)])
    assert code == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric(small, capsys, workload, trace):
    result = run_main(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }


def test_smoke_prints_error_rate_and_p90(small, capsys):
    assert run.main(["--workload", "certify", "--seed", str(SEED), "--seconds", "0.2",
                     "--trace", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    summary = next(line for line in lines if line.startswith("certify: "))
    assert "error_rate 0," in summary
    assert re.search(r"\d+ latency samples, op_latency_p90_s [\d.e+-]+ s$", summary)


def test_traced_counters_repeat_exactly(small, capsys):
    counts = [
        {k: v["value"] for k, v in run_main(capsys, "pipeline_small", 1)["metrics"].items()
         if v["unit"] == "count"}
        for _ in range(2)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["shares.acceptable_partition.calls"] > 0


def _corrupt_first_call(monkeypatch, module, name, corrupt):
    original = getattr(module, name)
    calls = []

    def corrupted(*args, **kwargs):
        calls.append(None)
        result = original(*args, **kwargs)
        return corrupt(result) if len(calls) == 1 else result

    monkeypatch.setattr(module, name, corrupted)


@pytest.mark.parametrize("workload, module, name, corrupt", [
    ("pipeline_small", shares, "rmms", lambda r: replace(r, value=r.value + 1)),
    ("certify", fairness, "certificate", lambda c: {**c, "ef": not c["ef"]}),
])
def test_corrupted_output_counts_as_failed_op(small, capsys, monkeypatch,
                                              workload, module, name, corrupt):
    _corrupt_first_call(monkeypatch, module, name, corrupt)
    result = run_main(capsys, workload, 0)
    assert result["failed"] == 1 and not result["correct"]
    assert result["attempted"] > 1


def test_brute_shares_match_oracle():
    brute = checks.BruteShares()
    for idx in range(12):
        n, m = 2 + idx % 3, 3 + idx % 4
        inst = cli.generate_instance(SEED, idx, n, m, workloads.KINDS[idx % 3], 6)
        for agent in range(n):
            v = inst.valuations[agent]
            assert brute.mms(inst, agent) == oracle.brute_mms(v, inst.all_items, n)
            assert brute.mxs(inst, agent) == oracle.brute_mxs(inst, agent)


def test_envy_reference_matches_certificates():
    for idx, (n, m) in enumerate([(2, 4), (3, 4), (3, 5)]):
        inst = cli.generate_instance(SEED, idx, n, m, workloads.KINDS[idx], 6)
        ref = checks.EnvyReference(inst)
        for alloc in oracle.enumerate_allocations(inst, partial=True):
            assert ref.certificate([b.mask for b in alloc.bundles]) == \
                fairness.certificate(inst, alloc)


def test_share_checks_accept_real_output_and_catch_corruption(tmp_path):
    inst = cli.generate_instance(SEED, 0, 3, 7, "table", 10)
    core.dump_json(core.instance_to_json(inst), tmp_path / "inst.json")
    assert cli.main(["shares", str(tmp_path / "inst.json"), "-o", str(tmp_path / "out.json")]) == 0
    report = json.loads((tmp_path / "out.json").read_text())
    assert checks.check_shares(inst, report) == []
    rmms_row = report[2]
    rmms_value = rmms_row["value"]
    rmms_row["value"] = report[0]["value"] + 1  # above the MMS
    assert checks.check_shares(inst, report)
    rmms_row["value"] = rmms_value
    rmms_row["witness"][0], rmms_row["witness"][1] = rmms_row["witness"][1], []
    assert checks.check_shares(inst, report)


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_host_speed_scaling():
    probe = hostspeed.Probe()
    ref = hostspeed.REFERENCE_S
    # Probes at t = 0, 1, 2, 3, 4: the core runs at half the reference
    # speed before t = 2.5 and at the reference speed after it.
    probe.starts = [0.0, 1.0, 2.0, 3.0, 4.0]
    probe.cpus = [2 * ref, 2 * ref, 2 * ref, ref, ref]
    # An op with at least four probes of its own is scaled by their mean
    # speed, and their time is not charged to the program.
    assert probe.factor(-0.1, 4.1) == pytest.approx((3 * 0.5 + 2) / 5)
    assert probe.cpu(-0.1, 4.1, 3.0) == pytest.approx((3.0 - 8 * ref) * 0.7)
    # A shorter op also takes the probes nearest to it in time.
    assert probe.factor(0.4, 0.5) == pytest.approx((3 * 0.5 + 1) / 4)
    assert probe.cpu(0.4, 0.5, 0.1) == pytest.approx(0.1 * 0.625)
    assert probe.cpu(2.9, 4.1, 0.5) == pytest.approx((0.5 - 2 * ref) * 0.75)


def test_host_speed_probe_samples_on_a_timer():
    probe = hostspeed.Probe()
    probe.start()
    try:
        deadline = time.perf_counter() + 5 * hostspeed.INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    finally:
        probe.stop()
    assert len(probe.starts) >= 4
    assert probe.starts == sorted(probe.starts) and min(probe.cpus) > 0
