import contextlib
import copy
import hashlib
import io
import itertools
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmms import cli
from rmms.core import (
    InvariantError,
    Table,
    ValidationReport,
    dump_json,
    instance_from_json,
    instance_to_json,
    load_json,
)


def run(argv, capsys=None):
    code = cli.main(argv)
    if capsys is None:
        return code, None
    return code, capsys.readouterr().out


def write_instance(tmp_path, payload, name="inst.json"):
    path = tmp_path / name
    dump_json(payload, path)
    return str(path)


SMALL = {
    "m": 3,
    "n": 2,
    "valuations": [
        {"kind": "additive", "values": [3, 1, 1]},
        {"kind": "additive", "values": [1, 1, 3]},
    ],
}


class TestGen:
    def test_writes_requested_count(self, tmp_path):
        out = tmp_path / "corpus"
        code, _ = run([
            "gen", "--agents", "2", "--items", "4", "--seed", "7",
            "--count", "3", "-o", str(out),
        ])
        assert code == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == [f"instance_7_{i}.json" for i in range(3)]
        inst = instance_from_json(load_json(out / "instance_7_0.json"))
        assert inst.n == 2 and inst.m == 4

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run([
                "gen", "--agents", "3", "--items", "5", "--kind", "table",
                "--max-value", "4", "--seed", "11", "--count", "2",
                "-o", str(out),
            ])
        for i in range(2):
            name = f"instance_11_{i}.json"
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_index_keys_are_independent(self, tmp_path):
        # instance i of a count-3 run matches instance i of a count-2 run
        a, b = tmp_path / "a", tmp_path / "b"
        run(["gen", "--agents", "2", "--items", "4", "--seed", "3",
             "--count", "3", "-o", str(a)])
        run(["gen", "--agents", "2", "--items", "4", "--seed", "3",
             "--count", "2", "-o", str(b)])
        name = "instance_3_1.json"
        assert (a / name).read_bytes() == (b / name).read_bytes()


class TestShares:
    def test_all_shares_stdout(self, tmp_path, capsys):
        path = write_instance(tmp_path, SMALL)
        code, out = run(["shares", path], capsys)
        assert code == 0
        rows = json.loads(out)
        by_key = {(r["agent"], r["share"]): r["value"] for r in rows}
        assert by_key[(0, "mms")] == 2
        assert by_key[(0, "rmms")] == 2
        assert by_key[(1, "mms")] == 2

    def test_single_share_to_file(self, tmp_path):
        path = write_instance(tmp_path, SMALL)
        out = tmp_path / "shares.json"
        code, _ = run(["shares", path, "--share", "mxs", "-o", str(out)])
        assert code == 0
        rows = load_json(out)
        assert {r["share"] for r in rows} == {"mxs"}
        assert len(rows) == 2

    def test_invalid_instance_exits_2(self, tmp_path):
        bad = dict(SMALL)
        bad["valuations"] = [
            {"kind": "table", "values": [5, 1, 1, 1]},
            {"kind": "additive", "values": [1, 1]},
        ]
        bad["m"] = 2
        path = write_instance(tmp_path, bad)
        code, _ = run(["shares", path])
        assert code == 2

    def test_cap_exceeded_exits_3(self, tmp_path):
        big = {
            "m": 21,
            "n": 2,
            "valuations": [
                {"kind": "additive", "values": [1] * 21},
                {"kind": "additive", "values": [1] * 21},
            ],
        }
        path = write_instance(tmp_path, big)
        code, _ = run(["shares", path, "--share", "mms"])
        assert code == 3

    def test_mxs_beyond_former_allocation_cap(self, tmp_path):
        # (4, 13): 4^13 allocations, more than the 2^24 that MXS once
        # refused. (3, 17): one item past the item cap MXS once had.
        for n, m in ((4, 13), (3, 17)):
            inst = cli.generate_instance(2026, 0, n, m, "additive", 10)
            path = write_instance(tmp_path, instance_to_json(inst))
            out = tmp_path / "shares.json"
            assert run(["shares", path, "--share", "all",
                        "-o", str(out)])[0] == 0
            rows = [r for r in load_json(out) if r["share"] == "mxs"]
            assert [r["agent"] for r in rows] == list(range(n))
            for row in rows:
                v = inst.valuations[row["agent"]]
                masks = [sum(1 << e for e in items)
                         for items in row["witness"]]
                assert len(masks) == n
                items = sorted(e for bundle in row["witness"] for e in bundle)
                assert items == list(range(m))
                own = v.value_of(masks[row["agent"]])
                assert own == row["value"]
                for mask in masks:
                    for e in range(m):
                        if mask >> e & 1:
                            assert v.value_of(mask ^ (1 << e)) <= own


# sha256 of `rmms shares --share all -o FILE` on generate_instance(2026,
# 10 * n + m, n, m, kind, 10). They pin every share value and witness byte
# for byte, whatever search computes them. The m = 12 entries reach the
# sizes at which the residual check certifies most removals with no search.
SHARES_GOLDEN = {
    ("additive", 3, 9): "3ad4c6edb2d5ec1069eb0dcc5b52a5d77890044862a2b0704b3392265690c9cf",
    ("additive", 3, 10): "88eb832819e53341e199bf3fa05a2f6968fb8eed0bd7db8c2f3effcbf87bf068",
    ("additive", 3, 12): "5a12da76ba976415b28b34d61f2c66ca5988760bf5f854433bdbbef361cc61be",
    ("additive", 4, 9): "fc0998a077707ed75208b827554ed80f9920f7880135ef21d94b6023acd7c542",
    ("additive", 4, 10): "ab41c2d17a43951d26ac97bef534b16c131dc1bda2768e4bd9e1cd44565d0966",
    ("additive", 4, 12): "be481b4a7bb29d367614f50e2ce5261900fcca2a953d92212199f11ff1406250",
    ("capped_additive", 3, 9): "37cd97a1a3c40691e196e5041099abf8eacbc9b3cd0216b9c7b36b05994f179b",
    ("capped_additive", 3, 10): "cf9fae3f0049f905be0ae7cc2c37d8968f15d3cc17204f28ad5f7cf6e76d5c9b",
    ("capped_additive", 3, 12): "118e8a25740ab8959fd675502a4791555273278b8b85aaa810e4135c4a20d1b6",
    ("capped_additive", 4, 9): "3f5ae100f4f5835bef8b1b67e8546e30ed011ec878a62fe881fe4d6f7baa4119",
    ("capped_additive", 4, 10): "0d627687973015c4602aacb5d7e111dd1d4fed6ecbebc972d09cd771cd9951dc",
    ("capped_additive", 4, 12): "f38f45c98c29ec2b762f103e4b5c7db41116533d12d10a37395f5b4a30bc625d",
    ("table", 3, 9): "699c54d5f63fbd6216114dc4485ef1ee4a1833307e166f4b8f4b80f60271ece2",
    ("table", 3, 10): "1d1a98d52fd985c974c6b5478dd95af413a436a2704706d631f54d04259bfb6d",
    ("table", 3, 12): "81d4ccef4b038e45443ae1838b16736eb8496f4c8da0de68bcd4bb66cb8105f5",
    ("table", 4, 9): "76634f0883b9921a8f437d4109d296bbaa3c29ba1bd78b3f866de501dacd6e85",
    ("table", 4, 10): "3825d0fb910489f4c097b6696bcc7a0ed75f1f9826f6dd3d3030635d8e6020a8",
    ("table", 4, 12): "58633e8dfd687cc27daeb9c72fe1e8bd0c00847688871aca71d64a9a9a367bf2",
}


@pytest.mark.parametrize("kind, n, m", sorted(SHARES_GOLDEN))
def test_shares_output_golden(tmp_path, kind, n, m):
    inst = cli.generate_instance(2026, 10 * n + m, n, m, kind, 10)
    path = write_instance(tmp_path, instance_to_json(inst))
    out = tmp_path / "shares.json"
    assert run(["shares", path, "--share", "all", "-o", str(out)])[0] == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == SHARES_GOLDEN[(kind, n, m)]


# sha256 of `rmms bench --agents 3 --items 6 --trials 4 --seed 2026 -o FILE`
# per algorithm and kind. They pin the share columns, the efx/efl/ef1 flags
# (both 0 and 1 occur in each) and both query counts byte for byte.
BENCH_GOLDEN = {
    ("envy-cycle", "additive"): "d1a533c2a5a9c516757c041e4de31b35b2e0cdbce2e4c903dd7be5e1b8316836",
    ("envy-cycle", "capped_additive"): "2047bf36d0d86bfcd3a8741d91c62a9b5fcba11fff911258f8d324d6138894e3",
    ("envy-cycle", "table"): "d80418516041a8a472af64fc188f7e5f7ba6a8d53aef492719cce7e01b8537ac",
    ("rmms-efx", "additive"): "3025c069868faf20d47089cf3e05e82407714e56fd94078f7b44a17211ef883e",
    ("rmms-efx", "capped_additive"): "48eea10cf114e64aec055443058b35d57e006c9bb11eb13111132924b012d79b",
    ("rmms-efx", "table"): "8343583660b519168bd3e2bbfc6c762778f5efb97bba169bd758a16a7a952081",
    ("rmms-efl", "additive"): "b7ca2a0852f32feabc640e594ca44cfbc7e7abd55caaadf3135d5d26879f0a28",
    ("rmms-efl", "capped_additive"): "efa32f9bb67a2b16dca6623125ede7399e4b51bdbe58fc99e90672136cea4039",
    ("rmms-efl", "table"): "0b8841d7b77324628bd44d74dff1f3890d803feca8a0c6479ae6821793bb4444",
}


@pytest.mark.parametrize("algorithm, kind", sorted(BENCH_GOLDEN))
def test_bench_csv_golden(tmp_path, algorithm, kind):
    out = tmp_path / "bench.csv"
    code, _ = run(["bench", "--agents", "3", "--items", "6", "--kind", kind,
                   "--trials", "4", "--seed", "2026", "--algorithm", algorithm,
                   "-o", str(out)])
    assert code == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == BENCH_GOLDEN[(algorithm, kind)]


# sha256 of `rmms bench --agents 3 --items 6 --trials 4 --seed 2026 --summary
# FILE` per kind. They pin the observed minimum ratio and the guaranteed bound
# of each kind (additive, subadditive, none for tables) byte for byte.
BENCH_SUMMARY_GOLDEN = {
    "additive": "704c76b68f16375683ed0c780419bf59f6eeda0caff087f058adb54b4ba96c43",
    "capped_additive": "801fae85fde0b7d598d0771aca6cbf436b3e9680f44adc0dc144310458ea51e3",
    "table": "0433c793b76d36af7ff61663f76f15eaeef57b49d2d71b1b5efc683486a2551c",
}


@pytest.mark.parametrize("kind", sorted(BENCH_SUMMARY_GOLDEN))
def test_bench_summary_golden(tmp_path, kind):
    summary = tmp_path / "summary.json"
    code, _ = run(["bench", "--agents", "3", "--items", "6", "--kind", kind,
                   "--trials", "4", "--seed", "2026",
                   "-o", str(tmp_path / "bench.csv"), "--summary", str(summary)])
    assert code == 0
    digest = hashlib.sha256(summary.read_bytes()).hexdigest()
    assert digest == BENCH_SUMMARY_GOLDEN[kind]


# sha256 over indices 0-19 of `rmms allocate --algorithm rmms-efx --trace
# FILE` on generate_instance(2026, index, n, m, kind, 10). Each set takes
# final-matching, deficiency-matching and upgrade rounds, so they pin every
# kind of EFX round byte for byte: its agents, bundles and field order, the
# RMMS values and both query counts.
EFX_TRACE_GOLDEN = {
    ("additive", 3, 7): "1be4f58cff7f4af25e66e5927c22aaa544e1734a9236789d827d44d88868afee",
    ("capped_additive", 4, 7): "8de99a854fcda8adbee3ba44d7ff27b1afc12c88ff170e190058429d7dd498a3",
    ("table", 5, 8): "b1665fefd860f7d483cfcc4a24b4bcc456afb861d7fd1e86752071d9f588b59b",
}


@pytest.mark.parametrize("kind, n, m", sorted(EFX_TRACE_GOLDEN))
def test_efx_trace_golden(tmp_path, kind, n, m):
    digest, kinds = hashlib.sha256(), set()
    trace = tmp_path / "trace.json"
    for index in range(20):
        inst = cli.generate_instance(2026, index, n, m, kind, 10)
        path = write_instance(tmp_path, instance_to_json(inst))
        assert run(["allocate", path, "--algorithm", "rmms-efx",
                    "-o", str(tmp_path / "alloc.json"),
                    "--trace", str(trace)])[0] == 0
        digest.update(trace.read_bytes())
        kinds |= {r["kind"] for r in load_json(trace)["rounds"]}
    assert kinds == {"final-matching", "deficiency-matching", "upgrade"}
    assert digest.hexdigest() == EFX_TRACE_GOLDEN[(kind, n, m)]


@pytest.mark.parametrize("algorithm", ["envy-cycle", "rmms-efx", "rmms-efl"])
def test_bench_jobs_matches_serial(tmp_path, algorithm):
    # Two worker processes write the same rows, in the same order, as one.
    outs = []
    for jobs in (1, 2):
        out = tmp_path / f"bench_{jobs}.csv"
        code, _ = run(["bench", "--agents", "3", "--items", "6", "--trials", "4",
                       "--seed", "2026", "--algorithm", algorithm,
                       "--jobs", str(jobs), "-o", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert outs[0].count(b"\n") == 5


class TestAllocateCheck:
    def test_pipeline(self, tmp_path):
        path = write_instance(tmp_path, SMALL)
        alloc_path = tmp_path / "alloc.json"
        trace_path = tmp_path / "trace.json"
        code, _ = run([
            "allocate", path, "--algorithm", "rmms-efl",
            "-o", str(alloc_path), "--trace", str(trace_path),
        ])
        assert code == 0
        alloc = load_json(alloc_path)
        assert alloc["pool"] == []
        assert sorted(sum(alloc["bundles"], [])) == [0, 1, 2]
        trace = load_json(trace_path)
        assert trace["completion_value_queries"] == 0

        code, _ = run(["check", path, str(alloc_path), "--require", "efl"])
        assert code == 0

    def test_check_failure_exits_4(self, tmp_path):
        path = write_instance(tmp_path, SMALL)
        # Everything to agent 0: agent 1 has EF1 envy witnessed by item 2.
        alloc_path = tmp_path / "alloc.json"
        dump_json({"pool": [], "bundles": [[0, 1, 2], []]}, alloc_path)
        code, _ = run(["check", path, str(alloc_path), "--require", "ef1"])
        assert code == 4

    def test_check_certificate_stdout(self, tmp_path, capsys):
        path = write_instance(tmp_path, SMALL)
        alloc_path = tmp_path / "alloc.json"
        dump_json({"pool": [1], "bundles": [[0], [2]]}, alloc_path)
        code, out = run(["check", path, str(alloc_path)], capsys)
        assert code == 0
        cert = json.loads(out)
        assert cert["ef"] is True and cert["violations"] == []

    def test_check_fewer_bundles_than_agents_exits_2(self, tmp_path, capsys):
        path = write_instance(tmp_path, SMALL)
        alloc_path = tmp_path / "alloc.json"
        dump_json({"pool": [], "bundles": [[0, 1, 2]]}, alloc_path)
        code, _ = run(["check", path, str(alloc_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: allocation has 1 bundles, instance has 2 agents\n"

    def test_check_extra_bundles_for_one_agent_exits_2(self, tmp_path, capsys):
        single = {"m": 3, "n": 1, "valuations": [SMALL["valuations"][0]]}
        path = write_instance(tmp_path, single)
        alloc_path = tmp_path / "alloc.json"
        dump_json({"pool": [], "bundles": [[0], [1, 2]]}, alloc_path)
        code, _ = run(["check", path, str(alloc_path), "--require", "ef"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: allocation has 2 bundles, instance has 1 agents\n"

    def test_envy_cycle_with_start(self, tmp_path):
        path = write_instance(tmp_path, SMALL)
        start_path = tmp_path / "start.json"
        dump_json({"pool": [1], "bundles": [[0], [2]]}, start_path)
        alloc_path = tmp_path / "alloc.json"
        code, _ = run([
            "allocate", path, "--algorithm", "envy-cycle",
            "--start", str(start_path), "-o", str(alloc_path),
        ])
        assert code == 0
        assert load_json(alloc_path)["pool"] == []

    def test_start_with_wrong_bundle_count_exits_2(self, tmp_path, capsys):
        # --start once gave "allocation does not match instance shape" where
        # check names both counts for the same file.
        path = write_instance(tmp_path, SMALL)
        start_path = tmp_path / "start.json"
        dump_json({"pool": [], "bundles": [[0], [1], [2]]}, start_path)
        alloc_path = tmp_path / "alloc.json"
        err = assert_one_line_error([
            "allocate", path, "--algorithm", "envy-cycle",
            "--start", str(start_path), "-o", str(alloc_path),
        ], capsys)
        assert err == "error: allocation has 3 bundles, instance has 2 agents\n"
        assert not alloc_path.exists()

    @pytest.mark.parametrize("algorithm", ["rmms-efx", "rmms-efl"])
    def test_start_with_another_algorithm_exits_2(self, tmp_path, capsys,
                                                  algorithm):
        path = write_instance(tmp_path, SMALL)
        start_path = tmp_path / "start.json"
        dump_json({"pool": [0, 1], "bundles": [[2], []]}, start_path)
        err = assert_one_line_error([
            "allocate", path, "--algorithm", algorithm,
            "--start", str(start_path),
        ], capsys)
        assert "--start" in err

    def test_missing_file_exits_2(self):
        code, _ = run(["shares", "/nonexistent/inst.json"])
        assert code == 2


class TestVerify:
    def test_pass_and_assert(self, tmp_path, capsys):
        path = write_instance(tmp_path, SMALL)
        code, out = run(["verify", path, "--assert"], capsys)
        assert code == 0
        report = json.loads(out)
        assert all(c["failed"] == 0 for c in report["checks"])

    def test_check_subset(self, tmp_path, capsys):
        path = write_instance(tmp_path, SMALL)
        code, out = run(
            ["verify", path, "--checks", "rmms_le_mms,additive_ratio"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert [c["name"] for c in report["checks"]] == [
            "rmms_le_mms", "additive_ratio",
        ]

    def test_a_failed_check_exits_4(self, tmp_path, capsys, monkeypatch):
        brute = cli.oracle.brute_mms
        monkeypatch.setattr(cli.oracle, "brute_mms",
                            lambda v, S, n: brute(v, S, n) + 1)
        path = write_instance(tmp_path, SMALL)
        assert run(["verify", path, "--assert"])[0] == 4
        out, err = capsys.readouterr()
        failed = {c["name"]: c["failed"] for c in json.loads(out)["checks"]}
        assert failed["shares_agreement"] == 2
        assert sum(failed.values()) == 2
        assert err == "error: 2 corpus check(s) failed\n"

    def test_unknown_check_exits_2(self, tmp_path):
        path = write_instance(tmp_path, SMALL)
        code, _ = run(["verify", path, "--checks", "bogus"])
        assert code == 2


class TestBench:
    def test_zero_trials_header_only(self, tmp_path):
        out = tmp_path / "bench.csv"
        code, _ = run([
            "bench", "--agents", "2", "--items", "4", "--trials", "0",
            "-o", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].split(",") == cli.BENCH_COLUMNS

    def test_deterministic_rerun(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "bench", "--agents", "2", "--items", "5", "--trials", "4",
            "--seed", "9", "--max-value", "6", "-o",
        ]
        assert run(args + [str(a)])[0] == 0
        assert run(args + [str(b)])[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_summary_ratio_meets_bound(self, tmp_path):
        out = tmp_path / "bench.csv"
        summary_path = tmp_path / "summary.json"
        code, _ = run([
            "bench", "--agents", "3", "--items", "6", "--trials", "5",
            "--seed", "2", "-o", str(out), "--summary", str(summary_path),
        ])
        assert code == 0
        summary = load_json(summary_path)
        assert summary["completed"] == 5
        observed = summary["min_rmms_over_mms"]
        bound = summary["guaranteed_bound"]
        assert bound == {"num": 3, "den": 4, "decimal": "0.750000"}
        if observed is not None:
            assert (
                observed["num"] * bound["den"]
                >= bound["num"] * observed["den"]
            )

    def test_rows_report_queries_and_fairness(self, tmp_path):
        out = tmp_path / "bench.csv"
        run([
            "bench", "--agents", "2", "--items", "4", "--trials", "3",
            "--seed", "1", "--algorithm", "rmms-efl", "-o", str(out),
        ])
        import csv

        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        for row in rows:
            assert row["status"] == "ok"
            assert row["efl"] == "1" and row["ef1"] == "1"
            assert int(row["comparison_queries"]) >= 0

    def test_rows_past_the_former_mxs_cap(self, tmp_path):
        # MXS once refused m = 17, and the row lost its MMS and RMMS too.
        out = tmp_path / "bench.csv"
        assert run(["bench", "--agents", "2", "--items", "17",
                    "--trials", "1", "-o", str(out)])[0] == 0
        import csv

        with open(out, newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["status"] == "ok"
        for share in ("mms", "mxs", "rmms"):
            assert len(row[share].split("|")) == 2, share
            assert all(value.isdigit() for value in row[share].split("|"))

    def test_timings_column_opt_in(self, tmp_path):
        out = tmp_path / "bench.csv"
        run([
            "bench", "--agents", "2", "--items", "4", "--trials", "1",
            "--seed", "1", "--timings", "-o", str(out),
        ])
        header = out.read_text().splitlines()[0].split(",")
        assert header[-1] == "wall_time_us"


def loop_table(rng, m, max_value):
    """A generated table valuation built by a loop over masks, with one
    draw per mask: the reference for cli.generate_valuation."""
    values = tuple(int(x) for x in rng.integers(0, max_value + 1, size=m))
    base = [0] * (1 << m)
    bump = [0] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        base[mask] = base[mask ^ low] + values[low.bit_length() - 1]
        floor = 0
        sub = mask
        while sub:
            b = sub & -sub
            floor = max(floor, bump[mask ^ b])
            sub ^= b
        bump[mask] = floor + int(rng.integers(0, max_value + 1))
    return Table(tuple(b + p for b, p in zip(base, bump)), validate=False)


def test_table_generation_matches_the_loop():
    # Several valuations from one generator, so the generator's state after
    # a table must match too; 2^60 takes the path past int64.
    for m, seed in itertools.product(range(1, 9), range(3)):
        for max_value in (1, 10, 1000) + ((2 ** 60,) if m <= 4 else ()):
            fast, loop = cli._rng(seed, m), cli._rng(seed, m)
            # Item values past the cap are rejected here; table values
            # are refused by cli._check_generation, before any draw.
            middle = "additive" if max_value <= 1000 else "table"
            for kind in ("table", middle, "table", "table"):
                got = cli.generate_valuation(fast, kind, m, max_value, None)
                if kind == "table":
                    assert got == loop_table(loop, m, max_value), (m, seed)
                else:
                    assert got == cli.generate_valuation(loop, kind, m,
                                                         max_value, None)
            assert fast.integers(0, 2 ** 62) == loop.integers(0, 2 ** 62)


def test_generate_instance_rejects_invalid_output(monkeypatch):
    # An explicit check, not an assert, so it also holds under python -O.
    bad = ValidationReport(False, ({"agent": 0, "problem": "broken"},))
    monkeypatch.setattr(cli, "validate_instance", lambda inst: bad)
    with pytest.raises(InvariantError, match="invalid instance"):
        cli.generate_instance(1, 0, 2, 3, "additive", 5)


def test_a_key_error_inside_a_command_propagates(tmp_path, monkeypatch):
    # The JSON loaders name a missing key as a ValueError, so a KeyError
    # is a bug: it must not exit 2 as if the input were bad.
    path = write_instance(tmp_path, SMALL)
    alloc_path = tmp_path / "alloc.json"
    dump_json({"pool": [], "bundles": [[0], [1, 2]]}, alloc_path)

    def broken(inst, alloc):
        raise KeyError("efl")

    monkeypatch.setattr(cli.fairness, "certificate", broken)
    with pytest.raises(KeyError):
        cli.main(["check", path, str(alloc_path)])


def test_main_reuses_one_parser(tmp_path, monkeypatch):
    # Many calls in one process, across subcommands and usage errors, give
    # what a fresh parser per call gives.
    path = write_instance(tmp_path, SMALL)
    alloc_path = tmp_path / "alloc.json"
    dump_json({"pool": [1], "bundles": [[0], [2]]}, alloc_path)
    greedy_path = tmp_path / "greedy.json"
    dump_json({"pool": [], "bundles": [[0, 1, 2], []]}, greedy_path)
    calls = [
        ["shares", path],
        ["check", path, str(alloc_path), "--require", "ef"],
        ["shares", path, "--share", "mms"],
        ["shares"],
        ["allocate", path, "--algorithm", "envy-cycle"],
        ["frobnicate"],
        ["check", path, str(greedy_path), "--require", "ef1"],
        ["shares", path, "--share", "rmms"],
        ["gen", "--agents", "2", "--items", "3", "-o", "OUT"],
        ["shares", path],
    ]

    def outcomes(tag):
        results = []
        for argv in calls:
            argv = [str(tmp_path / tag) if a == "OUT" else a for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            results.append((code, out.getvalue(), err.getvalue()))
        gen_dir = tmp_path / tag
        files = {p.name: p.read_bytes() for p in sorted(gen_dir.iterdir())}
        return results, files

    assert cli._parser() is cli._parser()
    cached = outcomes("cached")
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = outcomes("fresh")
    assert cached == fresh
    codes = [code for code, _, _ in cached[0]]
    assert codes == [0, 0, 0, 2, 0, 2, 4, 0, 0, 0]


# ---------------------------------------------------------------------------
# JSON input contract: integers only (no bools, no floats), the expected JSON
# types, distinct items; anything else exits 2 with a one-line message.

def _with_valuation(valuation, **fields):
    return {**SMALL, **fields, "valuations": [valuation, SMALL["valuations"][1]]}


BAD_INSTANCES = {
    "m_string": {**SMALL, "m": "3"},
    "m_bool": {**SMALL, "m": True},
    "n_float": {**SMALL, "n": 2.0},
    "top_level_list": [SMALL],
    "valuations_null": {**SMALL, "valuations": None},
    "valuation_list": {**SMALL, "valuations": [[3, 1, 1], [1, 1, 3]]},
    "values_null": _with_valuation({"kind": "additive", "values": None}),
    "value_true": _with_valuation({"kind": "additive", "values": [True, 1, 1]}),
    "value_float": _with_valuation({"kind": "additive", "values": [3.0, 1, 1]}),
    "cap_float": _with_valuation(
        {"kind": "capped_additive", "values": [3, 1, 1], "cap": 2.5}),
    "cap_bool": _with_valuation(
        {"kind": "capped_additive", "values": [3, 1, 1], "cap": True}),
    "table_entry_float": _with_valuation(
        {"kind": "table", "values": [0, 1, 1, 2, 1.5, 2, 2, 3]}),
    "table_entry_bool": _with_valuation(
        {"kind": "table", "values": [0, True, 1, 2, 1, 2, 2, 3]}),
    "table_entry_string": _with_valuation(
        {"kind": "table", "values": [0, 1, 1, 2, 1, "2", 2, 3]}),
    "m_zero": {**SMALL, "m": 0},
    "value_negative": _with_valuation({"kind": "additive", "values": [-1, 1, 1]}),
    "value_past_max": _with_valuation(
        {"kind": "additive", "values": [2 ** 31 + 1, 1, 1]}),
    "cap_negative": _with_valuation(
        {"kind": "capped_additive", "values": [3, 1, 1], "cap": -1}),
    "cap_past_max": _with_valuation(
        {"kind": "capped_additive", "values": [3, 1, 1], "cap": 2 ** 31 + 1}),
    "table_length_6": _with_valuation(
        {"kind": "table", "values": [0, 1, 1, 2, 1, 2]}),
}


def assert_one_line_error(argv, capsys):
    code, _ = run(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


@pytest.mark.parametrize("case", sorted(BAD_INSTANCES))
def test_malformed_instance_exits_2(tmp_path, capsys, case):
    path = write_instance(tmp_path, BAD_INSTANCES[case])
    assert_one_line_error(["shares", path], capsys)


BAD_ALLOCATIONS = {
    "duplicate_item": {"pool": [], "bundles": [[0, 0, 1], [2]]},
    "bool_item": {"pool": [], "bundles": [[True, 0], [2]]},
    "float_item": {"pool": [], "bundles": [[0.0, 1], [2]]},
    "null_pool": {"pool": None, "bundles": [[0, 1], [2]]},
    "item_out_of_range": {"pool": [], "bundles": [[0, 1, 2], [10 ** 12]]},
    "top_level_list": [[0, 1], [2]],
}


@pytest.mark.parametrize("case", sorted(BAD_ALLOCATIONS))
def test_malformed_allocation_exits_2(tmp_path, capsys, case):
    path = write_instance(tmp_path, SMALL)
    alloc_path = tmp_path / "alloc.json"
    dump_json(BAD_ALLOCATIONS[case], alloc_path)
    assert_one_line_error(["check", path, str(alloc_path)], capsys)


@pytest.mark.parametrize("depth", [1_000, 100_000])
@pytest.mark.parametrize("kind", ["instance", "allocation"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, kind, depth):
    # Past the decoder's recursion limit json.load raises RecursionError,
    # which once escaped as a traceback. The text is written directly, as
    # dump_json would itself recurse that deep.
    nested = "[" * depth + "]" * depth
    path = write_instance(tmp_path, SMALL)
    if kind == "instance":
        deep = tmp_path / "deep.json"
        deep.write_text(f'{{"m": 3, "n": 2, "valuations": {nested}}}')
        argv = ["shares", str(deep)]
    else:
        deep = tmp_path / "alloc.json"
        deep.write_text(f'{{"pool": [], "bundles": {nested}}}')
        argv = ["check", path, str(deep)]
    err = assert_one_line_error(argv, capsys)
    assert "nested too deeply" in err


BAD_RUNS = {
    # Generated table values reach 2 * m * max-value, past the cap.
    "gen_table_past_max_value": [
        "gen", "--kind", "table", "--max-value", "1000000000"],
    "bench_table_past_max_value": [
        "bench", "--kind", "table", "--max-value", "1000000000",
        "--trials", "1"],
    # Refused on that ceiling, whatever the draws: these runs once left 20
    # instance files behind, and exited 0 with no trials.
    "gen_table_past_max_value_some_draws_fit": [
        "gen", "--kind", "table", "--max-value", "460000000", "--count", "30"],
    "bench_table_past_max_value_no_trials": [
        "bench", "--kind", "table", "--max-value", "1000000000",
        "--trials", "0"],
    "gen_negative_count": ["gen", "--count", "-1"],
    "bench_negative_trials": ["bench", "--trials", "-1"],
    "bench_no_jobs": ["bench", "--trials", "1", "--jobs", "0"],
    # numpy's own message for a negative bound, "high <= 0", names no flag.
    "gen_negative_max_value": ["gen", "--max-value", "-1"],
    "bench_negative_max_value": ["bench", "--max-value", "-1", "--trials", "1"],
    # A cap means nothing to any other kind: refused, not dropped.
    "gen_cap_for_additive": ["gen", "--kind", "additive", "--cap", "5"],
    "bench_cap_for_table": [
        "bench", "--kind", "table", "--cap", "5", "--trials", "1"],
    # A run of no instances refuses the same arguments: it once exited 0,
    # a bench with a header-only CSV.
    "gen_negative_max_value_no_count": [
        "gen", "--max-value", "-1", "--count", "0"],
    "gen_no_items_no_count": ["gen", "--items", "0", "--count", "0"],
    "bench_cap_for_additive_no_trials": [
        "bench", "--kind", "additive", "--cap", "5", "--trials", "0"],
    "bench_negative_max_value_no_trials": [
        "bench", "--max-value", "-1", "--trials", "0"],
    "bench_no_items_no_trials": ["bench", "--items", "0", "--trials", "0"],
    # Each kind's largest generated value follows from the arguments: item
    # values up to --max-value, a cap up to --cap or, drawn, up to the item
    # sum m * max-value. Past 2^31 a run is refused before any draw: these
    # once left an instance file behind, or exited 0 with no trials.
    "gen_additive_past_max_value": [
        "gen", "--max-value", "3000000000", "--count", "30"],
    "bench_cap_past_max_value_no_trials": [
        "bench", "--kind", "capped_additive", "--cap", "3000000000",
        "--trials", "0"],
    "bench_negative_cap_no_trials": [
        "bench", "--kind", "capped_additive", "--cap", "-1", "--trials", "0"],
    "gen_drawn_cap_past_max_value": [
        "gen", "--kind", "capped_additive", "--max-value", "1000000000"],
}


@pytest.mark.parametrize("case", sorted(BAD_RUNS))
def test_bad_generation_arguments_exit_2(tmp_path, capsys, monkeypatch,
                                         case):
    def no_draws(seed, index):
        raise AssertionError("drew values for a refused run")

    monkeypatch.setattr(cli, "_rng", no_draws)
    out = tmp_path / "out"
    # The case's own flags come last, so they override these.
    command, *flags = BAD_RUNS[case]
    argv = [command, "--agents", "2", "--items", "3", "-o", str(out), *flags]
    err = assert_one_line_error(argv, capsys)
    assert any(flag in err for flag in flags if flag.startswith("--"))
    assert not out.exists()


@pytest.mark.parametrize("command, runs", [("gen", "--count"),
                                           ("bench", "--trials")])
def test_no_agents_exits_2_and_writes_nothing(tmp_path, capsys, command,
                                              runs):
    # bench once wrote its CSV, then refused the summary's ratio bound.
    out, summary = tmp_path / "out", tmp_path / "summary.json"
    argv = [command, runs, "0", "--agents", "0", "--items", "6", "-o", str(out)]
    if command == "bench":
        argv += ["--summary", str(summary)]
    err = assert_one_line_error(argv, capsys)
    assert err == "error: need at least one agent, got n=0\n"
    assert not out.exists() and not summary.exists()


@pytest.mark.parametrize("command, kind, items, code", [
    # numpy once said "negative dimensions are not allowed" for -1, and a
    # table of 21 items peaked at 154 MB before it was refused.
    ("gen", "additive", "-1", 2),
    ("gen", "table", "0", 2),
    ("bench", "capped_additive", "-1", 2),
    ("gen", "table", "21", 3),
    ("bench", "table", "21", 3),
    # Every row of a run shares its item count: a run past the cap is
    # refused whole, for every kind, rather than written as skipped rows.
    ("bench", "additive", "21", 3),
    ("bench", "capped_additive", "21", 3),
])
def test_generation_refuses_items_before_it_draws(tmp_path, capsys,
                                                  monkeypatch, command, kind,
                                                  items, code):
    def no_draws(seed, index):
        raise AssertionError("drew values for a refused instance")

    monkeypatch.setattr(cli, "_rng", no_draws)
    out = tmp_path / "out"
    argv = [command, "--agents", "2", "--items", items, "--kind", kind,
            "-o", str(out)] + (["--trials", "1"] if command == "bench" else [])
    assert run(argv)[0] == code
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.count("\n") == 1
    assert err.startswith("error: ") and items in err
    if code == 3:
        # bench refuses on its item count before it generates a table.
        subject = ("table valuations" if command == "gen"
                   else "exact share solvers")
        assert err == (f"error: {subject} support at most 20 items, "
                       f"got {items}\n")
    assert not out.exists()


@pytest.mark.parametrize("key", ["m", "n", "valuations", "values", "cap"])
def test_instance_missing_a_key_exits_2(tmp_path, capsys, key):
    instance = copy.deepcopy(SMALL)
    instance["valuations"][0] = {"kind": "capped_additive",
                                 "values": [3, 1, 1], "cap": 2}
    for holder in (instance, instance["valuations"][0]):
        holder.pop(key, None)
    path = write_instance(tmp_path, instance)
    err = assert_one_line_error(["shares", path], capsys)
    assert err == f"error: missing key {key!r}\n"


@pytest.mark.parametrize("key", ["pool", "bundles"])
def test_allocation_missing_a_key_exits_2(tmp_path, capsys, key):
    path = write_instance(tmp_path, SMALL)
    alloc_path = tmp_path / "alloc.json"
    allocation = {"pool": [], "bundles": [[0, 1], [2]]}
    del allocation[key]
    dump_json(allocation, alloc_path)
    err = assert_one_line_error(["check", path, str(alloc_path)], capsys)
    assert err == f"error: missing key {key!r}\n"


def test_zero_max_value_generates_zero_items(tmp_path):
    out = tmp_path / "gen"
    assert run(["gen", "--agents", "2", "--items", "3", "--max-value", "0",
                "-o", str(out)])[0] == 0
    inst = instance_from_json(load_json(out / "instance_0_0.json"))
    assert all(v.value_of((1 << 3) - 1) == 0 for v in inst.valuations)
    csv = tmp_path / "bench.csv"
    assert run(["bench", "--agents", "2", "--items", "3", "--max-value", "0",
                "--trials", "2", "-o", str(csv)])[0] == 0
    assert csv.read_text().count("\n") == 3


def test_bench_starts_at_most_one_worker_per_trial(tmp_path, monkeypatch):
    # A stand-in pool records its size and maps in this process.
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
    out = tmp_path / "bench.csv"
    # Never more workers than CPUs either, and one worker runs in this
    # process, with no pool.
    for cpus, trials, jobs in ((8, 1, 64), (8, 3, 64), (8, 3, 2), (2, 3, 64),
                               (None, 3, 64)):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        code, _ = run(["bench", "--agents", "2", "--items", "3", "--trials",
                       str(trials), "--jobs", str(jobs), "-o", str(out)])
        assert code == 0
        assert out.read_text().count("\n") == trials + 1
    assert sizes == [3, 2, 2]


FUZZ_INSTANCES = [
    SMALL,
    {
        "m": 2,
        "n": 2,
        "valuations": [
            {"kind": "capped_additive", "values": [2, 1], "cap": 2},
            {"kind": "table", "values": [0, 1, 2, 2]},
        ],
    },
]
FUZZ_ALLOCATIONS = [
    {"pool": [1], "bundles": [[0], [2]]},
    {"pool": [], "bundles": [[1], [0]]},
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4)
    | st.floats(-2, 4, allow_nan=False) | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["m", "n", "kind", "values", "cap", "pool", "bundles"]),
        inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _mutate(data, doc):
    """``doc`` with one node replaced by an arbitrary JSON value, or with
    one object key deleted."""
    doc = copy.deepcopy(doc)
    path = data.draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return data.draw(JSON_VALUES)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(JSON_VALUES)
    return doc


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_loaders_fuzz(data):
    inst = data.draw(st.sampled_from(FUZZ_INSTANCES))
    alloc = data.draw(st.sampled_from(FUZZ_ALLOCATIONS))
    if data.draw(st.booleans()):
        inst = _mutate(data, inst)
    else:
        alloc = _mutate(data, alloc)
    with tempfile.TemporaryDirectory() as tmp:
        inst_path, alloc_path = Path(tmp, "inst.json"), Path(tmp, "alloc.json")
        inst_path.write_text(json.dumps(inst))
        alloc_path.write_text(json.dumps(alloc))
        for argv in (["shares", str(inst_path)],
                     ["check", str(inst_path), str(alloc_path)]):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(argv + ["-o", str(Path(tmp, "out.json"))])
            assert code in (0, 2, 3, 4)
            assert err.getvalue().count("\n") == (code != 0)
