"""Self-test of the benchmark at a tiny size: one input per workload.

    python3 -m pytest perfbench

It checks that every metric BENCHMARK.json names is printed with its
unit, that the trace covers the traced wall time, that op times are
calibrated against the reference runs around them, and that a corrupted
count is reported as a failure without a single number.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import calibrate
import run

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def declared(kind):
    with open(BENCHMARK) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Pools of one input, the cheapest of the workload; spans to tmp_path."""
    monkeypatch.setattr(run, "select_pool", lambda frozen, seed: [frozen["strata"][0][0]])
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    return tmp_path


def last_line(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_end_to_end_metric_is_printed_with_its_unit(workload, tiny, capsys):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0"])
    result = last_line(capsys)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_layer_metric_is_printed_and_spans_cover_the_wall(workload, tiny, capsys):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1"])
    result = last_line(capsys)
    assert code == 0 and result["correct"] is True
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == declared("per_layer")
    assert 0 <= metrics["trace.uncovered_ratio"]["value"] < 0.05
    [path] = tiny.iterdir()
    with open(path) as f:
        header = json.loads(next(f))
        spans = [json.loads(line) for line in f]
    assert header["workload"] == workload
    assert sum(s["name"] == "op" for s in spans) == 1
    assert all({"name", "start", "end", "parent", "op"} <= set(s) for s in spans)
    assert all(s["start"] <= s["end"] for s in spans)


def test_count_metrics_repeat_between_traced_runs(tiny, capsys):
    counts = []
    for _ in range(2):
        run.main(["--workload", "d4-pairwise", "--seed", "0", "--seconds", "0", "--trace", "1"])
        metrics = last_line(capsys)["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["flags.subspaces"] > 0


@pytest.mark.parametrize("workload", ["d4-pairwise", "dirsum-split"])
def test_a_count_off_by_one_fails_without_numbers(workload, tiny, monkeypatch, capsys):
    real_setup = run.setup

    def corrupted_setup(*args):
        P, inputs = real_setup(*args)
        real = P.flags._count

        def crooked(m, steps, memo):
            n = real(m, steps, memo)
            return n + 1 if len(steps) == 2 else n

        P.flags._count = crooked
        return P, inputs

    monkeypatch.setattr(run, "setup", corrupted_setup)
    code = run.main(["--workload", workload, "--seed", "0", "--seconds", "0"])
    result = last_line(capsys)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1
    assert result["metrics"] == {}


def test_a_call_is_timed_against_the_references_around_it(monkeypatch):
    ref = calibrate.REFERENCE_S
    probes = iter([2 * ref] * 4 + [ref] * 4)
    monkeypatch.setattr(calibrate, "probe", lambda: next(probes))
    clock = calibrate.Clock()
    calls = [clock.record(1.0) for _ in range(7)]
    assert clock.calibrated(calls[0]) == pytest.approx(0.5)
    assert clock.calibrated(calls[3]) == pytest.approx(1 / 1.5)
    assert clock.calibrated(calls[6]) == pytest.approx(1.0)


def test_the_seed_picks_one_member_per_stratum():
    frozen = run.load_frozen("ext-pairs")
    pool = run.select_pool(frozen, 11)
    assert pool == run.select_pool(frozen, 11)
    assert pool != run.select_pool(frozen, 12)
    assert all(sum(i in stratum for i in pool) == 1 for stratum in frozen["strata"])
    assert len(pool) == len(frozen["strata"])


def test_without_the_package_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(BENCHMARK, tmp_path)
    shutil.copytree(
        run.HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ext-pairs",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no preproj package" in proc.stderr
