"""Tests for the benchmark itself: seeded inputs, work counts, clean patching."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

CLI = bench.import_cli()


def _prepared(tmp_path, name, seed, op_ids=None):
    _, workload, paths = bench.prepare(name, seed, tmp_path / ("%s-%d" % (name, seed)))
    if op_ids is not None:
        workload = workloads.Workload(name, [op for op in workload.ops if op.op_id in op_ids])
    return bench.Runner(workload, paths, tmp_path / ("%s-%d" % (name, seed)), CLI.main)


def _traced_counts(runner):
    tr = tracer.Tracer()
    tr.install()
    try:
        runner.run_pass(0, tr)
    finally:
        tr.restore()
    metrics = tracer.pass_metrics(tr.spans, tracer.self_times(tr.spans), range(len(tr.spans)), tr.counts)
    return {name: metrics[name] for name in tracer.COUNT_METRICS}


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_same_seed_same_configs_other_seed_other_numbers(name):
    first, again, other = (workloads.generate(name, s) for s in (1, 1, 2))
    texts = lambda w: [op.config_text() for op in w.ops + w.probes]  # noqa: E731
    assert texts(first) == texts(again)
    assert texts(first) != texts(other)
    shape = lambda w: [(op.op_id, op.command, op.args, op.expect) for op in w.ops]  # noqa: E731
    assert shape(first) == shape(other)


def test_blind_spot_work_is_the_same_for_every_seed(tmp_path):
    coefficients, counts = set(), []
    for seed in (1, 2):
        runner = _prepared(tmp_path, "circle-witness", seed, {"blind-spot"})
        coefficients.add(runner.workload.ops[0].config_text())
        counts.append(_traced_counts(runner))
        assert not runner.failures
    assert len(coefficients) == 2
    assert counts[0] == counts[1]
    assert counts[0]["gluing.lift_calls"] == 864
    assert counts[0]["gluing.parity_calls"] == 432
    assert counts[0]["classify.witnesses_found"] == 0


def test_ping_pong_surface_work_is_the_same_for_every_seed(tmp_path):
    counts = []
    for seed in (1, 2):
        runner = _prepared(tmp_path, "moebius-ball", seed, {"g2-pair-surface"})
        counts.append(_traced_counts(runner))
        assert not runner.failures
    assert counts[0] == counts[1]
    assert counts[0]["gluing.faces"] == 17 + 161 + 1457
    assert counts[0]["cayley.vertices"] == 17 + 161 + 1457


def test_untraced_pass_patches_nothing_and_traced_pass_restores(tmp_path):
    before = tracer.snapshot()
    runner = _prepared(tmp_path, "config-batch", 3)
    runner.run_pass(0)
    assert tracer.patched_since(before) == []
    counts = _traced_counts(runner)
    assert counts["targets.compose_calls.permutation"] > 0  # the wrappers did run
    assert tracer.patched_since(before) == []
    assert not runner.failures


def test_outputs_are_byte_identical_between_runs(tmp_path):
    digests = []
    for k in range(2):
        runner = _prepared(tmp_path / str(k), "config-batch", 5)
        runner.run_pass(0)
        assert not runner.failures
        digests.append(runner.first_digest)
    assert digests[0] == digests[1]


def test_known_defect_probe_reports_the_ball_failure(tmp_path):
    runner = _prepared(tmp_path, "config-batch", 1)
    lines = runner.run_probes()
    assert len(lines) == 1 and "known-defect-log-ball" in lines[0]


def test_self_time_subtracts_children():
    spans = [
        ["cli.main", 0, 100, -1, 0],
        ["classify.classify_cover", 10, 60, 0, 0],
        ["gluing.genus_growth", 20, 50, 1, 0],
        ["cayley.export_dot", 70, 80, 0, 0],
    ]
    assert tracer.self_times(spans) == [40, 20, 30, 10]


def test_tail_percentile_keeps_ten_samples_beyond():
    stats = bench.latency_stats([i * 1_000_000 for i in range(1, 101)])
    assert (stats["n"], stats["p50_ms"], stats["tail_pct"], stats["tail_ms"]) == (100, 50, 90, 90)
    stats = bench.latency_stats([i * 1_000_000 for i in range(1, 1001)])
    assert (stats["tail_pct"], stats["tail_ms"], stats["beyond"]) == (99, 990, 10)
    stats = bench.latency_stats([i * 1_000_000 for i in range(1, 16)])
    assert (stats["tail_pct"], stats["tail_ms"]) == (50, stats["p50_ms"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "config-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
