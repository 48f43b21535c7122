#!/usr/bin/env python3
"""Benchmark for leaftype: named, seeded workloads through the real CLI path.

    python3 bench/run.py --workload config-batch --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the repository root. Every operation is one in-process call of
`leaftype.cli.main` on a generated config, issued by one closed-loop client
(the next call starts when the previous one returns). The run makes a fixed
number of passes over the workload's operations, derived from --seconds, so
the same seed and --seconds always time the same operations. Each output is
checked against the outcome its construction fixes and against the bytes of
the first pass. `--trace 0` prints the end-to-end metrics; `--trace 1`
alternates untraced passes with passes that have span wrappers installed
(see tracer.py) and prints the per-layer metrics. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional

import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Seconds one pass over each workload took on the reference machine (2-core
# Xeon, Python 3.11). The pass count is --seconds divided by this, so it does
# not depend on how fast the code under test is.
PASS_SECONDS = {"moebius-ball": 10.0, "circle-witness": 7.5, "config-batch": 0.27}
SETUP_REPEATS = 9
# op_tail_ms is the highest of these percentiles with TAIL_BEYOND samples above it
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def load_declaration() -> dict:
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as fh:
        return json.load(fh)


def import_cli():
    """leaftype.cli from this checkout's src/, never from anywhere else."""
    if not (SRC / "leaftype" / "__init__.py").is_file():
        raise RuntimeError("no leaftype sources under %s" % SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import leaftype
    import leaftype.cli

    if Path(leaftype.__file__).resolve().parent != (SRC / "leaftype").resolve():
        raise RuntimeError("imported leaftype from %s, not from %s" % (leaftype.__file__, SRC))
    return leaftype.cli


def prepare(name: str, seed: int, workdir: Path):
    """Set-up: import leaftype, generate and write the configs, make output dirs."""
    cli = import_cli()
    workload = workloads.generate(name, seed)
    if workdir.exists():
        shutil.rmtree(workdir)
    paths = workloads.write_configs(workload, workdir / "configs")
    for op in workload.ops + workload.probes:
        (workdir / "out" / op.op_id).mkdir(parents=True)
    return cli, workload, paths


def measure_setup(name: str, seed: int) -> List[float]:
    """Wall time of fresh processes that only do the set-up, spawn to exit."""
    times = []
    for k in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", name, "--seed", str(seed),
             "--workdir", str(WORK / ("%s-setup%d" % (name, k)))],
            check=True, timeout=120,
        )
        times.append(time.perf_counter() - start)
    return times


# -- running operations ----------------------------------------------------------


def invoke(call: Callable, argv: List[str]):
    """One operation: exit code, stdout, stderr and latency in ns."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            code = call(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the run goes on; the op counts as failed
            code = None
            traceback.print_exc()
        latency = time.perf_counter_ns() - start
    return code, out.getvalue(), err.getvalue(), latency


def read_outputs(out_dir: Path) -> Dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())} if out_dir.exists() else {}


def digest(stdout: str, stderr: str, files: Dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for part in (stdout.encode(), stderr.encode()):
        h.update(b"%d:" % len(part) + part)
    for fname, data in files.items():
        h.update(b"%s:%d:" % (fname.encode(), len(data)) + data)
    return h.hexdigest()


def check(op: workloads.Op, code, stdout: str, stderr: str, files: Dict[str, bytes]) -> Optional[str]:
    """Why the operation's outcome differs from the expected one, or None."""
    exp = op.expect
    if code != exp["exit"]:
        return "exit %r, expected %r: %s" % (code, exp["exit"], stderr.strip()[-200:])
    if "stderr" in exp:
        if exp["stderr"] not in stderr or stdout or stderr.count("\n") != 1:
            return "expected one error line mentioning %r, got %r" % (exp["stderr"], stderr)
        return None
    try:
        payload = json.loads(stdout)
        if "label" in exp:
            if files.get("verdict.json") != stdout.encode():
                return "verdict.json differs from stdout"
            if payload["label"] != exp["label"]:
                return "label %r, expected %r" % (payload["label"], exp["label"])
            if "genus_class" in exp:
                kind = payload["ends_report"]["genus_class"]["kind"]
                if kind != exp["genus_class"]:
                    return "genus class %r, expected %r" % (kind, exp["genus_class"])
        if "vertices" in exp:
            ball = json.loads(files["ball.json"])
            counts = (payload["vertices"], len(ball["vertices"]), files["ball.dot"].count(b"// "))
            if counts != (exp["vertices"],) * 3:
                return "ball vertices (stdout, json, dot) %r, expected %r" % (counts, exp["vertices"])
        if "faces" in exp:
            if files.get("surface.json") != stdout.encode():
                return "surface.json differs from stdout"
            faces = [row["F"] for row in payload["rows"]]
            if faces != exp["faces"]:
                return "faces %r, expected %r" % (faces, exp["faces"])
    except (ValueError, KeyError, TypeError) as exc:
        return "unreadable output: %r" % (exc,)
    return None


class Runner:
    """Runs passes over a workload and checks every output."""

    def __init__(self, workload: workloads.Workload, paths, workdir: Path, main: Callable):
        self.workload = workload
        self.paths = paths
        self.workdir = workdir
        self.main = main
        self.first_digest: Dict[str, str] = {}
        self.first_outputs: Dict[str, tuple] = {}
        self.attempted = 0
        self.failures: List[str] = []
        self.op_names: Dict[int, str] = {}

    def argv(self, op: workloads.Op) -> List[str]:
        return [op.command, "--config", str(self.paths[op.op_id]),
                "--out", str(self.workdir / "out" / op.op_id), *op.args]

    def run_pass(self, pass_index: int, traced: Optional[tracer.Tracer] = None):
        """One pass; returns (pass seconds, per-op latencies in ns).

        The pass time is the sum of the ops' wall times: the client's own work
        between ops (clearing output directories, reading and checking
        outputs) is not part of it.
        """
        ops = self.workload.ops
        for op in ops:
            shutil.rmtree(self.workdir / "out" / op.op_id, ignore_errors=True)
        argvs = [self.argv(op) for op in ops]
        results = []
        for i, argv in enumerate(argvs):
            if traced is None:
                results.append(invoke(self.main, argv))
            else:
                seq = pass_index * len(ops) + i
                self.op_names[seq] = "pass%d/%s" % (pass_index, ops[i].op_id)
                results.append(invoke(lambda a, s=seq: traced.call_op(s, self.main, a), argv))
        for op, (code, out, err, _) in zip(ops, results):
            self.record(op, code, out, err, "pass %d" % pass_index)
        latencies = [r[3] for r in results]
        return sum(latencies) / 1e9, latencies

    def record(self, op: workloads.Op, code, out: str, err: str, where: str) -> None:
        files = read_outputs(self.workdir / "out" / op.op_id)
        self.attempted += 1
        problem = check(op, code, out, err, files)
        d = digest(out, err, files)
        first = self.first_digest.setdefault(op.op_id, d)
        if op.op_id not in self.first_outputs:
            self.first_outputs[op.op_id] = (code, out, files)
        if problem is None and d != first:
            problem = "output bytes differ from the first pass"
        if problem is not None:
            self.failures.append("%s %s: %s" % (where, op.op_id, problem))

    def run_probes(self) -> List[str]:
        lines = []
        for op in self.workload.probes:
            code, out, err, _ = invoke(self.main, self.argv(op))
            problem = check(op, code, out, err, read_outputs(self.workdir / "out" / op.op_id))
            status = "still failing: %s" % problem if problem else "now passes; the defect is fixed"
            lines.append("known defect %s (%s %s): %s" % (op.op_id, op.command, " ".join(op.args), status))
        return lines

    def work_counters(self) -> Dict[str, int]:
        """Work per pass, read from the first pass's outputs."""
        counters: Dict[str, int] = {}
        for op in self.workload.ops:
            code, out, files = self.first_outputs[op.op_id]
            key = "ops.%s.exit%s" % (op.command, code)
            counters[key] = counters.get(key, 0) + 1
            if op.command == "ball" and "ball.json" in files:
                counters["ball_vertices"] = counters.get("ball_vertices", 0) + len(json.loads(files["ball.json"])["vertices"])
            if op.command == "surface" and "surface.json" in files:
                faces = sum(row["F"] for row in json.loads(files["surface.json"])["rows"])
                counters["surface_faces"] = counters.get("surface_faces", 0) + faces
        return dict(sorted(counters.items()))


# -- statistics -----------------------------------------------------------------


def nearest_rank(sorted_values: List[float], rank: int) -> float:
    return sorted_values[max(1, min(rank, len(sorted_values))) - 1]


def latency_stats(latencies_ns: List[int]) -> dict:
    """Median and the highest of TAIL_PERCENTILES with TAIL_BEYOND samples above it.

    Nearest-rank percentiles. With fewer than 2 * TAIL_BEYOND samples even
    the median has fewer than TAIL_BEYOND beyond it; the tail is then the median.
    """
    vals = sorted(v / 1e6 for v in latencies_ns)
    n = len(vals)
    rank = lambda pct: max(1, math.ceil(pct * n / 100))  # noqa: E731
    tail_pct = next((p for p in TAIL_PERCENTILES if n - rank(p) >= TAIL_BEYOND), 50.0)
    return {
        "n": n,
        "p50_ms": nearest_rank(vals, rank(50.0)),
        "tail_ms": nearest_rank(vals, rank(tail_pct)),
        "tail_pct": tail_pct,
        "beyond": n - rank(tail_pct),
    }


def quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return "single value"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return "q1 %.4f, q3 %.4f" % (q1, q3)


def environment(seed: int) -> str:
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text(encoding="utf-8", errors="replace").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return "python %s, nproc %s, cpu %s, seed %d" % (
        platform.python_version(), os.cpu_count(), cpu or "unknown", seed)


def pass_count(name: str, seconds: int) -> int:
    return max(1, round(seconds / PASS_SECONDS[name]))


# -- the two modes ------------------------------------------------------------


def run_untraced(runner: Runner, passes: int, setup_times: List[float]):
    pass_s, lats = [], []
    for p in range(passes):
        seconds, lat = runner.run_pass(p)
        pass_s.append(seconds)
        lats.extend(lat)
    stats = latency_stats(lats)
    ops_total = len(lats)
    failed = len(runner.failures)
    metrics = {
        "run_s": statistics.median(pass_s),
        "op_p50_ms": stats["p50_ms"],
        "op_tail_ms": stats["tail_ms"],
        "ops_per_s": len(runner.workload.ops) / statistics.median(pass_s),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report = [
        "run_s       %.4f s    median of %d passes (%s)" % (metrics["run_s"], passes, quartiles(pass_s)),
        "op_p50_ms   %.4f ms   median of n=%d ops" % (metrics["op_p50_ms"], stats["n"]),
        "op_tail_ms  %.4f ms   p%g of n=%d ops (%d beyond)" % (
            metrics["op_tail_ms"], stats["tail_pct"], stats["n"], stats["beyond"]),
        "ops_per_s   %.4f 1/s  %d ops per pass over run_s, closed loop, 1 client" % (
            metrics["ops_per_s"], len(runner.workload.ops)),
        "setup_s     %.4f s    median of %d set-up processes (%s)" % (metrics["setup_s"], len(setup_times), quartiles(setup_times)),
        "peak_rss_mb %.2f MB" % metrics["peak_rss_mb"],
        "failed_frac %.4f     %d of %d ops" % (failed / ops_total, failed, ops_total),
    ]
    return metrics, report


def run_traced(runner: Runner, passes: int):
    """Untraced and traced passes in turn; per-layer metrics and overhead.

    Alternating keeps warm-up and drift out of the overhead figure. Counts
    must repeat exactly in every traced pass.
    """
    before = tracer.snapshot()
    tr = tracer.Tracer()
    plain_s, traced_s, per_pass, problems = [], [], [], []
    for p in range(max(passes, 4)):
        if p % 2 == 0:
            plain_s.append(runner.run_pass(p)[0])
            continue
        tr.counts.clear()
        first_span = len(tr.spans)
        tr.install()
        try:
            traced_s.append(runner.run_pass(p, tr)[0])
        finally:
            tr.restore()
        per_pass.append((range(first_span, len(tr.spans)), tr.counts.copy()))
        leftover = tracer.patched_since(before)
        if leftover:
            problems.append("wrappers not restored: %s" % leftover[:5])
    selves = tracer.self_times(tr.spans)
    rows = [tracer.pass_metrics(tr.spans, selves, r, c) for r, c in per_pass]
    metrics = {}
    for name in rows[0]:
        values = [row[name] for row in rows]
        if name in tracer.COUNT_METRICS:
            if len(set(values)) != 1:
                problems.append("count %s differs between traced passes: %s" % (name, values))
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics.update(tracer.element_microtimers(tr.samples))
    metrics.update(tracer.scalar_microtimers(*tracer.scalar_samples(op.config for op in runner.workload.ops)))
    metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(plain_s)
    spans_path = WORK / ("%s-spans.jsonl" % runner.workload.name)
    tr.write_spans(spans_path, runner.op_names)
    report = [
        "%d traced passes alternating with %d untraced; %d spans written to %s" % (
            len(traced_s), len(plain_s), len(tr.spans), spans_path.relative_to(ROOT)),
        "tracing overhead %.4f s per pass (traced run_s %.4f s - untraced run_s %.4f s)" % (
            metrics["trace.overhead_s"], statistics.median(traced_s), statistics.median(plain_s)),
    ]
    return metrics, report, problems


def run_workload(args) -> int:
    declaration = load_declaration()
    import_cli()  # fail fast, before the set-up processes, if there is no program
    setup_times = measure_setup(args.workload, args.seed) if not args.trace else []
    workdir = WORK / args.workload
    cli, workload, paths = prepare(args.workload, args.seed, workdir)
    runner = Runner(workload, paths, workdir, cli.main)
    passes = pass_count(args.workload, args.seconds)
    problems: List[str] = []
    if args.trace:
        metrics, report, problems = run_traced(runner, passes)
        declared = declaration["per_layer"]
    else:
        metrics, report = run_untraced(runner, passes, setup_times)
        declared = declaration["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise RuntimeError("metrics declared in BENCHMARK.json but not measured: %s" % missing)
    print("workload %s: %d ops per pass, %d passes, trace %d" % (
        workload.name, len(workload.ops), passes, args.trace))
    print("environment: %s" % environment(args.seed))
    for line in report:
        print("  " + line)
    if args.trace:
        for m in declared:
            print("  %-40s %14.4f %s" % (m["name"], metrics[m["name"]], m["unit"]))
    print("work per pass: %s" % json.dumps(runner.work_counters(), sort_keys=True))
    print("outputs digest: %s" % hashlib.sha256(
        "".join(runner.first_digest[op.op_id] for op in workload.ops).encode()).hexdigest())
    for line in runner.run_probes():
        print(line)
    for line in runner.failures[:20] + problems:
        print("MISMATCH " + line)
    result = {
        "correct": not runner.failures and not problems,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process; a combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.GENERATORS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"]["%s/%s" % (name, metric)] = value
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.GENERATORS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        if args.setup_only:
            prepare(args.workload, args.seed, Path(args.workdir))
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except (OSError, RuntimeError, ImportError, subprocess.SubprocessError) as exc:
        sys.stderr.write("benchmark failed: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
