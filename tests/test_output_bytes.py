"""The bytes every benchmark workload writes, pinned at seed 1.

One untimed pass of each workload runs through the benchmark's own set-up
and runner (bench/run.py), and the aggregate digest it prints as "outputs
digest" must stay the same: a change that alters any exit code, message or
output file of any operation fails here.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402

DIGESTS = {
    "moebius-ball": "8772373227a3edf23c67018cdc7b2c067960a7d51d2d112a6c6912afa223363f",
    "circle-witness": "753420f1fc2c007b9f0a8a626a4cba8586b7d650b6725226f84fd23e0a5e1441",
    "config-batch": "baabba2fbb8d0a9d2caf7c0aa0c533cfc0ec2a9563a44a097222775653238778",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_seed_one_outputs_digest(tmp_path, name):
    cli, workload, paths = bench.prepare(name, 1, tmp_path)
    runner = bench.Runner(workload, paths, tmp_path, cli.main)
    runner.run_pass(0)
    assert runner.failures == []
    aggregate = "".join(runner.first_digest[op.op_id] for op in workload.ops)
    assert hashlib.sha256(aggregate.encode()).hexdigest() == DIGESTS[name]
