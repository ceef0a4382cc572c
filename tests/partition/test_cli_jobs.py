"""CLI smoke: ``repro optimize --jobs 2`` on a bundled workload.

This is the CI partition-smoke leg: a real two-worker spawned process
pool, warmed libraries, merge-back, CEC verification -- end to end
through the public command line.  Kept deliberately small (one workload,
one script) so it stays well inside the pytest timeout.
"""

from __future__ import annotations

import json

import pytest

from repro.circuits.epfl import epfl_benchmark
from repro.harness.cli import optimize_main
from repro.io import write_aiger
from repro.partition.pool import shutdown_shared_executors


@pytest.fixture
def workload_file(tmp_path):
    path = tmp_path / "int2float.aag"
    path.write_bytes(write_aiger(epfl_benchmark("int2float")))
    return str(path)


@pytest.fixture(autouse=True)
def _teardown_pools():
    yield
    shutdown_shared_executors()


def test_optimize_jobs_two_end_to_end(workload_file, tmp_path, capsys):
    stats_path = tmp_path / "stats.json"
    output_path = tmp_path / "optimized.aag"
    code = optimize_main(
        [
            workload_file,
            "--script",
            "rw; rf",
            "--jobs",
            "2",
            "--partition-max-gates",
            "80",
            "--stats-json",
            str(stats_path),
            "--output",
            str(output_path),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "partition-parallel script:" in captured.out
    assert "partitions:" in captured.out
    assert output_path.exists()

    stats = json.loads(stats_path.read_text())
    ppart = stats["passes"][0]
    assert ppart["name"].startswith("ppart(")
    assert ppart["status"] == "ok"
    partitions = ppart["partitions"]
    assert len(partitions) == int(ppart["details"]["ppart_regions_built"])
    assert all(p["status"] in ("merged", "unchanged") for p in partitions)
    # The flow-level verification ran and passed (exit code 0 + verified).
    assert stats["verified"] is True


def test_optimize_jobs_rejects_bad_value(workload_file, capsys):
    code = optimize_main([workload_file, "--jobs", "0"])
    assert code == 2
    assert "jobs" in capsys.readouterr().err


def test_optimize_jobs_auto_resolves_to_cpu_count(workload_file, tmp_path, capsys):
    import os

    stats_path = tmp_path / "stats.json"
    code = optimize_main(
        [
            workload_file,
            "--script",
            "rw",
            "--jobs",
            "auto",
            "--partition-max-gates",
            "80",
            "--stats-json",
            str(stats_path),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    expected = os.cpu_count() or 1
    assert f"jobs={expected}" in captured.out
    stats = json.loads(stats_path.read_text())
    details = stats["passes"][0]["details"]
    assert int(details["ppart_jobs"]) == expected


def test_optimize_jobs_rejects_garbage_strings(workload_file, capsys):
    with pytest.raises(SystemExit) as excinfo:
        optimize_main([workload_file, "--jobs", "banana"])
    assert excinfo.value.code == 2
    assert "auto" in capsys.readouterr().err


def test_optimize_partition_window_flag(workload_file, tmp_path, capsys):
    stats_path = tmp_path / "stats.json"
    code = optimize_main(
        [
            workload_file,
            "--script",
            "rw",
            "--jobs",
            "1",
            "--partition-max-gates",
            "60",
            "--partition-window",
            "2",
            "--stats-json",
            str(stats_path),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    # The knob lands in the wrapped ppart token the CLI echoes...
    assert "window=2" in captured.out
    stats = json.loads(stats_path.read_text())
    ppart = stats["passes"][0]
    details = ppart["details"]
    # ...and every region with outputs is one dispatch job.
    dispatched = [p for p in ppart["partitions"] if p["outputs"]]
    assert int(details["ppart_batches"]) == len(dispatched)
    assert int(details["ppart_wire_bytes"]) > 0
    assert stats["verified"] is True


def test_optimize_rejects_the_removed_batch_option(workload_file, capsys):
    code = optimize_main([workload_file, "--script", "ppart(rw, batch=0)"])
    assert code == 2
    assert "unknown ppart option 'batch'" in capsys.readouterr().err
