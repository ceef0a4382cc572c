"""Partition chaos fuzz: worker faults hit exactly their own partition.

Every seed decomposes a redundant random workload, injects one worker
fault (soft crash, plain exception, hang past the collection deadline,
or a garbage result -- well-formed but non-equivalent) into a rotating
subset of regions, and asserts the blast radius: only the faulted
regions end up non-merged, every healthy region still commits, no
exception escapes, and the final network is CEC-equivalent to the
input.  Thread executors stand in for process pools (a raising thread
is observationally a dead worker, without paying a process spawn per
seed); one real spawned-pool crash test at the end covers the
``os._exit`` path and the pool-restart accounting.
"""

from __future__ import annotations

import os

import pytest

from repro.circuits.random_logic import random_aig
from repro.circuits.sweep_workloads import inject_redundancy
from repro.networks import Aig
from repro.partition import parallel as parallel_module
from repro.partition.parallel import partition_optimize
from repro.partition.pool import ThreadExecutor, shutdown_shared_executors
from repro.partition.regions import partition_network
from repro.sweeping.cec import check_combinational_equivalence

SEEDS = list(range(24))

#: Worker fault modes exercised by the rotating plans.  ``crash-soft``
#: stands in for hard worker death (an exception crossing the executor
#: boundary), ``timeout`` hangs past the collection deadline,
#: ``garbage`` returns a well-formed but non-equivalent network that
#: must die at parent-side verification.
FAULTS = ["crash-soft", "exception", "timeout", "garbage"]

MAX_GATES = 25


def _workload(seed: int) -> Aig:
    base = random_aig(num_pis=8, num_gates=120, num_pos=6, seed=seed)
    workload, _report = inject_redundancy(
        base,
        duplication_fraction=0.2,
        constant_cones=1,
        near_miss_count=1,
        cut_size=3,
        seed=seed + 1,
    )
    return workload


@pytest.mark.parametrize("seed", SEEDS)
def test_worker_fault_blast_radius_is_one_partition(seed: int, monkeypatch):
    monkeypatch.setattr(parallel_module, "_TIMEOUT_GRACE", 1.5)
    aig = _workload(seed)
    regions = partition_network(aig, max_gates=MAX_GATES)
    assert len(regions) >= 3, "workload too small to partition meaningfully"
    fault = FAULTS[seed % len(FAULTS)]
    # Rotate one or two faulted regions across the seeds.  Only regions
    # with visible outputs are eligible: dead cones are never dispatched
    # to a worker, so a fault planted there would never fire.
    eligible = [region.index for region in regions if region.outputs]
    assert len(eligible) >= 3
    faulted = {eligible[seed % len(eligible)]: fault}
    if seed % 2:
        faulted[eligible[(seed // 2 + 1) % len(eligible)]] = fault

    executor = ThreadExecutor(3)
    try:
        optimized, report = partition_optimize(
            aig,
            "rw; rf",
            # ``jobs`` only drives the wave/deadline arithmetic here (the
            # injected executor bounds real concurrency at 3): one wave
            # keeps the collection deadline at region_timeout + grace =
            # 3.0s, safely below the injected 10s hang -- otherwise the
            # sleeping worker wakes up and innocently merges.
            jobs=len(regions),
            max_gates=MAX_GATES,
            executor=executor,
            region_timeout=1.5,
            fault_plan=faulted,
            fault_sleep=10.0,
        )
    finally:
        executor.close()

    by_index = {region.index: region for region in report.regions}
    for index, region_report in by_index.items():
        if index in faulted:
            # The faulted partition never commits...
            if fault == "garbage":
                assert region_report.status == "rolled_back"
                assert "not equivalent" in (region_report.failure or "")
            else:
                assert region_report.status == "worker_failed"
        else:
            # ...and every healthy partition is unaffected.
            assert region_report.status in ("merged", "unchanged"), (
                f"region {index}: {region_report.status} ({region_report.failure})"
            )
    assert report.regions_rolled_back == len(faulted)

    outcome = check_combinational_equivalence(aig, optimized)
    assert outcome.status == "equivalent"
    assert outcome.equivalent


def test_all_workers_faulted_returns_the_input(monkeypatch):
    monkeypatch.setattr(parallel_module, "_TIMEOUT_GRACE", 2.0)
    aig = _workload(99)
    regions = partition_network(aig, max_gates=MAX_GATES)
    executor = ThreadExecutor(2)
    try:
        optimized, report = partition_optimize(
            aig,
            "rw",
            jobs=2,
            max_gates=MAX_GATES,
            executor=executor,
            fault_plan={region.index: "exception" for region in regions},
        )
    finally:
        executor.close()
    assert report.regions_merged == 0
    # Every dispatched region failed; dead cones were never dispatched.
    assert report.regions_rolled_back == sum(1 for region in regions if region.outputs)
    from repro.networks.structural_hash import structural_hash

    assert structural_hash(optimized) == structural_hash(aig)


@pytest.mark.skipif(os.name != "posix", reason="hard worker death uses os._exit")
def test_real_process_crash_restarts_pool_and_degrades_gracefully():
    """A worker dying via ``os._exit`` only loses its own partition."""
    aig = _workload(7)
    regions = partition_network(aig, max_gates=MAX_GATES)
    assert len(regions) >= 3
    try:
        optimized, report = partition_optimize(
            aig,
            "rw",
            jobs=2,
            max_gates=MAX_GATES,
            fault_plan={regions[1].index: "crash"},
        )
    finally:
        shutdown_shared_executors()
    assert report.worker_restarts >= 1
    by_index = {region.index: region for region in report.regions}
    assert by_index[regions[1].index].status == "worker_failed"
    healthy = [r for i, r in by_index.items() if i != regions[1].index]
    assert all(r.status in ("merged", "unchanged") for r in healthy)
    outcome = check_combinational_equivalence(aig, optimized)
    assert outcome.equivalent
