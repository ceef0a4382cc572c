"""Per-region dispatch: every region with outputs is one job of its own.

``test_partition_chaos`` fuzzes fault modes on a pool as wide as the
region count.  This suite pins the same blast radius on *narrow* pools,
where many regions queue behind one or two workers: a soft fault (an
exception inside one region's job) and a hang that times out one future
each cost exactly that region, every queued sibling still commits, and
the merged network stays CEC-equivalent.  It also pins the dispatch
accounting itself and that pool width never changes the result.
"""

from __future__ import annotations

import pytest

from repro.circuits.random_logic import random_aig
from repro.circuits.sweep_workloads import inject_redundancy
from repro.networks import Aig
from repro.networks.structural_hash import structural_hash
from repro.partition import parallel as parallel_module
from repro.partition.parallel import partition_optimize
from repro.partition.pool import ThreadExecutor
from repro.partition.regions import partition_network
from repro.sweeping.cec import check_combinational_equivalence

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


def _eligible(aig: Aig) -> list[int]:
    return [region.index for region in partition_network(aig, max_gates=MAX_GATES) if region.outputs]


@pytest.mark.parametrize("fault", ["crash-soft", "exception"])
def test_soft_fault_on_a_single_worker_costs_only_its_own_region(fault: str) -> None:
    """Every region queues on one worker; one faults; the rest commit."""
    aig = _workload(31)
    eligible = _eligible(aig)
    assert len(eligible) >= 4
    faulted = eligible[1]
    executor = ThreadExecutor(1)
    try:
        optimized, report = partition_optimize(
            aig,
            "rw",
            jobs=1,
            max_gates=MAX_GATES,
            executor=executor,
            fault_plan={faulted: fault},
        )
    finally:
        executor.close()
    by_index = {region.index: region for region in report.regions}
    assert by_index[faulted].status == "worker_failed"
    for index in eligible:
        if index != faulted:
            assert by_index[index].status in ("merged", "unchanged"), (
                f"region {index}: {by_index[index].status} ({by_index[index].failure})"
            )
    assert report.regions_rolled_back == 1
    assert check_combinational_equivalence(aig, optimized).equivalent


def test_hang_on_a_two_worker_pool_costs_only_its_own_region(monkeypatch) -> None:
    """A hang times out its own future; the other worker drains the queue."""
    monkeypatch.setattr(parallel_module, "_TIMEOUT_GRACE", 1.5)
    aig = _workload(32)
    eligible = _eligible(aig)
    assert len(eligible) >= 4
    faulted = eligible[0]
    executor = ThreadExecutor(2)
    try:
        optimized, report = partition_optimize(
            aig,
            "rw",
            jobs=2,
            max_gates=MAX_GATES,
            executor=executor,
            region_timeout=0.4,
            fault_plan={faulted: "timeout"},
            # Past the collection deadline (0.4s per wave plus the grace),
            # so the hanging worker cannot wake up and merge innocently.
            fault_sleep=12.0,
        )
    finally:
        executor.close()
    by_index = {region.index: region for region in report.regions}
    assert by_index[faulted].status == "worker_failed"
    for index in eligible:
        if index != faulted:
            assert by_index[index].status in ("merged", "unchanged"), (
                f"region {index}: {by_index[index].status} ({by_index[index].failure})"
            )
    assert report.regions_rolled_back == 1
    assert check_combinational_equivalence(aig, optimized).equivalent


def test_one_job_is_dispatched_per_region_with_outputs() -> None:
    aig = _workload(34)
    eligible = _eligible(aig)
    executor = ThreadExecutor(2)
    try:
        _optimized, report = partition_optimize(
            aig, "rw", jobs=2, max_gates=MAX_GATES, executor=executor
        )
    finally:
        executor.close()
    assert report.batches == len(eligible)
    assert report.as_details()["ppart_batches"] == float(len(eligible))
    assert report.wire_bytes > 0
    # Dead cones are reported, left untouched and never shipped to a worker.
    dead = [region for region in report.regions if region.index not in eligible]
    assert len(report.regions) == len(eligible) + len(dead)
    assert all(region.status == "unchanged" for region in dead)


def test_pool_width_does_not_change_the_result() -> None:
    """Dispatch is a transport decision: 1, 2 and 3 workers agree exactly."""
    aig = _workload(33)
    hashes = set()
    for width in (1, 2, 3):
        executor = ThreadExecutor(width)
        try:
            optimized, _report = partition_optimize(
                aig.clone(),
                "rw; rf",
                jobs=width,
                max_gates=MAX_GATES,
                executor=executor,
            )
        finally:
            executor.close()
        hashes.add(structural_hash(optimized))
    assert len(hashes) == 1
