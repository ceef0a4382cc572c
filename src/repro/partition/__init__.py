"""Partition-parallel optimization: regions, workers, merge-back.

This package decomposes an AIG into disjoint optimization *regions*,
ships every region to a worker as a standalone sub-network, runs a
configurable pass script (``rw`` / ``rf`` / ``fraig`` / ...) per region
across a ``multiprocessing`` pool, and merges the optimized cones back
into the parent network -- transactionally, one
:class:`~repro.resilience.NetworkCheckpoint` per region, so one bad
worker result never corrupts the network.

The layers, bottom up:

* :mod:`~repro.partition.regions` -- deterministic decomposition into
  convex regions (contiguous slices of one topological order: fanout-
  minimising *windows* or *level* bands) and the region-to-sub-network
  extraction, materialized (:func:`extract_region`) or streamed one
  region at a time (:func:`stream_region_networks`).
* :mod:`~repro.partition.wire` -- the compact binary wire format
  (flat little-endian arrays, no AAG text on either side).
* :mod:`~repro.partition.worker` -- the per-region job a worker
  executes (one job per region): decode, optimize under a
  :class:`~repro.resilience.Budget`, re-encode the result (plus the
  deterministic fault hooks the chaos suite injects).
* :mod:`~repro.partition.pool` -- the executors: inline (``jobs=1``,
  the deterministic reference), thread (tests), and a spawned
  ``ProcessPoolExecutor`` whose workers warm the NPN/structure
  libraries once (the service's warm-worker pattern) and which restarts
  itself around crashed or hung workers.
* :mod:`~repro.partition.parallel` -- the driver:
  :func:`partition_optimize` decomposes, dispatches, verifies every
  worker result against the extracted original by simulation, and
  commits region by region in deterministic region-index order.
* :mod:`~repro.partition.script` -- :func:`wrap_script_with_jobs`, the
  helper the CLI (``repro optimize --jobs N``) and the service
  (``jobs`` job field) use to wrap a script's AIG passes into one
  ``ppart(...)`` meta-pass.

The ``ppart(script, jobs=N, ...)`` meta-pass itself is registered with
the :class:`~repro.rewriting.passes.PassManager`.
"""

from __future__ import annotations

from .parallel import PartitionReport, RegionReport, partition_optimize
from .pool import (
    InlineExecutor,
    ProcessExecutor,
    RegionExecutor,
    ThreadExecutor,
    shared_process_executor,
    shutdown_shared_executors,
)
from .regions import Region, extract_region, partition_network, stream_region_networks
from .script import wrap_script_with_jobs
from .wire import decode_region, encode_region, wire_counts
from .worker import run_region_job, warm_partition_worker

__all__ = [
    "Region",
    "partition_network",
    "extract_region",
    "stream_region_networks",
    "encode_region",
    "decode_region",
    "wire_counts",
    "run_region_job",
    "warm_partition_worker",
    "RegionExecutor",
    "InlineExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "shared_process_executor",
    "shutdown_shared_executors",
    "partition_optimize",
    "PartitionReport",
    "RegionReport",
    "wrap_script_with_jobs",
]
