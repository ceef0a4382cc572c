"""Benchmark of the partition-parallel optimization subsystem.

Measurements over the largest bundled EPFL workloads plus -- on hosts
that can exploit it -- a >= 200k-gate structured-random synthetic
(:func:`~repro.circuits.random_logic.random_aig`), the scale regime the
streaming dispatch path is built for.  Two splits per workload:

* ``jobs=1`` inline versus ``jobs=4`` over the shared warmed
  spawned-process pool (the headline speedup number);
* persistent per-region solver windows versus fresh solver encodes on a
  ``fraig`` sweep, isolating the solver-reuse win.

The determinism contract is asserted outright -- every mode must produce
*structurally identical* networks and stay CEC-equivalent to the input
-- so the recorded numbers are pure transport/scheduling measurements,
not a quality trade.  Running this target with ``--benchmark-enable``
regenerates ``BENCH_partition.json`` in the repository root.

**Honest-numbers policy**: ``cpu_count`` is recorded at the top of the
JSON and the speedup assertion only arms on hosts with >= 4 CPUs -- on
a 1-2 CPU container a spawned pool *cannot* beat inline execution and
pretending otherwise would make the benchmark lie.  The synthetic scale
workload likewise only runs when >= 4 CPUs are available (or
``REPRO_BENCH_SCALE=1`` forces it), so the default test run stays fast
on small hosts while real hardware measures the regime that matters.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.circuits import epfl_benchmark
from repro.circuits.random_logic import random_aig
from repro.networks.structural_hash import structural_hash
from repro.partition.parallel import partition_optimize
from repro.partition.pool import shared_process_executor, shutdown_shared_executors
from repro.sweeping.cec import check_combinational_equivalence

#: Recorded prominently and gating every host-dependent claim below.
CPU_COUNT = os.cpu_count() or 1

JOBS = 4
MAX_GATES = 300
SCRIPT = "rw; rf"
#: The solver-window split needs a SAT-sweeping pass to mean anything.
SWEEP_SCRIPT = "fraig"
SOLVER_WINDOW = 8

#: The >= 200k-gate synthetic only runs where its answer is meaningful
#: (enough CPUs for the pool to win) or when explicitly forced.
SCALE_GATES = 200_000
RUN_SCALE = CPU_COUNT >= 4 or os.environ.get("REPRO_BENCH_SCALE") == "1"

#: Where the acceptance run records its numbers.
_RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_partition.json"


def _workloads():
    loads = [
        ("hyp", lambda: epfl_benchmark("hyp")),
        ("mem_ctrl", lambda: epfl_benchmark("mem_ctrl")),
    ]
    if RUN_SCALE:
        loads.append(
            (
                f"rand{SCALE_GATES // 1000}k",
                lambda: random_aig(
                    num_pis=64, num_gates=SCALE_GATES, num_pos=32, seed=11
                ),
            )
        )
    return loads


def test_bench_partition_parallel_suite(benchmark):
    """Inline/pooled and windowed/fresh splits.

    The pool is created and warmed *outside* the timed region (the warm
    NPN/structure libraries and the shared exact-table blob are a
    one-time per-process cost the service amortizes over its lifetime),
    so the measured numbers are steady-state dispatch/merge cost, not
    process spawn latency.
    """
    benchmark.group = "partition-flow"

    # Warm the shared pool before anything is timed.
    executor = shared_process_executor(JOBS)
    warmup = epfl_benchmark("ctrl")
    partition_optimize(warmup, "rw", jobs=JOBS, max_gates=40, executor=executor)

    def optimize_suite():
        rows = {}
        for name, load in _workloads():
            aig = load()
            t = time.perf_counter()
            inline, _report = partition_optimize(aig, SCRIPT, jobs=1, max_gates=MAX_GATES)
            inline_s = time.perf_counter() - t

            t = time.perf_counter()
            pooled, report = partition_optimize(
                aig, SCRIPT, jobs=JOBS, max_gates=MAX_GATES, executor=executor
            )
            pooled_s = time.perf_counter() - t

            # The determinism contract: the pool and solver windows are
            # implementation details, never a result change.
            assert structural_hash(inline) == structural_hash(pooled), (
                f"{name}: jobs={JOBS} diverged from the inline reference"
            )
            outcome = check_combinational_equivalence(aig, pooled)
            assert outcome.equivalent, f"{name}: merged result is not equivalent"
            assert report.worker_restarts == 0

            # Solver-window split on a SAT sweep, transport held fixed.
            t = time.perf_counter()
            fresh, _ = partition_optimize(
                aig, SWEEP_SCRIPT, jobs=JOBS, max_gates=MAX_GATES, executor=executor
            )
            fresh_s = time.perf_counter() - t
            t = time.perf_counter()
            windowed, _ = partition_optimize(
                aig, SWEEP_SCRIPT, jobs=JOBS, max_gates=MAX_GATES, executor=executor,
                window_size=SOLVER_WINDOW,
            )
            windowed_s = time.perf_counter() - t
            assert structural_hash(fresh) == structural_hash(windowed), (
                f"{name}: solver window changed the fraig result"
            )

            rows[name] = {
                "gates_before": aig.num_gates,
                "gates_after": pooled.num_gates,
                "regions": report.regions_built,
                "regions_merged": report.regions_merged,
                "batches": report.batches,
                "wire_bytes": report.wire_bytes,
                "inline_jobs1_s": round(inline_s, 4),
                f"pool_jobs{JOBS}_s": round(pooled_s, 4),
                "speedup": round(inline_s / max(pooled_s, 1e-9), 3),
                "fraig_fresh_s": round(fresh_s, 4),
                f"fraig_window{SOLVER_WINDOW}_s": round(windowed_s, 4),
                "window_speedup": round(fresh_s / max(windowed_s, 1e-9), 3),
            }
        return rows

    rows = benchmark.pedantic(optimize_suite, rounds=1, iterations=1)
    try:
        scale_name = f"rand{SCALE_GATES // 1000}k"
        if CPU_COUNT >= 4 and scale_name in rows:
            # With real cores the pool must clearly win at scale; on
            # smaller hosts only determinism/equivalence are claimed.
            assert rows[scale_name]["speedup"] >= 1.5, rows[scale_name]
        if benchmark.disabled:
            # A plain test run checks the assertions above and leaves the
            # recorded numbers alone.
            return
        record = {
            "benchmark": "partition-parallel-optimization",
            "cpu_count": CPU_COUNT,
            "scale_workload_ran": RUN_SCALE,
            "speedup_assertion": (
                f"armed (cpu_count={CPU_COUNT} >= 4): jobs={JOBS} must be >= 1.5x "
                "inline on the synthetic scale workload"
                if CPU_COUNT >= 4
                else f"disarmed: cpu_count={CPU_COUNT} < 4, a spawned pool cannot "
                "beat inline here; only determinism and equivalence are asserted"
            ),
            "subject": (
                "streaming region extraction, binary wire dispatch (one job per "
                "region), shared warm exact-tables, per-region solver windows"
            ),
            "method": (
                f"partition_optimize('{SCRIPT}', max_gates={MAX_GATES}); inline "
                f"jobs=1 vs jobs={JOBS} shared warmed spawned pool, plus a "
                f"'{SWEEP_SCRIPT}' split with and without "
                f"window_size={SOLVER_WINDOW}; structural identity across every "
                "mode and CEC against the input asserted on every workload"
            ),
            "workloads": rows,
        }
        try:
            _RESULT_PATH.write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
        except OSError:  # pragma: no cover - read-only checkouts still benchmark fine
            pass
    finally:
        shutdown_shared_executors()
