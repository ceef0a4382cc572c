"""The repository benchmark: one closed-loop client per workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table2-sim --seed 0 --seconds 30 --trace 0

A run sets the workload up, runs one warm-up round on input variant 0
(checked, not timed into any metric; ppart warms its pool in set-up
instead), then runs rounds of every operation on every variant for
``--seconds``: at least one round, and as many more as bring the
measured time nearest to ``--seconds``.

``--trace 0`` measures the end-to-end metrics with nothing wrapped:

* ``op_s``: wall time of the operations of one round, median over the
  rounds (table2-sim: ``FraigSweeper.run`` + ``StpSweeper.run``; resyn2:
  ``PassManager.run`` + the final CEC; ppart: ``PassManager.run``);
* ``gates_out``: summed AND count of one round's outputs;
* ``setup_s``: median over the set-ups of input generation plus library
  and pool warm-up;
* ``peak_rss_mb``: peak RSS of this process plus its live pool workers.

The per-operation split (``stp_sweep_s``, ``fraig_sweep_s``,
``optimize_s``, ``verify_s``, the SAT-call counts) and the failed-
operation count are printed and recorded too.  ``--trace 1``
alternates untraced and traced rounds: the traced rounds give the
per-layer metrics (see ``spans.py``), the untraced ones the
per-operation split (``e2e.*``), and their ratio the tracing overhead.
Metric names and units come from ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are the human-readable report.  A full record (environment, sample
counts, per-input figures) is written to ``perfbench/out/``.  The exit
code is 0 when every output checked out and every exact count repeated,
1 when a check failed, and 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import multiprocessing
import multiprocessing.util
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Per-operation split printed for the user and recorded with each result.
OP_KINDS = ("stp_sweep", "fraig_sweep", "optimize", "verify")

#: Paper values for the derived Table II figures (STP / &fraig).
PAPER_RUNTIME_RATIO = 0.65
PAPER_SAT_CALL_RATIO = 0.60


def parse_arguments(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0, help="workload seed; 0 reproduces today's named rows")
    parser.add_argument("--seconds", type=float, default=30.0, help="measured wall time (at least one round)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def _commit() -> str:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def _source_digest() -> str:
    """SHA-256 over ``src/**/*.py``: identifies the code when git is absent."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def load_spec() -> dict[str, Any]:
    """``BENCHMARK.json``: the metric names and units this script reports."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(spec: dict[str, Any], key: str) -> dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in spec[key]}


def environment(seed: int, jobs: int | None) -> dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "pool_jobs": jobs,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------


def _vm_hwm_mb(pid: int | str) -> float:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the peaks of its live pool children."""
    own = _vm_hwm_mb("self")
    if own == 0.0:  # no /proc: fall back to getrusage (kilobytes on Linux)
        import resource

        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + sum(_vm_hwm_mb(child.pid) for child in multiprocessing.active_children())


def stop_children(timeout: float = 30.0) -> None:
    """Wait for every child process this run started to end."""
    deadline = time.monotonic() + timeout
    for child in multiprocessing.active_children():
        child.join(max(0.1, deadline - time.monotonic()))
        if child.is_alive():
            child.terminate()
            child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join(5.0)


def stop_resource_tracker() -> None:
    """Stop and reap the ``multiprocessing`` resource tracker.

    Spawned pools and the shared rewrite library start it as a plain
    child process, outside ``active_children()``.  Left alone it ends
    only after this process has exited, so it would outlive the run;
    closing its pipe here makes it end now, and ``_stop`` waits for it.
    Call this last: a later shared-memory register or unregister would
    start a new tracker.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def stop_everything() -> None:
    """Stop the pools, every child process, the shared library and the tracker.

    The pools' manager threads are joined and the ``multiprocessing``
    finalizers that interpreter exit would run are run first, so the
    pool queues' semaphores are released while the tracker still runs.
    """
    from repro.partition.pool import shutdown_shared_executors
    from repro.rewriting.shared import unpublish_shared_library

    shutdown_shared_executors()
    stop_children()
    for thread in threading.enumerate():
        if thread is not threading.current_thread() and not thread.daemon:
            thread.join(30.0)
    gc.collect()
    multiprocessing.util._run_finalizers(0)
    unpublish_shared_library()
    stop_resource_tracker()


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _geomean(values: list[float]) -> float:
    positive = [value for value in values if value > 0]
    if not positive:
        return 0.0
    return math.exp(sum(math.log(value) for value in positive) / len(positive))


def setup(workload: Any) -> tuple[dict[int, dict[str, Any]], dict[str, list[float]], list[Any]]:
    """Set the workload up ``workload.setups`` times.

    Returns the inputs of each variant, the phase times, and the
    operations the warm-ups ran.  Set-up ``k`` builds variants
    ``k, k + setups, ...`` (modulo the variant count), so the set-ups
    share the generation work evenly.
    """
    setups = workload.setups
    inputs: dict[int, dict[str, Any]] = {}
    times: dict[str, list[float]] = {"setup_s": [], "circuits.generate_s": [], "rewriting.library_warm_s": []}
    warm_ops: list[Any] = []
    for k in range(setups):
        start = time.perf_counter()
        for variant in range(k, max(setups, workload.variants), setups):
            inputs[variant % workload.variants] = workload.generate(variant % workload.variants)
        generated = time.perf_counter()
        warm_ops.extend(workload.warm())
        warmed = time.perf_counter()
        times["setup_s"].append(warmed - start)
        times["circuits.generate_s"].append(generated - start)
        times["rewriting.library_warm_s"].append(warmed - generated)
    return inputs, times, warm_ops


class Guard:
    """Determinism guard: exact counts must repeat across every round."""

    def __init__(self) -> None:
        self.first: dict[tuple[str, str], tuple[int, int, int]] = {}
        self.violations: list[str] = []

    def observe(self, op: Any) -> None:
        key = (op.kind, op.input)
        fingerprint = op.fingerprint()
        expected = self.first.setdefault(key, fingerprint)
        if fingerprint != expected:
            self.violations.append(
                f"{op.kind} on {op.input}: (gates_out, sat_calls, disproofs) = {fingerprint}, "
                f"first round gave {expected}"
            )


def layer_metrics(delta: dict[str, float], names: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced round from running-total deltas."""
    get = delta.get
    metrics = {name: float(get(name, 0.0)) for name in names if not name.startswith(("e2e.", "trace."))}
    disproofs = get("sweeping.window_disproofs", 0.0)
    satisfiable = get("sweeping.stp_satisfiable", 0.0)
    metrics["sweeping.disproof_ratio"] = disproofs / (disproofs + satisfiable) if disproofs + satisfiable else 0.0
    sat_calls = get("sweeping.sat_calls", 0.0)
    metrics["sweeping.merge_ratio"] = get("sweeping.merges", 0.0) / sat_calls if sat_calls else 0.0
    queries = get("sat.window_queries", 0.0)
    metrics["sat.window_reuse_rate"] = get("sat.window_reuses", 0.0) / queries if queries else 0.0
    regions = get("partition.regions", 0.0)
    metrics["partition.merge_ratio"] = get("partition.regions_merged", 0.0) / regions if regions else 0.0
    metrics["partition.parent_self_s"] = float(get("partition.parent_s", 0.0))
    metrics["networks.substitute_calls"] = float(get("networks.substitute_calls", 0.0))
    return metrics


def op_split(rounds: list[list[Any]]) -> dict[str, dict[str, float]]:
    """Median over rounds of each operation kind's summed time and counts."""
    split: dict[str, dict[str, float]] = {}
    for kind in OP_KINDS:
        per_round = [[op for op in ops if op.kind == kind] for ops in rounds]
        if not any(per_round):
            continue
        split[kind] = {
            "seconds": _median([sum(op.seconds for op in ops) for ops in per_round]),
            "sat_calls": _median([sum(op.sat_calls for op in ops) for ops in per_round]),
            "gates_out": _median([sum(op.gates_out for op in ops) for ops in per_round]),
            "rounds": len(per_round),
            "ops_per_round": len(per_round[0]),
        }
    return split


def table2_summary(rounds: list[list[Any]]) -> dict[str, float] | None:
    """Derived Table II figures: STP/&fraig geomean runtime and total-SAT-call ratio."""
    stp = {op.input: op for op in rounds[0] if op.kind == "stp_sweep"}
    fraig = {op.input: op for op in rounds[0] if op.kind == "fraig_sweep"}
    if not stp:
        return None
    runtime: dict[str, list[float]] = {name: [] for name in stp}
    for ops in rounds:
        times = {(op.kind, op.input): op.seconds for op in ops}
        for name in stp:
            runtime[name].append(times[("stp_sweep", name)] / times[("fraig_sweep", name)])
    return {
        "runtime_ratio_geomean": _geomean([_median(values) for values in runtime.values()]),
        "paper_runtime_ratio": PAPER_RUNTIME_RATIO,
        "total_sat_call_ratio": _geomean([op.sat_calls for op in stp.values()])
        / max(_geomean([op.sat_calls for op in fraig.values()]), 1e-9),
        "paper_total_sat_call_ratio": PAPER_SAT_CALL_RATIO,
        "window_disproofs": float(sum(op.disproofs for op in stp.values())),
    }


def measure(arguments: argparse.Namespace) -> int:
    from spans import Tracer, layer_patches
    from workloads import WORKLOADS, Checker, Op, Timer

    spec = load_spec()
    layer_units = _units(spec, "per_layer")
    workload = WORKLOADS[arguments.workload](arguments.seed)
    tracer = Tracer() if arguments.trace else None
    env = environment(arguments.seed, getattr(workload, "jobs", None))

    variants, setup_times, warm_ops = setup(workload)
    inputs = {name: network for variant in sorted(variants) for name, network in variants[variant].items()}
    checker = Checker()
    guard = Guard()
    timer = Timer(tracer, layer_patches() if tracer is not None else None)

    def run_round(round_inputs: dict[str, Any]) -> list[Any]:
        try:
            return workload.run_round(round_inputs, checker, timer)
        except Exception as error:  # a raise is a failed operation; it ends the run
            errors.append(f"{type(error).__name__}: {error}")
            return [Op("raise", "-", 0.0, failure=errors[-1])]

    rounds: list[list[Any]] = []
    layer_rounds: list[dict[str, float]] = []
    errors: list[str] = []
    try:
        # The warm-up round on variant 0 fills the program's per-process
        # caches; its outputs are checked, but it is not part of op_s.
        start = time.perf_counter()
        warmup = run_round(variants[0]) if workload.warmup_round else []
        warmup_seconds = time.perf_counter() - start
        for op in warm_ops + warmup:
            guard.observe(op)
        timer.tracing = tracer is not None
        started = unit_started = time.perf_counter()
        while not errors:
            if tracer is not None and len(rounds) % 2 == 0:
                before = tracer.snapshot()
            timer.start_round(len(rounds))
            ops = run_round(inputs)
            rounds.append(ops)
            for op in ops:
                guard.observe(op)
            paired = tracer is None or len(rounds) % 2 == 0
            if tracer is not None and paired:
                after = tracer.snapshot()
                delta = {k: after.get(k, 0.0) - before.get(k, 0.0) for k in after}
                layer_rounds.append(layer_metrics(delta, list(layer_units)))
            if paired:
                # Stop at the unit boundary nearest to ``--seconds``: one
                # more unit (a round, or a round pair when tracing) would
                # overshoot by more than this one falls short.
                now = time.perf_counter()
                if now - started + (now - unit_started) / 2 >= arguments.seconds:
                    break
                unit_started = now
        peak = peak_rss_mb()
    finally:
        workload.teardown()
        stop_children()

    # In a traced run, two consecutive rounds run every operation once
    # untraced and once traced; regroup them into one round of each.
    if tracer is None:
        untraced, traced = rounds, []
    else:
        pairs = [rounds[i] + rounds[i + 1] for i in range(0, len(rounds) - 1, 2)]
        untraced = [[op for op in ops if not op.traced] for ops in pairs]
        traced = [[op for op in ops if op.traced] for ops in pairs]
    all_ops = [op for ops in [warmup] + rounds for op in ops]
    failures = [f"{op.kind} on {op.input}: {op.failure}" for op in all_ops if op.failure]
    correct = not failures and not guard.violations
    split = op_split(untraced)
    op_seconds = [sum(op.seconds for op in ops) for ops in untraced]
    metrics: dict[str, float] = {
        "op_s": _median(op_seconds),
        "gates_out": float(sum(op.gates_out for op in (untraced or [warmup])[0])),
        "setup_s": _median(setup_times["setup_s"]),
        "peak_rss_mb": peak,
    }
    summary = table2_summary(untraced) if untraced and not errors else None
    record: dict[str, Any] = {
        "workload": workload.name,
        "why": next(entry["why"] for entry in spec["workloads"] if entry["name"] == workload.name),
        "trace": arguments.trace,
        "seconds": arguments.seconds,
        "environment": env,
        "inputs": {name: {"gates": network.num_ands, "pis": network.num_pis, "pos": network.num_pos} for name, network in inputs.items()},
        "samples": {
            "op_s": len(untraced),
            "setup_s": len(setup_times["setup_s"]),
            "gates_out": 1,
            "peak_rss_mb": 1,
            "per_layer": len(layer_rounds),
        },
        "metrics": metrics,
        "round_op_s": op_seconds,
        "warmup_round_s": warmup_seconds,
        "setup_phases_s": setup_times,
        "operations": split,
        "ops_attempted": len(all_ops),
        "ops_failed": len(failures),
        "ops_failed_share": len(failures) / max(1, len(all_ops)),
        "failures": failures,
        "determinism_violations": guard.violations,
        "cec_proofs": checker.proofs,
        "table2_summary": summary,
    }

    if tracer is not None:
        # Zeros stand in only when a failure ended the run before a traced pair.
        layers = dict.fromkeys(layer_units, 0.0)
        layers.update({name: _median([values[name] for values in layer_rounds]) for name in (layer_rounds or [{}])[0]})
        for phase in ("circuits.generate_s", "rewriting.library_warm_s"):
            layers[phase] = _median(setup_times[phase])
        for kind in OP_KINDS:
            layers[f"e2e.{kind}_s"] = split.get(kind, {}).get("seconds", 0.0)
        layers["e2e.stp_sat_calls"] = split.get("stp_sweep", {}).get("sat_calls", 0.0)
        layers["e2e.fraig_sat_calls"] = split.get("fraig_sweep", {}).get("sat_calls", 0.0)
        traced_seconds = _median([sum(op.seconds for op in ops) for ops in traced])
        overhead = 100.0 * (traced_seconds / metrics["op_s"] - 1.0) if metrics["op_s"] else 0.0
        layers["trace.overhead_pct"] = overhead
        layers["trace.spans"] = float(tracer.num_spans)
        record["per_layer"] = layers
        record["trace_overhead"] = {
            "traced_op_s": traced_seconds,
            "untraced_op_s": metrics["op_s"],
            "traced_minus_untraced_s": traced_seconds - metrics["op_s"],
            "overhead_pct": overhead,
        }
        tracer.dump(OUT / f"spans-{workload.name}-seed{arguments.seed}.json")
        units = layer_units
    else:
        record["trace_overhead"] = "measured by the --trace 1 run of this workload"
        units = _units(spec, "end_to_end")

    OUT.mkdir(parents=True, exist_ok=True)
    result_path = OUT / f"result-{workload.name}-seed{arguments.seed}-trace{arguments.trace}.json"
    result_path.write_text(json.dumps(record, indent=1, default=float) + "\n")

    source = record["per_layer"] if tracer is not None else metrics
    reported = {name: source[name] for name in units}
    print_report(record, reported, units)
    for message in failures + guard.violations:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(all_ops),
                "failed": len(failures),
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in reported.items()},
            }
        )
    )
    return 0 if correct else 1


def print_report(record: dict[str, Any], reported: dict[str, float], units: dict[str, str]) -> None:
    env = record["environment"]
    print(
        f"workload {record['workload']} seed {env['seed']} trace {record['trace']}: "
        f"nproc {env['nproc']}, pool jobs {env['pool_jobs'] or '-'}, python {env['python']}, "
        f"numpy {env['numpy']}, commit {env['commit'][:12]}"
    )
    samples = record["samples"]
    print(
        f"  rounds {samples['op_s']} (op_s, per-operation medians) after a {record['warmup_round_s']:.3f} s warm-up round, "
        f"set-ups {samples['setup_s']}, traced rounds {samples['per_layer']}"
    )
    for kind, values in record["operations"].items():
        print(
            f"  {kind + '_s':<16} {values['seconds']:.4f} s   sat_calls {int(values['sat_calls'])}   "
            f"gates_out {int(values['gates_out'])}   ({values['ops_per_round']} ops/round)"
        )
    print(f"  ops_failed       {record['ops_failed']} of {record['ops_attempted']} ({record['ops_failed_share']:.4f})")
    summary = record.get("table2_summary")
    if summary:
        print(
            f"  Table II (derived, ungated): STP/&fraig runtime geomean {summary['runtime_ratio_geomean']:.3f} "
            f"(paper {summary['paper_runtime_ratio']}), total SAT calls {summary['total_sat_call_ratio']:.3f} "
            f"(paper {summary['paper_total_sat_call_ratio']}), window disproofs {int(summary['window_disproofs'])}"
        )
    if isinstance(record["trace_overhead"], dict):
        overhead = record["trace_overhead"]
        print(
            f"  tracing overhead: traced {overhead['traced_op_s']:.4f} s vs untraced {overhead['untraced_op_s']:.4f} s "
            f"per round ({overhead['overhead_pct']:+.2f}%)"
        )
    for name, value in reported.items():
        print(f"  {name:<30} {value:.6g} {units[name]}")


def _terminate(signum: int, _frame: Any) -> None:
    # Unwind through the ``finally`` blocks that stop the worker pool.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    arguments = parse_arguments(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"benchmark: the program under test is missing ({ROOT / 'src' / 'repro'} not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if arguments.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {arguments.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        return measure(arguments)
    finally:
        stop_everything()


if __name__ == "__main__":
    sys.exit(main())
