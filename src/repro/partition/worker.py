"""The per-region job a partition worker executes.

:func:`run_region_job` is a plain module-level function over a plain
JSON/pickle-able payload dict, so the same code runs identically in a
spawned ``ProcessPoolExecutor``, in a thread pool, and inline in the
parent (``jobs=1``) -- the inline path IS the deterministic reference
the determinism tests compare the pools against.  Every executor
submits it directly, one job per region.

The worker parses the serialized region -- compact binary wire bytes
(``"wire"``, the scale path: no AAG text render or parse on either
side) or AIGER text (``"aag"``) -- runs the requested pass script under
its own :class:`~repro.resilience.Budget` (a wall-clock deadline plus
the region's share of the flow's conflict pool, both handed down by the
parent) with ``on_error="rollback"``, and returns the optimized region
in the same serialization it arrived in, together with its flattened
pass details -- the ``sat_``-prefixed CDCL counters become the parent's
*per-partition* solver statistics.  A ``"window"`` payload key threads
the PR 8 persistent-solver window size through to the region's own
:class:`~repro.rewriting.passes.PassManager`, so one region job keeps
one ``CircuitSolver`` window alive for its whole inner script (retired
with the job).  The worker never verifies its own result; the parent
re-checks every returned cone against the original extraction before
committing anything.

Fault hooks (``fault`` payload key) drive the chaos suite:

=============== ==========================================================
``crash``       hard worker death (``os._exit``); pool-mode only
``crash-soft``  raises :class:`SimulatedWorkerCrash` (inline/thread mode)
``exception``   raises a plain ``RuntimeError`` from inside the job
``timeout``     sleeps past the parent's collection deadline
``garbage``     returns a well-formed but non-equivalent network
                (first PO complemented) -- must die at parent-side
                verification, never in the merged result
=============== ==========================================================

Because a job is exactly one region, every fault -- soft or hard --
costs exactly that region.
"""

from __future__ import annotations

import os
import time
from typing import Any, Mapping

from ..io import ParseError, read_aiger, write_aiger
from ..networks.aig import Aig
from ..resilience import Budget, BudgetExceeded
from ..rewriting.passes import PassManager
from .wire import decode_region, encode_region

__all__ = [
    "SimulatedWorkerCrash",
    "warm_partition_worker",
    "run_region_job",
]


class SimulatedWorkerCrash(RuntimeError):
    """Stand-in for hard worker death where ``os._exit`` would kill the suite."""


def warm_partition_worker(shared: Any | None = None) -> None:
    """Pool initializer: warm the NPN/structure libraries once per worker.

    Delegates to the service's :func:`~repro.service.worker.warm_worker`
    (idempotent), so partition workers and service workers pay the
    exact-enumeration warm-up the same single time per process.  When
    the parent published its exact-enumeration tables as a shared
    read-only blob, ``shared`` is the (picklable) descriptor -- the
    worker *attaches* instead of re-enumerating, so warm-up cost and
    per-worker RSS stop scaling with the pool size.
    """
    from ..service.worker import warm_worker

    warm_worker(shared)


def _fold_details(passes: list[Any]) -> dict[str, float]:
    """Sum the numeric details of the committed passes of one region flow.

    ``sat_``-prefixed CDCL counters and merge counts add up; the
    window-reuse *rate* does not sum and is dropped (consumers derive it
    from ``sat_window_reuses`` / ``sat_calls``).
    """
    details: dict[str, float] = {}
    for stats in passes:
        if stats.status != "ok":
            continue
        for key, value in stats.details.items():
            if key == "sat_window_reuse_rate":
                continue
            if key.startswith("sat_") or key == "merges":
                details[key] = details.get(key, 0.0) + float(value)
    return details


def _compact(aig: Aig) -> Aig:
    """Replay ``aig`` into construction form (gates contiguous, topo order).

    Optimized networks can carry holes from substitutions;
    :func:`~repro.partition.wire.encode_region` needs the contiguous
    construction-form numbering, so the result is rebuilt through the
    strashing constructor first (O(n), same replay the parent's
    merge-back performs anyway).
    """
    out = Aig(aig.name)
    literal_map: dict[int, int] = {0: 0}
    for node in aig.pis:
        literal_map[node] = out.add_pi(f"i{node}")
    for node in aig.topological_order():
        fanin0, fanin1 = aig.fanins(node)
        literal_map[node] = out.add_and(
            literal_map[fanin0 >> 1] ^ (fanin0 & 1),
            literal_map[fanin1 >> 1] ^ (fanin1 & 1),
        )
    for index, literal in enumerate(aig.pos):
        out.add_po(literal_map[literal >> 1] ^ (literal & 1), f"o{index}")
    return out


def run_region_job(payload: Mapping[str, Any]) -> dict[str, Any]:
    """Optimize one extracted region; returns a JSON-ready result payload.

    Never raises in normal operation (failures come back as a typed
    ``status``); the fault hooks above are the deliberate exceptions.
    """
    region_index = int(payload.get("region", -1))
    fault = payload.get("fault")
    if fault == "crash":
        os._exit(13)
    if fault == "crash-soft":
        raise SimulatedWorkerCrash(f"injected crash in region {region_index}")
    if fault == "exception":
        raise RuntimeError(f"injected exception in region {region_index}")
    if fault == "timeout":
        time.sleep(float(payload.get("fault_sleep", 3600.0)))

    started = time.perf_counter()
    wire = payload.get("wire")
    try:
        if wire is not None:
            sub = decode_region(bytes(wire), name=f"region{region_index}")
        else:
            sub = read_aiger(str(payload["aag"]))
    except (ParseError, ValueError, KeyError) as error:
        return {"region": region_index, "status": "invalid", "message": str(error)}

    deadline = payload.get("deadline")
    conflicts = payload.get("conflicts")
    budget: Budget | None = None
    if deadline is not None or conflicts is not None:
        budget = Budget(
            wall_clock=float(deadline) if deadline is not None else None,
            conflicts=int(conflicts) if conflicts is not None else None,
        )
    window = payload.get("window")
    try:
        manager = PassManager(
            str(payload["script"]),
            seed=int(payload.get("seed", 1)),
            num_patterns=int(payload.get("num_patterns", 64)),
            conflict_limit=(
                int(payload["conflict_limit"]) if payload.get("conflict_limit") is not None else None
            ),
            window_size=int(window) if window is not None else None,
            on_error="rollback",
        )
        optimized, flow = manager.run(sub, budget=budget)
    except BudgetExceeded as error:
        # The rollback policy absorbs per-pass budget hits; this only
        # fires when the pool was empty before the first pass started.
        return {"region": region_index, "status": "budget", "message": str(error)}
    except Exception as error:
        return {
            "region": region_index,
            "status": "error",
            "message": f"{type(error).__name__}: {error}",
        }

    assert isinstance(optimized, Aig), "ppart scripts are validated aig-to-aig"
    if fault == "garbage" and optimized.num_pos:
        optimized.set_po(0, Aig.negate(optimized.pos[0]))

    details = _fold_details(flow.passes)
    details["passes_ok"] = float(sum(1 for stats in flow.passes if stats.status == "ok"))
    result: dict[str, Any] = {
        "region": region_index,
        "status": "ok",
        "gates_before": int(flow.gates_before),
        "gates_after": int(flow.gates_after),
        "wall_clock": time.perf_counter() - started,
        "conflicts_spent": int(budget.conflicts_spent) if budget is not None else 0,
        "budget_exhausted": bool(flow.budget_exhausted),
        "details": details,
    }
    if wire is not None:
        result["wire"] = encode_region(_compact(optimized))
    else:
        result["aag"] = write_aiger(optimized).decode("ascii")
    return result
