"""Span recorder and layer wrappers for the traced benchmark run.

Nothing under ``src/`` is instrumented.  Instead, :func:`layer_patches`
lists the public functions of each layer at the module or class
attribute its caller looks up (``repro.sweeping.stp_sweeper.
expand_truth_table``, ``CircuitSolver.prove_equivalence``,
``NetworkCheckpoint.__init__``, ...), and :class:`Tracer` swaps in a
wrapper that records one span per call: name, start, end and the span
that was open when it started.  Spans live in flat in-memory columns and
are written once, at exit, by :meth:`Tracer.dump`.

A layer's *self time* is its span's duration minus the time covered by
the spans it opened; the per-layer metrics are self times, so the layers
of one operation add up to its wall time.  Work inside spawned partition
workers is not wrapped: for those layers the benchmark reads the
counters the program already returns (``PartitionReport``,
``SweepStatistics``).
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

__all__ = ["Tracer", "layer_patches"]

_clock = time.perf_counter


class Tracer:
    """In-memory span store with self-time and call-count aggregates."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        # Open spans: [span index, start, time covered by child spans].
        self._stack: list[list[Any]] = []
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.values: defaultdict[str, float] = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _name_id(self, name: str) -> int:
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.names)
            self.names.append(name)
        return index

    def open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(parent)
        start = _clock()
        self.span_start.append(start)
        self.span_end.append(start)
        self._stack.append([index, start, 0.0])

    def close(self, name: str) -> None:
        end = _clock()
        index, start, covered = self._stack.pop()
        self.span_end[index] = end
        duration = end - start
        self.self_time[name] += duration - covered
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def snapshot(self) -> dict[str, float]:
        """Flat running totals: ``<span>_s`` self time, ``<span>_calls``, counters."""
        flat: dict[str, float] = dict(self.values)
        flat.update(self.counts)
        flat.update({f"{name}_s": value for name, value in self.self_time.items()})
        flat.update({f"{name}_calls": value for name, value in self.calls.items()})
        return flat

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name: str, function: Callable[..., Any], post: Callable[["Tracer", Any], None] | None) -> Callable[..., Any]:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            tracer.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close(name)
            if post is not None:
                post(tracer, result)
            return result

        return traced

    def _wrap_generator(self, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        """Time every step of a generator (the work happens in ``next``)."""
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            iterator = iter(function(*args, **kwargs))
            while True:
                tracer.open(name)
                try:
                    item = next(iterator, _DONE)
                finally:
                    tracer.close(name)
                if item is _DONE:
                    return
                yield item

        return traced

    def install(self, patches: list["Patch"]) -> None:
        """Swap every patched attribute for its recording wrapper."""
        for patch in patches:
            owner = _resolve(patch.owner)
            original = owner.__dict__[patch.attribute] if isinstance(owner, type) else getattr(owner, patch.attribute)
            if patch.generator:
                wrapper = self._wrap_generator(patch.span, original)
            else:
                wrapper = self._wrap(patch.span, original, patch.post)
            self._undo.append((owner, patch.attribute, original))
            setattr(owner, patch.attribute, wrapper)

    def uninstall(self) -> None:
        """Put every original attribute back (in reverse install order)."""
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    # -- output ---------------------------------------------------------

    @property
    def num_spans(self) -> int:
        return len(self.span_start)

    def dump(self, path: Path) -> None:
        """Write every span as compact columns plus a JSON index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = {
            "name": self.span_name,
            "start": self.span_start,
            "end": self.span_end,
            "parent": self.span_parent,
        }
        with open(path.with_suffix(".bin"), "wb") as handle:
            for column in columns.values():
                column.tofile(handle)
        index = {
            "spans": self.num_spans,
            "names": self.names,
            "layout": [[key, column.typecode, column.itemsize] for key, column in columns.items()],
            "clock": "time.perf_counter seconds",
        }
        path.write_text(json.dumps(index, indent=1) + "\n")


_DONE = object()


def _resolve(dotted: str) -> Any:
    """Import ``package.module`` or ``package.module:Class``."""
    module_name, _, class_name = dotted.partition(":")
    owner: Any = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    return owner


@dataclass(frozen=True)
class Patch:
    """One attribute to wrap: where it is looked up and the span it records.

    ``owner`` is ``package.module`` or ``package.module:Class``; ``post``
    reads counters from the wrapped call's return value; ``generator``
    marks a generator function, whose work happens in each ``next``.
    """

    owner: str
    attribute: str
    span: str
    post: Callable[[Tracer, Any], None] | None = None
    generator: bool = False


def _count_outcome(tracer: Tracer, outcome: Any) -> None:
    status = getattr(getattr(outcome, "status", None), "value", "")
    if status == "not_equivalent":
        tracer.counts["sat.satisfiable"] += 1
    elif status == "undetermined":
        tracer.counts["sat.undetermined"] += 1


def _count_sweep(tracer: Tracer, result: Any) -> None:
    _swept, stats = result
    tracer.counts["sweeping.merges"] += stats.merges
    tracer.counts["sweeping.sat_calls"] += stats.total_sat_calls
    solver = stats.solver_statistics
    tracer.counts["sat.conflicts"] += solver.get("conflicts", 0)
    tracer.counts["sat.propagations"] += solver.get("propagations", 0)
    tracer.counts["sat.window_reuses"] += solver.get("window_reuses", 0)
    tracer.counts["sat.window_queries"] += stats.total_sat_calls


def _count_stp(tracer: Tracer, result: Any) -> None:
    _count_sweep(tracer, result)
    stats = result[1]
    tracer.counts["sweeping.window_disproofs"] += stats.simulation_disproofs
    tracer.counts["sweeping.stp_satisfiable"] += stats.satisfiable_sat_calls


def _count_cec(tracer: Tracer, result: Any) -> None:
    tracer.counts["sweeping.cec_sat_calls"] += int(getattr(result, "sat_calls", 0))


def _count_partition(tracer: Tracer, result: Any) -> None:
    _network, report = result
    regions = report.regions
    tracer.counts["partition.regions"] += len(regions)
    tracer.counts["partition.regions_merged"] += sum(1 for r in regions if r.status == "merged")
    tracer.counts["partition.regions_failed"] += sum(1 for r in regions if r.status == "worker_failed")
    tracer.counts["partition.batches"] += report.batches
    tracer.counts["partition.wire_bytes"] += report.wire_bytes
    tracer.counts["partition.worker_restarts"] += report.worker_restarts
    # Worker-side wall time travels back in the report.
    tracer.values["partition.worker_busy_s"] += sum(r.wall_clock for r in regions)


def _count_checkpoint_restore(tracer: Tracer, _result: Any) -> None:
    tracer.counts["resilience.restore_calls"] += 1


def layer_patches() -> list[Patch]:
    """Every layer boundary the traced run wraps, by caller lookup site."""
    stp = "repro.sweeping.stp_sweeper"
    cleanup_sites = [
        "repro.sweeping.stats",
        "repro.rewriting.rewrite",
        "repro.rewriting.refactor",
        "repro.rewriting.passes",
        "repro.partition.parallel",
    ]
    return [
        # sweep engines (roots of the table2 operations)
        Patch("repro.sweeping.stp_sweeper:StpSweeper", "run", "sweeping.stp_loop", _count_stp),
        Patch("repro.sweeping.fraig:FraigSweeper", "run", "sweeping.fraig_loop", _count_sweep),
        # simulation
        Patch(stp, "compute_pi_supports", "simulation.local_tables"),
        Patch(stp, "compute_local_truth_tables", "simulation.local_tables"),
        Patch(stp, "expand_truth_table", "simulation.expand"),
        Patch(stp, "sat_guided_patterns", "simulation.sat_guided"),
        Patch("repro.simulation.incremental:IncrementalAigSimulator", "__init__", "simulation.random"),
        # sweeping bookkeeping
        Patch(stp, "propagate_constant_candidates", "sweeping.const_prop"),
        Patch(stp, "refine_with_counterexample", "sweeping.cex_refine"),
        Patch("repro.sweeping.fraig", "refine_with_counterexample", "sweeping.cex_refine"),
        Patch("repro.sweeping.tfi:TfiManager", "order_drivers", "sweeping.tfi_order"),
        Patch("repro.sweeping.tfi:TfiManager", "is_legal_merge", "sweeping.tfi_legal"),
        Patch("repro.sweeping.cec", "check_combinational_equivalence", "sweeping.cec", _count_cec),
        # CDCL
        Patch("repro.sat.circuit:CircuitSolver", "prove_equivalence", "sat.prove", _count_outcome),
        Patch("repro.sat.circuit:CircuitSolver", "prove_constant", "sat.prove", _count_outcome),
        # networks
        Patch("repro.networks.aig:Aig", "clone", "networks.clone"),
        Patch("repro.networks.aig:Aig", "tfi", "networks.tfi"),
        Patch("repro.networks.aig:Aig", "substitute", "networks.substitute"),
        *[Patch(site, "cleanup_dangling", "networks.cleanup") for site in cleanup_sites],
        # rewriting and cuts
        Patch("repro.rewriting.passes", "rewrite", "rewriting.rw"),
        Patch("repro.rewriting.passes", "refactor", "rewriting.rf"),
        Patch("repro.rewriting.passes", "balance", "rewriting.b"),
        Patch("repro.cuts.engine:CutEngine", "compute", "cuts.enumerate"),
        Patch("repro.cuts.engine:CutEngine", "cuts", "cuts.enumerate"),
        # transactions
        Patch("repro.resilience:NetworkCheckpoint", "__init__", "resilience.checkpoint"),
        Patch("repro.resilience:NetworkCheckpoint", "restore", "resilience.restore", _count_checkpoint_restore),
        # partition (parent side only)
        Patch("repro.partition.parallel", "partition_optimize", "partition.parent", _count_partition),
        Patch("repro.partition.parallel", "partition_network", "partition.decompose"),
        Patch("repro.partition.parallel", "stream_region_networks", "partition.extract", generator=True),
        Patch("repro.partition.parallel", "encode_region", "partition.extract"),
        Patch("repro.partition.pool:ProcessExecutor", "map_regions", "partition.dispatch_wait"),
        Patch("repro.partition.pool:InlineExecutor", "map_regions", "partition.dispatch_wait"),
    ]
