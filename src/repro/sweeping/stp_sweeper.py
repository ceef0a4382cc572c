"""The STP-enhanced SAT sweeper (Algorithm 2 of the paper).

The flow differs from the baseline FRAIG sweeper in the four ways the
paper calls out:

1. *SAT-guided initial simulation* (Section IV-A): two rounds of
   solver-generated patterns seed the candidate classes and prove constant
   nodes before any sweeping happens (lines 2-3 of Algorithm 2).
2. *Reverse topological traversal*: gates are processed from the primary
   outputs towards the inputs (line 4).
3. *TFI-bounded driver selection*: merge drivers are taken from the
   candidate's generalised (polarity-merged) equivalence class, ordered and
   bounded through the transitive-fanin manager (lines 10-17).
4. *STP-based exhaustive refinement*: before a SAT query is issued for a
   (candidate, driver) pair, the pair's functions are compared exhaustively
   over a common window of at most ``window_leaves`` leaves; a mismatch
   disproves the candidate equivalence with no SAT call at all, and every
   SAT counter-example is likewise propagated only through the nodes that
   still sit in equivalence classes (Section IV-A, "Refinement using
   STP-based Simulation").  The STP simulator's per-node local table is a
   global function of the node's PI support, so the comparison needs no
   expansion onto the window: each node gets a :func:`function_key`
   (functional-support leaves plus the table shrunk onto them) once, the
   pair check compares two keys (complementing one for inverted
   polarity), and the window bound is a popcount over PI-support
   bitmasks.

A window disproof changes neither the classes nor the don't-touch marks
nor the network, so each candidate walks one ordered driver list per
class state; the list is rebuilt only after a SAT counter-example has
refined the classes.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, NamedTuple

from ..networks.aig import Aig, LIT_FALSE
from ..sat.circuit import CircuitSolver, EquivalenceStatus
from ..simulation.incremental import IncrementalAigSimulator
from ..simulation.patterns import PatternSet
from ..simulation.sat_guided import sat_guided_patterns
from ..simulation.stp_simulator import (
    compute_local_truth_tables,
    compute_pi_supports,
    expand_truth_table,
    function_key,
)
from ..truthtable import TruthTable
from .constant_prop import propagate_constant_candidates
from .equivalence import EquivalenceClasses, refine_with_counterexample
from .stats import SweepStatistics
from .tfi import TfiManager

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from ..resilience import Budget

__all__ = ["StpSweeper", "stp_sweep"]


class _WindowKey(NamedTuple):
    """Exhaustive-window identity of one node's local function."""

    #: Structural PI support as a bitmask over PI node indices.
    pi_mask: int
    #: Functional support and the table over it (see :func:`function_key`).
    leaves: tuple[int, ...]
    bits: int
    #: All-ones table over ``leaves``: ``bits ^ full`` is the complement.
    full: int


class StpSweeper:
    """SAT sweeping with STP-based exhaustive simulation (Algorithm 2)."""

    def __init__(
        self,
        aig: Aig,
        num_patterns: int = 64,
        seed: int = 1,
        conflict_limit: int | None = 10_000,
        tfi_limit: int = 1000,
        window_leaves: int = 16,
        use_sat_guided_patterns: bool = True,
        use_exhaustive_refinement: bool = True,
        pattern_queries: int = 8,
        budget: "Budget | None" = None,
        window_size: int | None = None,
    ) -> None:
        self.original = aig
        self.num_patterns = num_patterns
        self.seed = seed
        self.conflict_limit = conflict_limit
        self.tfi_limit = tfi_limit
        self.window_leaves = window_leaves
        self.use_sat_guided_patterns = use_sat_guided_patterns
        self.use_exhaustive_refinement = use_exhaustive_refinement
        self.pattern_queries = pattern_queries
        #: Solver-window policy forwarded to :class:`CircuitSolver`:
        #: ``None`` keeps one persistent solver for the whole sweep,
        #: ``1`` is the fresh-encode-per-query oracle.
        self.window_size = window_size
        #: Optional :class:`repro.resilience.Budget`, polled per candidate
        #: and threaded into the SAT layer (shared conflict pool, deadline).
        self.budget = budget

    # ------------------------------------------------------------------

    def run(self) -> tuple[Aig, SweepStatistics]:
        """Sweep a copy of the network; returns the swept AIG and statistics."""
        aig = self.original.clone()
        stats = SweepStatistics(
            name=aig.name,
            num_pis=aig.num_pis,
            num_pos=aig.num_pos,
            depth=aig.depth(),
            gates_before=aig.num_ands,
        )
        start = time.perf_counter()
        solver = CircuitSolver(
            aig,
            conflict_limit=self.conflict_limit,
            budget=self.budget,
            window_size=self.window_size,
        )
        tfi = TfiManager(aig, self.tfi_limit)

        # Structural PI supports and per-node local functions, computed once
        # up front by the STP simulator.  A node's local function stays valid
        # across equivalence-preserving substitutions, so the cache is never
        # invalidated during the sweep.
        sim_start = time.perf_counter()
        self._supports = compute_pi_supports(aig, self.window_leaves)
        self._keys: dict[int, _WindowKey | None] = {}
        if self.use_exhaustive_refinement:
            self._local_tables = compute_local_truth_tables(aig, self.window_leaves, self._supports)
        else:
            self._local_tables = {}
        stats.simulation_time += time.perf_counter() - sim_start

        # ---- lines 2-3: SAT-guided patterns, constants, initial classes ---
        simulator, classes = self._initialise(aig, solver, stats)

        # ---- one-time STP-based exhaustive refinement of every class --------
        # (Section IV-A: only nodes inside equivalence classes are simulated,
        # with exhaustive patterns over windows of fewer than 16 leaves.)
        window_covered: set[int] = set()
        if self.use_exhaustive_refinement:
            sim_start = time.perf_counter()
            for cls in classes.classes():
                members = [member for member in cls.members if member != 0]
                if len(members) < 2 or cls.representative == 0:
                    continue
                tables = self._window_tables(members)
                if tables is None:
                    continue
                window_covered.update(members)
                splits = classes.refine_with_truth_tables(tables)
                stats.simulation_disproofs += splits
            stats.simulation_time += time.perf_counter() - sim_start

        merged: set[int] = set()

        # ---- line 4: reverse topological order -----------------------------
        # The traversal works from the primary outputs towards the inputs;
        # drivers are always chosen among gates created earlier than the
        # candidate ("merging graph vertices from input to output"), so the
        # substituted gate's cone dangles and is removed by the final cleanup.
        order = aig.topological_order()
        for candidate in reversed(order):
            if self.budget is not None:
                self.budget.checkpoint("stp")
            # lines 7-9: skip checks.
            if candidate in merged or classes.is_dont_touch(candidate):
                continue
            cls = classes.class_of(candidate)
            if cls is None or cls.is_singleton():
                continue
            self._process_candidate(
                aig, candidate, classes, solver, tfi, simulator, merged, window_covered, stats
            )

        stats.patterns_used = simulator.num_patterns

        # ---- finalise (shared tail: cleanup, counters, timers) ---------------
        return stats.finalize(aig, solver, start), stats

    # ------------------------------------------------------------------

    def _initialise(
        self,
        aig: Aig,
        solver: CircuitSolver,
        stats: SweepStatistics,
    ) -> tuple[IncrementalAigSimulator, EquivalenceClasses]:
        """Lines 2-3 of Algorithm 2: patterns, constant propagation, classes."""
        sim_start = time.perf_counter()
        if self.use_sat_guided_patterns:
            guided = sat_guided_patterns(
                aig,
                solver,
                num_random=self.num_patterns,
                seed=self.seed,
                max_queries_per_round=self.pattern_queries,
                conflict_limit=self.conflict_limit,
            )
            constant_patterns = guided.constant_patterns
            equivalence_patterns = guided.equivalence_patterns
            known_constants = guided.proven_constants
        else:
            constant_patterns = PatternSet.random(aig.num_pis, self.num_patterns, self.seed)
            equivalence_patterns = constant_patterns.copy()
            known_constants = {}
        stats.simulation_time += time.perf_counter() - sim_start

        report = propagate_constant_candidates(
            aig,
            constant_patterns,
            solver,
            known_constants=known_constants,
            local_tables=self._local_tables or None,
            conflict_limit=self.conflict_limit,
        )
        stats.constant_merges += report.substitutions
        stats.merges += report.substitutions
        stats.simulation_disproofs += report.exhaustive_disproofs
        for pattern in report.counterexamples:
            equivalence_patterns.add_pattern(pattern)

        sim_start = time.perf_counter()
        simulator = IncrementalAigSimulator(aig, equivalence_patterns)
        stats.simulation_time += time.perf_counter() - sim_start

        classes = EquivalenceClasses.from_simulation(aig, simulator.result)
        for node in report.proved:
            classes.remove(node)
        stats.initial_classes = classes.num_classes
        stats.initial_candidate_nodes = len(classes.class_nodes())
        return simulator, classes

    # ------------------------------------------------------------------

    def _process_candidate(
        self,
        aig: Aig,
        candidate: int,
        classes: EquivalenceClasses,
        solver: CircuitSolver,
        tfi: TfiManager,
        simulator: IncrementalAigSimulator,
        merged: set[int],
        window_covered: set[int],
        stats: SweepStatistics,
    ) -> None:
        """Lines 10-31 of Algorithm 2 for one candidate gate."""
        disproved: set[int] = set()
        while True:
            cls = classes.class_of(candidate)
            if cls is None or cls.is_singleton():
                return

            # lines 10-11: the generalised class, sorted topologically; the
            # TFI manager then orders drivers (bounded-TFI members first).
            # The list stays valid until a counter-example refines the class.
            drivers = tfi.order_drivers(
                candidate,
                [m for m in cls.members if m < candidate and m not in merged and m not in disproved],
            )
            if 0 in drivers:
                drivers = [0] + [d for d in drivers if d != 0]
            for driver in drivers:
                # lines 15-17: driver checks -- don't-touch and structural
                # legality (no combinational cycle).
                if classes.is_dont_touch(driver):
                    continue
                if driver != 0 and not tfi.is_legal_merge(candidate, driver):
                    continue
                inverted = classes.relative_polarity(candidate, driver)
                if self._window_disproves(candidate, driver, inverted, window_covered, stats):
                    # Disproved locally -- no SAT call needed for this pair.
                    stats.simulation_disproofs += 1
                    disproved.add(driver)
                    continue
                driver_literal = Aig.literal(driver, inverted) if driver != 0 else (LIT_FALSE ^ int(inverted))

                # line 18: the SAT query.
                outcome = solver.prove_equivalence(Aig.literal(candidate), driver_literal, self.conflict_limit)
                if outcome.status is EquivalenceStatus.UNDETERMINED:
                    # lines 19-22: mark don't-touch and give up on this gate.
                    classes.mark_dont_touch(candidate)
                    classes.remove(candidate)
                    return
                if outcome.status is EquivalenceStatus.EQUIVALENT:
                    # lines 23-24: substitute and stop processing this gate.
                    aig.substitute(candidate, driver_literal)
                    classes.remove(candidate)
                    merged.add(candidate)
                    stats.merges += 1
                    if driver == 0:
                        stats.constant_merges += 1
                    return
                # lines 25-28: counter-example; simulation restricted to the
                # nodes that still sit in equivalence classes, then refinement.
                assert outcome.counterexample is not None
                sim_start = time.perf_counter()
                refine_with_counterexample(aig, classes, simulator, outcome.counterexample)
                stats.simulation_time += time.perf_counter() - sim_start
                stats.counterexamples_simulated += 1
                break
            else:
                return

    def _window_disproves(
        self,
        candidate: int,
        driver: int,
        inverted: bool,
        window_covered: set[int],
        stats: SweepStatistics,
    ) -> bool:
        """True if the exhaustive local functions prove ``candidate != driver ^ inverted``.

        Constant-class candidates are disproved by a non-constant local
        function.  Other pairs are compared by their function keys, unless
        the one-time class-level refinement already covered both nodes (they
        are then known to agree on a common window and the SAT call will be
        cheap) or their supports jointly exceed ``window_leaves``.
        """
        if not self.use_exhaustive_refinement:
            return False
        if driver == 0:
            local = self._local_tables.get(candidate)
            return local is not None and not local.is_constant()
        if candidate in window_covered and driver in window_covered:
            return False
        sim_start = time.perf_counter()
        ours, theirs = self._window_key(candidate), self._window_key(driver)
        differ = (
            ours is not None
            and theirs is not None
            and (ours.pi_mask | theirs.pi_mask).bit_count() <= self.window_leaves
            and (ours.leaves != theirs.leaves or ours.bits != theirs.bits ^ (theirs.full if inverted else 0))
        )
        stats.simulation_time += time.perf_counter() - sim_start
        return differ

    def _window_key(self, node: int) -> _WindowKey | None:
        """The node's function key and PI-support bitmask, built once on first use."""
        if node in self._keys:
            return self._keys[node]
        support = self._supports.get(node)
        local = self._local_tables.get(node)
        key: _WindowKey | None = None
        if support is not None and local is not None:
            leaves, bits = function_key(local, support)
            pi_mask = sum(1 << leaf for leaf in support)
            key = _WindowKey(pi_mask, leaves, bits, (1 << (1 << len(leaves))) - 1)
        self._keys[node] = key
        return key

    # ------------------------------------------------------------------

    def _window_tables(self, targets: list[int]) -> dict[int, TruthTable] | None:
        """Exhaustive functions of ``targets`` over their combined PI support.

        Uses the precomputed per-node local functions; the combined window
        must not exceed ``window_leaves`` and every target must have a
        cached local function, otherwise ``None`` is returned and the
        caller falls back to SAT.
        """
        window: list[int] = []
        for target in targets:
            support = self._supports.get(target)
            if support is None or self._local_tables.get(target) is None:
                return None
            for leaf in support:
                if leaf not in window:
                    window.append(leaf)
                    if len(window) > self.window_leaves:
                        return None
        window.sort()
        tables: dict[int, TruthTable] = {}
        for target in targets:
            local = self._local_tables[target]
            assert local is not None
            tables[target] = expand_truth_table(local, self._supports[target] or (), window)
        return tables


def stp_sweep(aig: Aig, **kwargs: Any) -> tuple[Aig, SweepStatistics]:
    """Convenience wrapper around :class:`StpSweeper`."""
    return StpSweeper(aig, **kwargs).run()
