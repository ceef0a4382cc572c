"""The benchmark's three workloads: inputs, one closed-loop round, output checks.

Each workload is set up ``setups`` times per run, and each set-up is
timed: it builds its share of the workload's seeded input variants,
then warms the library and, for ``ppart``, the worker pool.  Variant
``v`` offsets the row and ``random_aig`` seeds by
``seed * variants + v``, so the default seed 0 gives today's rows as
variant 0 (``b18`` = 913 gates, the 20k-gate ``random_aig`` with
seed 1).  A *round* runs every operation once on every variant, one
after the other: a closed loop with a single client.

Every output is checked:

* Table II outputs get a full CEC against their input, cached by the
  pair of structural hashes, so a deterministic program pays it once per
  run and a changed output is proved again;
* ``resyn2`` outputs are proved by the verify operation itself, which is
  the CEC a user of ``repro optimize`` pays by default;
* ``ppart`` outputs get a word-parallel random-simulation screen (a
  screen, not a proof), and a run with a failed region or with no merged
  region counts as failed.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable

import repro.rewriting.library as rewriting_library
import repro.service.worker as service_worker
import repro.sweeping.cec as cec
from repro.circuits import epfl_benchmark
from repro.circuits.random_logic import random_aig
from repro.circuits.sweep_workloads import SWEEP_WORKLOADS, inject_redundancy
from repro.networks.aig import Aig
from repro.networks.structural_hash import structural_hash
from repro.partition.pool import shutdown_shared_executors
from repro.rewriting.passes import PassManager
from repro.simulation.bitwise import aig_po_signatures, simulate_aig
from repro.simulation.patterns import PatternSet
from repro.sweeping.fraig import FraigSweeper
from repro.sweeping.stp_sweeper import StpSweeper

__all__ = ["Op", "Timer", "Workload", "WORKLOADS", "pool_jobs"]

#: Table II defaults (``repro.harness.table2``).
TABLE2_OPTIONS: dict[str, Any] = {"num_patterns": 64, "seed": 1, "conflict_limit": 10_000, "tfi_limit": 1000}
STP_WINDOW = 16

#: Random patterns of the ``ppart`` output screen (multiple of 64).
SCREEN_PATTERNS = 4096


def pool_jobs() -> int:
    """Worker count of the ``ppart`` pool: the CPUs this process may use, at most 4."""
    return max(1, min(4, len(os.sched_getaffinity(0))))


@dataclass
class Op:
    """One timed operation of a round."""

    kind: str  # stp_sweep | fraig_sweep | optimize | verify
    input: str
    seconds: float
    gates_out: int = 0
    sat_calls: int = 0
    disproofs: int = 0
    failure: str | None = None
    traced: bool = False

    def fingerprint(self) -> tuple[int, int, int]:
        """Counts that a deterministic program repeats exactly."""
        return (self.gates_out, self.sat_calls, self.disproofs)


class Checker:
    """CEC cache keyed by the structural hashes of input and output."""

    def __init__(self) -> None:
        self.verdicts: dict[tuple[str, str], str] = {}
        self.proofs = 0

    def cec(self, golden: Aig, revised: Aig) -> str:
        key = (structural_hash(golden), structural_hash(revised))
        verdict = self.verdicts.get(key)
        if verdict is None:
            verdict = cec.check_combinational_equivalence(golden, revised).status
            self.verdicts[key] = verdict
            self.proofs += 1
        return verdict


class Timer:
    """Times each operation of a round; in a traced run, traces every other one.

    Operation ``i`` of round ``r`` is traced when ``i + r`` is odd, so over
    two consecutive rounds every operation runs once traced and once
    untraced, interleaved in time: the untraced halves give the
    end-to-end split, the traced halves the layers, and the ratio of the
    two the tracing overhead.  The layer wrappers are installed only
    around the timed call, so the benchmark's own checks are never traced.
    """

    def __init__(self, tracer: Any = None, patches: list[Any] | None = None) -> None:
        self.tracer = tracer
        self.patches = patches or []
        self.tracing = False
        self._round = 0
        self._index = 0

    def start_round(self, number: int) -> None:
        self._round = number
        self._index = 0

    def __call__(self, kind: str, name: str, call: Callable[[], Any]) -> tuple[Any, "Op"]:
        traced = self.tracing and (self._index + self._round) % 2 == 1
        self._index += 1
        if traced:
            self.tracer.install(self.patches)
        try:
            start = time.perf_counter()
            result = call()
            seconds = time.perf_counter() - start
        finally:
            if traced:
                self.tracer.uninstall()
        return result, Op(kind, name, seconds, traced=traced)


class Workload:
    """A named workload: ``generate`` builds inputs, ``run_round`` times them."""

    name = ""
    #: Timed set-ups per run (``setup_s`` is their median).
    setups = 3
    #: Distinct seeded input variants per run.  More than one only where
    #: the time or the output size moves strongly with the seed.
    variants = 1
    #: Whether a run starts with an untimed warm-up round on variant 0.
    warmup_round = True

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def variant_seed(self, variant: int) -> int:
        return self.seed * self.variants + variant

    def generate(self, variant: int) -> dict[str, Aig]:
        """The inputs of one variant, keyed by a name unique to the variant."""
        raise NotImplementedError

    def warm(self) -> list[Op]:
        """Library (and pool) warm-up paid before the first timed operation.

        Returns the operations it ran, for the determinism guard.
        """
        return []

    def teardown(self) -> None:
        """Release what set-up started (worker pools)."""

    def run_round(self, inputs: dict[str, Aig], checker: Checker, timer: Timer) -> list[Op]:
        raise NotImplementedError


def _reset_library() -> None:
    """Drop the process-wide rewrite library so the next warm-up is cold."""
    rewriting_library._default_library = None
    service_worker._WARMED = False


class Table2(Workload):
    """``FraigSweeper`` then ``StpSweeper`` on redundancy-injected Table II rows."""

    rows: tuple[str, ...] = ()

    def generate(self, variant: int) -> dict[str, Aig]:
        inputs = {}
        for row in self.rows:
            spec = SWEEP_WORKLOADS[row]
            network, _report = inject_redundancy(
                spec.factory(),
                duplication_fraction=spec.duplication_fraction,
                constant_cones=spec.constant_cones,
                near_miss_count=spec.near_miss_count,
                seed=spec.seed + self.variant_seed(variant),
                name=row,
            )
            inputs[f"{row}#{variant}"] = network
        return inputs

    def run_round(self, inputs: dict[str, Aig], checker: Checker, timer: Timer) -> list[Op]:
        ops = []
        for name, network in inputs.items():
            engines = (
                ("fraig_sweep", lambda: FraigSweeper(network, **TABLE2_OPTIONS).run()),
                ("stp_sweep", lambda: StpSweeper(network, window_leaves=STP_WINDOW, **TABLE2_OPTIONS).run()),
            )
            for kind, call in engines:
                (swept, stats), op = timer(kind, name, call)
                op.gates_out = swept.num_ands
                op.sat_calls = stats.total_sat_calls
                op.disproofs = stats.simulation_disproofs
                verdict = checker.cec(network, swept)
                if verdict != "equivalent":
                    op.failure = f"CEC against the input: {verdict}"
                ops.append(op)
        return ops


class Table2Sim(Table2):
    name = "table2-sim"
    rows = ("b18",)
    # b18's sweep time moves by up to 20% from one injection seed to the
    # next; nine variants, one round of them per run, keep the
    # seed-to-seed spread of op_s down.
    variants = 9


class Resyn2(Workload):
    """``repro optimize`` defaults: ``resyn2`` with ``on_error=raise``, then the final CEC."""

    name = "resyn2"
    circuits = ("sqrt", "max", "log2")
    # One set-up takes about 0.2 s, so a median of three is mostly noise.
    setups = 7

    def generate(self, variant: int) -> dict[str, Aig]:
        return {name: epfl_benchmark(name) for name in self.circuits}

    def warm(self) -> list[Op]:
        _reset_library()
        service_worker.warm_worker()
        return []

    def run_round(self, inputs: dict[str, Aig], checker: Checker, timer: Timer) -> list[Op]:
        ops = []
        for name, network in inputs.items():
            (optimized, _flow), optimize = timer("optimize", name, lambda: PassManager("resyn2").run(network, verify=False))
            optimize.gates_out = optimized.num_ands
            ops.append(optimize)
            # Looked up at call time, so the traced run sees its wrapper.
            result, verify = timer("verify", name, lambda: cec.check_combinational_equivalence(network, optimized))
            verify.sat_calls = result.sat_calls
            if result.status != "equivalent":
                verify.failure = f"CEC against the input: {result.status}"
            ops.append(verify)
        return ops


class Ppart(Workload):
    """``ppart(rw; rf)`` over the warmed process pool on a 20k-gate ``random_aig``."""

    name = "ppart"
    gates = 20_000
    # The optimized size moves by about 7% from one random_aig seed to
    # the next; three variants damp what that adds to the spread.
    variants = 3
    # ``warm`` already runs a ppart through the same pool and library,
    # and a 20k-gate round takes as long as the whole measured window.
    warmup_round = False

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.jobs = pool_jobs()
        self.script = f"ppart(rw; rf, jobs={self.jobs}, max_gates=300)"

    def generate(self, variant: int) -> dict[str, Aig]:
        seed = 1 + self.variant_seed(variant)
        network = random_aig(num_pis=64, num_gates=self.gates, num_pos=64, seed=seed, name=f"random{seed}")
        return {f"random_aig#{variant}": network}

    def warm(self) -> list[Op]:
        shutdown_shared_executors()
        _reset_library()
        service_worker.warm_worker()
        # A small ppart spawns and warms every pool worker.  A run measures
        # each 20k-gate input once, so the probe, repeated by every set-up,
        # is what the determinism guard compares for this workload.
        probe = random_aig(num_pis=32, num_gates=1500, num_pos=16, seed=0, name="warm")
        start = time.perf_counter()
        optimized, _flow = PassManager(self.script).run(probe, verify=False)
        return [Op("optimize", "warm-probe", time.perf_counter() - start, gates_out=optimized.num_ands)]

    def teardown(self) -> None:
        shutdown_shared_executors()

    def run_round(self, inputs: dict[str, Aig], checker: Checker, timer: Timer) -> list[Op]:
        ops = []
        for name, network in inputs.items():
            (optimized, flow), op = timer("optimize", name, lambda: PassManager(self.script).run(network, verify=False))
            op.gates_out = optimized.num_ands
            regions = flow.passes[0].partitions or []
            merged = sum(1 for region in regions if region["status"] == "merged")
            failed = sum(1 for region in regions if region["status"] == "worker_failed")
            if failed:
                op.failure = f"{failed} regions failed in the workers"
            elif not merged:
                op.failure = f"no region merged ({len(regions)} built): the input came back unoptimized"
            else:
                mismatch = _screen(network, optimized, self.seed)
                if mismatch is not None:
                    op.failure = f"random-simulation screen: output {mismatch} differs"
            ops.append(op)
        return ops


def _screen(golden: Aig, revised: Aig, seed: int) -> int | None:
    """First PO that differs on ``SCREEN_PATTERNS`` random patterns, or ``None``."""
    if golden.num_pis != revised.num_pis or golden.num_pos != revised.num_pos:
        return -1
    patterns = PatternSet.random(golden.num_pis, SCREEN_PATTERNS, seed + 12345)
    expected = aig_po_signatures(golden, simulate_aig(golden, patterns))
    actual = aig_po_signatures(revised, simulate_aig(revised, patterns))
    for index, (a, b) in enumerate(zip(expected, actual)):
        if a != b:
            return index
    return None


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (Table2Sim, Resyn2, Ppart)
}
