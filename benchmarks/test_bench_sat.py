"""Benchmarks for the persistent assumption-based CDCL core.

Three groups:

* micro-kernels of the incremental solver -- assumption-based
  equivalence queries against one persistent :class:`CdclSolver` versus
  paying a fresh solver (and a fresh cone encoding) for every query;
* the per-circuit windowed :class:`CircuitSolver` -- one persistent
  window across a whole fraig sweep versus the fresh-encode-per-query
  oracle (``window_size=1``), which is exactly the pre-incremental
  behaviour;
* the flow-level acceptance measurement: fraig with the persistent
  window produces **bit-identical** networks to the fresh-encode oracle
  on every bundled EPFL workload while encoding each cone once instead
  of once per query.  Running this target with ``--benchmark-enable``
  regenerates ``BENCH_sat.json`` in the repository root
  with the per-workload before/after numbers.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import pytest

from repro.circuits import epfl_benchmark
from repro.circuits.epfl import EPFL_BENCHMARKS
from repro.sat import CdclSolver, CircuitSolver, EquivalenceStatus
from repro.sweeping.fraig import FraigSweeper

#: Profiles used by the micro-kernels and per-circuit benchmarks.
SAT_BENCHMARKS = ["cavlc", "dec", "i2c"]

#: Where the acceptance run records its numbers.
_RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_sat.json"


def _random_cnf(num_vars: int, num_clauses: int, seed: int) -> list[list[int]]:
    """A fixed random 3-CNF (below the phase transition, so satisfiable)."""
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        variables = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return clauses


def _structure(aig) -> tuple:
    """Exact structural fingerprint: interface, POs and every gate's fanins."""
    gates = tuple((gate,) + tuple(aig.fanins(gate)) for gate in sorted(aig.gates()))
    return (aig.num_pis, tuple(aig.pos), gates)


def _query_pairs(aig, count: int, seed: int) -> list[tuple[int, int]]:
    """Deterministic sample of gate-literal pairs to ask equivalence about."""
    rng = random.Random(seed)
    gates = list(aig.gates())
    pairs = []
    for _ in range(count):
        a, b = rng.sample(gates, 2)
        pairs.append((a << 1, b << 1))
    return pairs


# ---------------------------------------------------------------------------
# micro-kernels: assumption queries on one persistent solver
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["fresh-per-query", "persistent"])
def test_bench_assumption_query_throughput(benchmark, mode):
    """N activation-literal queries: one solver versus N solvers.

    Each query asks whether clause set ``C`` forces a sampled literal,
    phrased the way the sweepers do: miter clauses guarded by a fresh
    activation literal, assumed true for one ``solve`` call and then
    permanently deactivated by a unit clause.
    """
    benchmark.group = "sat-micro"
    clauses = _random_cnf(num_vars=120, num_clauses=360, seed=11)
    rng = random.Random(17)
    queries = [rng.randint(1, 120) * (1 if rng.random() < 0.5 else -1) for _ in range(80)]

    def persistent():
        solver = CdclSolver()
        for _ in range(120):
            solver.new_variable()
        for clause in clauses:
            solver.add_clause(clause)
        answers = []
        for literal in queries:
            activator = solver.new_variable()
            solver.add_clause([-activator, -literal])
            answers.append(solver.solve(assumptions=[activator]))
            solver.add_clause([-activator])
        return answers

    def fresh_per_query():
        answers = []
        for literal in queries:
            solver = CdclSolver()
            for _ in range(120):
                solver.new_variable()
            for clause in clauses:
                solver.add_clause(clause)
            solver.add_clause([-literal])
            answers.append(solver.solve())
        return answers

    run = persistent if mode == "persistent" else fresh_per_query
    answers = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(answers) == len(queries)


def test_bench_unsat_core_extraction(benchmark):
    """UNSAT-under-assumptions with final-conflict core analysis."""
    benchmark.group = "sat-micro"
    solver = CdclSolver()
    for _ in range(60):
        solver.new_variable()
    # A chain 1 -> 2 -> ... -> 60: assuming 1 and -60 is UNSAT and the
    # core must name both ends.
    for v in range(1, 60):
        solver.add_clause([-v, v + 1])

    def cores():
        total = 0
        for _ in range(200):
            result = solver.solve(assumptions=[1, -60])
            assert result.name == "UNSATISFIABLE"
            total += len(solver.unsat_core())
        return total

    total = benchmark.pedantic(cores, rounds=1, iterations=1)
    assert total == 2 * 200


# ---------------------------------------------------------------------------
# per-circuit: one persistent window versus fresh-encode per query
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", SAT_BENCHMARKS)
@pytest.mark.parametrize("mode", ["fresh-encode", "persistent-window"])
def test_bench_circuit_solver_window(benchmark, name, mode):
    """Equivalence queries over EPFL cones under both window policies."""
    benchmark.group = "sat-window"
    aig = epfl_benchmark(name)
    pairs = _query_pairs(aig, count=60, seed=3)
    window_size = 1 if mode == "fresh-encode" else None

    def run():
        solver = CircuitSolver(aig, conflict_limit=1000, window_size=window_size)
        return [solver.prove_equivalence(a, b).status for a, b in pairs], solver

    statuses, solver = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(s is not EquivalenceStatus.UNDETERMINED for s in statuses)
    if mode == "persistent-window":
        assert solver.window_reuse_rate > 0.9
    else:
        assert solver.window_reuses == 0


# ---------------------------------------------------------------------------
# the acceptance measurement: persistent-window fraig versus the oracle
# ---------------------------------------------------------------------------


def test_bench_persistent_window_fraig_suite(benchmark):
    """Full-suite acceptance: identical sweeps, one cone encoding each.

    The fresh-encode oracle (``window_size=1``) is the *before*: it pays
    a new solver and a new Tseitin cone encoding for every SAT call,
    exactly like the pre-incremental sweeper.  The persistent window
    (the default) is the *after*.  Both must produce structurally
    identical swept networks on every workload; the recorded numbers
    are the per-workload wall-clock and solver counters of both modes.
    """
    benchmark.group = "sat-flow"

    def sweep_suite():
        rows = {}
        for name in EPFL_BENCHMARKS:
            t = time.perf_counter()
            swept_o, stats_o = FraigSweeper(epfl_benchmark(name), window_size=1).run()
            oracle_s = time.perf_counter() - t
            t = time.perf_counter()
            swept_p, stats_p = FraigSweeper(epfl_benchmark(name), window_size=None).run()
            persistent_s = time.perf_counter() - t
            assert _structure(swept_p) == _structure(swept_o), (
                f"{name}: persistent window diverged from the fresh-encode oracle"
            )
            solver_p = stats_p.solver_statistics
            rows[name] = {
                "gates_before": stats_p.gates_before,
                "gates_after": stats_p.gates_after,
                "sat_calls": stats_p.total_sat_calls,
                "before_fresh_encode_s": round(oracle_s, 4),
                "before_fresh_encode_sat_s": round(stats_o.sat_time, 4),
                "after_persistent_s": round(persistent_s, 4),
                "after_persistent_sat_s": round(stats_p.sat_time, 4),
                "windows_opened": solver_p.get("windows_opened", 0),
                "window_reuses": solver_p.get("window_reuses", 0),
                "conflicts": solver_p.get("conflicts", 0),
                "propagations": solver_p.get("propagations", 0),
                "restarts": solver_p.get("restarts", 0),
            }
        return rows

    rows = benchmark.pedantic(sweep_suite, rounds=1, iterations=1)
    # Reuse must be near-total wherever SAT was exercised at all.
    for name, row in rows.items():
        if row["sat_calls"] >= 10:
            reuse = row["window_reuses"] / max(1, row["window_reuses"] + row["windows_opened"])
            assert reuse > 0.9, f"{name}: window reuse rate only {reuse:.2f}"

    if benchmark.disabled:
        # A plain test run checks the assertions above and leaves the
        # recorded numbers alone.
        return

    record = {
        "benchmark": "persistent-incremental-sat-core",
        "pr": (
            "ISSUE 8 (perf_opt): assumption-based CDCL rebuild -- flat clause "
            "arena, binary clauses in implication lists, Luby restarts, "
            "intra-solve phase saving with per-solve reset, solve(assumptions) "
            "with unsat cores, and CircuitSolver window mode: one persistent "
            "solver per sweep window via activation literals"
        ),
        "method": (
            "FraigSweeper on the bundled EPFL profiles, before = "
            "CircuitSolver(window_size=1), the fresh-encode-per-query oracle "
            "matching the pre-incremental behaviour, after = the default "
            "persistent window; single interleaved measurement per workload, "
            "swept networks asserted structurally identical between modes"
        ),
        "workloads": rows,
    }
    try:
        _RESULT_PATH.write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    except OSError:  # pragma: no cover - read-only checkouts still benchmark fine
        pass
