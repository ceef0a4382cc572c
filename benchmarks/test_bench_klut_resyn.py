"""Benchmarks for mapped-network MFFC resynthesis (the ``lutmffc`` pass).

Two groups:

* micro-kernels of the incremental k-LUT mutation surface -- substitute
  throughput on a mapped EPFL profile and the O(1) ``fanout_count``
  versus a from-scratch recount;
* the flow-level acceptance measurement: ``map; lutmffc`` produces
  strictly fewer LUTs than ``map`` alone on **at least half** of the
  bundled EPFL workloads (and never more on any), with every
  resynthesised network verified against its source AIG by word-parallel
  simulation.  Running this target with ``--benchmark-enable``
  regenerates ``BENCH_klut_resyn.json`` in the repository root
  with the per-workload numbers.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.circuits import epfl_benchmark
from repro.circuits.epfl import EPFL_BENCHMARKS
from repro.networks.mapping import technology_map
from repro.rewriting.klut_resyn import lut_resynthesize
from repro.simulation import (
    PatternSet,
    aig_po_signatures,
    klut_po_signatures,
    simulate_aig,
    simulate_klut_per_pattern,
)

#: Profiles used by the micro-kernels.
RESYN_BENCHMARKS = ["sin", "mem_ctrl"]

#: Where the acceptance run records its numbers.
_RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_klut_resyn.json"


def _verify(aig, network, num_patterns=256, seed=7):
    patterns = PatternSet.random(aig.num_pis, num_patterns, seed)
    aig_signatures = aig_po_signatures(aig, simulate_aig(aig, patterns))
    klut_signatures = klut_po_signatures(network, simulate_klut_per_pattern(network, patterns))
    return aig_signatures == klut_signatures


# ---------------------------------------------------------------------------
# micro-kernels: the incremental k-LUT mutation surface
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", RESYN_BENCHMARKS)
def test_bench_klut_substitute_throughput(benchmark, name):
    """Replica-substitution bursts on a mapped profile (O(fanout) per event)."""
    benchmark.group = "klut-incremental"
    aig = epfl_benchmark(name)
    mapped = technology_map(aig, k=6).network

    def burst():
        work = mapped.clone()
        rewritten = 0
        for node in work.topological_order():
            if work.fanout_count(node) == 0:
                continue
            replica = work.add_lut(work.lut_fanins(node), work.lut_function(node))
            rewritten += work.substitute(node, replica)
        return rewritten

    rewritten = benchmark(burst)
    assert rewritten > 0


def test_bench_klut_fanout_count_is_o1(benchmark):
    """Maintained fanout counts versus the from-scratch recount oracle."""
    from repro.networks.traversal import fanout_counts as recount

    benchmark.group = "klut-incremental"
    aig = epfl_benchmark("mem_ctrl")
    mapped = technology_map(aig, k=6).network
    nodes = list(mapped.luts())

    def maintained():
        return [mapped.fanout_count(node) for node in nodes]

    counts = benchmark(maintained)
    oracle = recount(mapped.nodes(), mapped.gate_fanin_nodes, mapped.po_nodes())
    assert counts == [oracle[node] for node in nodes]


@pytest.mark.parametrize("name", RESYN_BENCHMARKS)
def test_bench_lut_resynthesis_pass(benchmark, name):
    benchmark.group = "lutmffc-pass"
    aig = epfl_benchmark(name)
    mapped = technology_map(aig, k=6).network
    result, report = benchmark.pedantic(
        lambda: lut_resynthesize(mapped, k=6), rounds=1, iterations=1
    )
    assert result.num_luts <= mapped.num_luts
    assert report.nodes_visited > 0
    assert _verify(aig, result)


# ---------------------------------------------------------------------------
# the acceptance measurement: map; lutmffc versus map alone
# ---------------------------------------------------------------------------


def test_bench_lutmffc_beats_map_only_suite(benchmark):
    """Full-suite acceptance: strictly fewer LUTs on >= half the workloads."""
    benchmark.group = "lutmffc-flow"

    def resyn_suite():
        rows = {}
        for name in EPFL_BENCHMARKS:
            aig = epfl_benchmark(name)
            mapped = technology_map(aig, k=6).network
            resyn, report = lut_resynthesize(mapped, k=6)
            assert _verify(aig, resyn), f"{name}: resynthesis not equivalent"
            rows[name] = {
                "ands": aig.num_ands,
                "map_only": mapped.num_luts,
                "map_lutmffc": resyn.num_luts,
                "depth_map": mapped.depth(),
                "depth_lutmffc": resyn.depth(),
                "collapsed": report.collapsed,
                "decomposed": report.decomposed,
            }
        return rows

    rows = benchmark.pedantic(resyn_suite, rounds=1, iterations=1)
    strictly_better = 0
    for name, row in rows.items():
        assert row["map_lutmffc"] <= row["map_only"], (
            f"{name}: lutmffc increased the LUT count "
            f"{row['map_only']} -> {row['map_lutmffc']}"
        )
        if row["map_lutmffc"] < row["map_only"]:
            strictly_better += 1
    assert strictly_better >= len(rows) // 2, (
        f"lutmffc strictly better on only {strictly_better}/{len(rows)} workloads"
    )

    if benchmark.disabled:
        # A plain test run checks the assertions above and leaves the
        # recorded numbers alone.
        return

    record = {
        "benchmark": "mapped-network-mffc-resynthesis",
        "pr": (
            "ISSUE 4 (api_redesign): unified LogicNetwork protocol; lutmffc is the "
            "first mapped-network pass, committed through the incremental KLUT substitute"
        ),
        "method": (
            "technology_map(k=6, cut_limit=8) versus the same mapping followed by "
            "lut_resynthesize(k=6); workloads are the bundled EPFL profiles from "
            "repro.circuits.epfl; every resynthesised network verified against the "
            "source AIG with 256 word-parallel random patterns"
        ),
        "strictly_better": strictly_better,
        "workloads": len(rows),
        "luts": rows,
    }
    try:
        _RESULT_PATH.write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    except OSError:  # pragma: no cover - read-only checkouts still benchmark fine
        pass
