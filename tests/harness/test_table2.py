"""Tests for the Table II harness (one small workload for speed)."""

import copy

import pytest

from repro.circuits.arithmetic import ripple_carry_adder
from repro.circuits.sweep_workloads import inject_redundancy
from repro.harness import format_table2, run_single_comparison, run_table2


@pytest.fixture(scope="module")
def small_row():
    base = ripple_carry_adder(width=6, name="tiny")
    workload, _ = inject_redundancy(
        base, duplication_fraction=0.25, constant_cones=1, near_miss_count=4, seed=33
    )
    return run_single_comparison(workload, num_patterns=32, verify=True)


class TestSingleComparison:
    def test_both_engines_verified(self, small_row):
        assert small_row.baseline_verified
        assert small_row.stp_verified

    def test_same_quality_of_result(self, small_row):
        assert small_row.stp.gates_after == small_row.baseline.gates_after

    def test_statistics_populated(self, small_row):
        assert small_row.baseline.total_sat_calls > 0
        assert small_row.stp.total_sat_calls > 0
        assert small_row.baseline.total_time > 0
        assert small_row.runtime_ratio > 0

    def test_formatting(self, small_row):
        text = format_table2([small_row])
        assert "Table II" in text
        assert "tiny" in text
        assert "Imp." in text
        assert "ok" in text


class TestCecColumn:
    def test_unverified_row_prints_skipped(self):
        base = ripple_carry_adder(width=4, name="unverified")
        workload, _ = inject_redundancy(base, duplication_fraction=0.25, constant_cones=1, seed=33)
        row = run_single_comparison(workload, num_patterns=32, verify=False)
        assert row.baseline_verified is None and row.stp_verified is None
        line = next(line for line in format_table2([row]).splitlines() if "unverified" in line)
        assert "skipped" in line
        assert "ok" not in line

    def test_verified_row_prints_ok(self, small_row):
        line = next(line for line in format_table2([small_row]).splitlines() if "tiny" in line)
        assert line.rstrip().endswith("ok")


class TestImprovementSummary:
    def test_zero_count_column_prints_not_available(self, small_row):
        zero = copy.deepcopy(small_row)
        zero.stp.satisfiable_sat_calls = 0
        text = format_table2([small_row, zero])
        assert "SAT calls n/a (1 rows with 0)" in text
        assert "SAT calls 0.00" not in text

    def test_positive_columns_print_the_ratio(self, small_row):
        text = format_table2([small_row])
        ratio = small_row.stp.total_sat_calls / small_row.baseline.total_sat_calls
        assert f"total SAT calls {ratio:.2f}," in text


class TestRunTable2:
    def test_named_workload_subset(self):
        rows = run_table2(workloads=["leon2"], num_patterns=32, verify=False)
        assert len(rows) == 1
        assert rows[0].benchmark == "leon2"
        assert rows[0].stp.gates_after <= rows[0].stp.gates_before


class TestPrePass:
    def test_pre_script_shrinks_input_and_verifies(self):
        base = ripple_carry_adder(width=6, name="prepass")
        workload, _ = inject_redundancy(
            base, duplication_fraction=0.25, constant_cones=1, seed=44
        )
        plain = run_single_comparison(workload, num_patterns=32, verify=False)
        optimized = run_single_comparison(
            workload, num_patterns=32, verify=True, pre_script="rw"
        )
        # The pre-pass hands both sweepers a smaller network, and the
        # sweeper outputs still verify against it.
        assert optimized.baseline.gates_before < plain.baseline.gates_before
        assert optimized.baseline_verified and optimized.stp_verified
        assert optimized.benchmark == "prepass"
