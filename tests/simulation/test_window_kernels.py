"""Property tests of the exhaustive-window kernels of the STP sweeper.

* :func:`expand_truth_table` against a per-assignment reference, for
  random tables of up to 16 inputs, windows of up to 16 leaves and own
  leaves in any order;
* :func:`function_key` comparison against expanding both functions onto
  the union of their leaves, with inverted polarity and vacuous
  structural leaves;
* :meth:`TfiManager.order_drivers` against sorting by membership in the
  materialised bounded cone.
"""

import random

import pytest

from repro.circuits.random_logic import random_aig
from repro.simulation.stp_simulator import expand_truth_table, function_key
from repro.sweeping.tfi import TfiManager
from repro.truthtable import TruthTable


def reference_expand(table: TruthTable, own_leaves: list[int], window: list[int]) -> TruthTable:
    """Assignment by assignment: read the own inputs out of each window assignment."""
    positions = [window.index(leaf) for leaf in own_leaves]
    bits = 0
    for assignment in range(1 << len(window)):
        source = 0
        for own_position, window_position in enumerate(positions):
            if (assignment >> window_position) & 1:
                source |= 1 << own_position
        if (table.bits >> source) & 1:
            bits |= 1 << assignment
    return TruthTable(len(window), bits)


def random_case(rng: random.Random, window_size: int, own_size: int) -> tuple[TruthTable, list[int], list[int]]:
    window = rng.sample(range(1, 200), window_size)
    if rng.random() < 0.5:
        window.sort()
    own_leaves = rng.sample(window, own_size)  # unsorted, the public contract
    return TruthTable(own_size, rng.getrandbits(1 << own_size)), own_leaves, window


class TestExpandTruthTable:
    @pytest.mark.parametrize("seed", range(6))
    def test_small_windows_match_reference(self, seed):
        rng = random.Random(seed)
        for _ in range(60):
            window_size = rng.randint(0, 9)
            table, own_leaves, window = random_case(rng, window_size, rng.randint(0, window_size))
            assert expand_truth_table(table, own_leaves, window) == reference_expand(table, own_leaves, window)

    @pytest.mark.parametrize("own_size", [3, 11, 16])
    def test_sixteen_leaf_windows_match_reference(self, own_size):
        rng = random.Random(own_size)
        table, own_leaves, window = random_case(rng, 16, own_size)
        assert expand_truth_table(table, own_leaves, window) == reference_expand(table, own_leaves, window)

    def test_reordering_without_new_leaves(self):
        rng = random.Random(7)
        table, own_leaves, _window = random_case(rng, 12, 12)
        window = sorted(own_leaves)
        assert expand_truth_table(table, own_leaves, window) == reference_expand(table, own_leaves, window)

    def test_arity_mismatch_is_rejected(self):
        with pytest.raises(ValueError):
            expand_truth_table(TruthTable.variable(0, 2), [4], [4, 5])


def complement_key(key: tuple[tuple[int, ...], int]) -> tuple[tuple[int, ...], int]:
    leaves, bits = key
    return leaves, bits ^ ((1 << (1 << len(leaves))) - 1)


def same_by_expansion(f: TruthTable, f_leaves, g: TruthTable, g_leaves, inverted: bool) -> bool:
    window = sorted(set(f_leaves) | set(g_leaves))
    g_window = expand_truth_table(g, g_leaves, window)
    return expand_truth_table(f, f_leaves, window) == (~g_window if inverted else g_window)


class TestFunctionKey:
    @pytest.mark.parametrize("seed", range(8))
    def test_key_comparison_matches_union_window_comparison(self, seed):
        rng = random.Random(100 + seed)
        outcomes = set()
        for _ in range(40):
            # A shared core function, placed on two structural supports
            # that add vacuous leaves of their own.
            core_leaves = rng.sample(range(1, 40), rng.randint(0, 5))
            core = TruthTable(len(core_leaves), rng.getrandbits(1 << len(core_leaves)))
            f_leaves = core_leaves + rng.sample(range(40, 60), rng.randint(0, 3))
            g_leaves = core_leaves + rng.sample(range(60, 80), rng.randint(0, 3))
            rng.shuffle(f_leaves)
            rng.shuffle(g_leaves)
            inverted = rng.random() < 0.5
            f = expand_truth_table(core, core_leaves, f_leaves)
            g = expand_truth_table(~core if inverted else core, core_leaves, g_leaves)
            if rng.random() < 0.4:
                g = TruthTable(g.num_vars, g.bits ^ (1 << rng.randrange(g.num_bits)))
            f_key, g_key = function_key(f, f_leaves), function_key(g, g_leaves)
            keys_equal = f_key == (complement_key(g_key) if inverted else g_key)
            expected = same_by_expansion(f, f_leaves, g, g_leaves, inverted)
            assert keys_equal == expected
            outcomes.add(expected)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("seed", range(4))
    def test_key_leaves_are_the_functional_support(self, seed):
        rng = random.Random(200 + seed)
        for _ in range(30):
            size = rng.randint(0, 8)
            leaves = rng.sample(range(1, 50), size)
            core = rng.sample(leaves, rng.randint(0, size))
            table = expand_truth_table(TruthTable(len(core), rng.getrandbits(1 << len(core))), core, leaves)
            key_leaves, key_bits = function_key(table, leaves)
            assert list(key_leaves) == sorted(leaf for index, leaf in enumerate(leaves) if table.depends_on(index))
            # The shrunk table, expanded back, is the original function.
            shrunk = TruthTable(len(key_leaves), key_bits)
            assert expand_truth_table(shrunk, key_leaves, leaves) == table

    def test_constants_have_empty_support(self):
        assert function_key(TruthTable.constant(True, 3), [9, 4, 7]) == ((), 1)
        assert function_key(TruthTable.constant(False, 0), []) == ((), 0)


class TestOrderDrivers:
    @pytest.mark.parametrize("limit", [1, 5, 40, 1000])
    def test_matches_sorting_by_bounded_cone(self, limit):
        aig = random_aig(num_pis=10, num_gates=250, num_pos=6, seed=limit)
        manager = TfiManager(aig, limit)
        rng = random.Random(limit)
        gates = list(aig.gates())
        nodes = list(aig.nodes())
        for candidate in rng.sample(gates, 40):
            cone = frozenset(aig.tfi([candidate], limit=limit))
            earlier = [node for node in nodes if node < candidate]
            for count in (0, 1, 2, 7, len(earlier)):
                drivers = rng.sample(earlier, min(count, len(earlier)))
                expected = sorted(drivers, key=lambda d: (d not in cone, d))
                assert manager.order_drivers(candidate, drivers) == expected

    def test_cone_larger_than_limit_keeps_limit_semantics(self):
        aig = random_aig(num_pis=8, num_gates=200, num_pos=4, seed=3)
        manager = TfiManager(aig, limit=5)
        candidate = max(aig.gates())
        assert len(aig.tfi([candidate])) > 5
        cone = frozenset(aig.tfi([candidate], limit=5))
        drivers = [node for node in aig.nodes() if node < candidate]
        ordered = manager.order_drivers(candidate, drivers)
        assert ordered[: len(cone) - 1] == sorted(cone - {candidate})
        assert ordered == sorted(drivers, key=lambda d: (d not in cone, d))
