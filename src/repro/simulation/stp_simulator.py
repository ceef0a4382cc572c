"""The STP-based circuit simulator (Algorithm 1 of the paper).

Boolean values are logic vectors, every k-LUT is a 2 x 2^k structural
matrix, and simulating a node is one matrix pass: the STP of the node's
structural matrix with the (Kronecker-combined) logic vectors of its
fanins selects exactly one matrix column, which is the output logic
vector.  Two simulation modes are provided, mirroring Algorithm 1:

* ``all`` -- every node is visited in topological order and its signature
  is produced by one structural-matrix pass over all patterns at once
  (:meth:`StpSimulator.simulate_all`);
* ``specified`` -- only requested nodes are simulated: the network is first
  partitioned by the cut algorithm of Section III-B (leaf limit
  ``floor(log2(#patterns))``), the structural matrix of every cut is
  computed by STP composition, and only cut roots are evaluated
  (:meth:`StpSimulator.simulate_nodes`).

Two equivalent implementations of the structural-matrix composition are
available: the literal STP-algebra path (:func:`cut_truth_table_stp` with
``use_stp_algebra=True``) builds the canonical form with swap and
power-reducing matrices exactly as in Section II-B, and the word-level
path computes the same matrix with Kronecker-structured integer
arithmetic, which is what makes large cuts practical.  The test suite
cross-checks the two.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from ..cuts import SimulationCut, klut_cone_table, simulation_cuts
from ..networks.aig import Aig
from ..networks.klut import KLutNetwork
from ..networks.mapping import aig_node_truth_table
from ..stp.canonical import STPForm, apply_operator, constant_form, normalize, variable_form
from ..truthtable import (
    TruthTable,
    stp_form_to_truth_table,
    truth_table_to_structural_matrix,
)
from .patterns import PatternSet
from .signatures import SimulationResult

__all__ = [
    "StpSimulator",
    "simulate_klut_stp",
    "cut_truth_table_stp",
    "stp_aig_truth_table",
    "common_window_leaves",
    "stp_window_truth_tables",
    "compute_pi_supports",
    "compute_local_truth_tables",
    "expand_truth_table",
    "function_key",
    "cut_limit_for_patterns",
]


def cut_limit_for_patterns(num_patterns: int, maximum: int = 16) -> int:
    """Leaf limit of the simulation cuts, ``floor(log2(#patterns))`` (Alg. 1 line 5).

    The paper additionally restricts exhaustive windows to fewer than 16
    leaves; ``maximum`` enforces that cap.
    """
    if num_patterns < 2:
        return 1
    return max(1, min(maximum, int(math.floor(math.log2(num_patterns)))))


# ---------------------------------------------------------------------------
# Packed-word <-> bit-array helpers
# ---------------------------------------------------------------------------


def _word_to_bits(word: int, num_patterns: int) -> np.ndarray:
    """Unpack a signature integer into a uint8 array of length ``num_patterns``."""
    if num_patterns == 0:
        return np.zeros(0, dtype=np.uint8)
    num_bytes = (num_patterns + 7) // 8
    raw = word.to_bytes(num_bytes, "little")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return bits[:num_patterns]


def _bits_to_word(bits: np.ndarray) -> int:
    """Pack a uint8/bool array back into a signature integer."""
    if bits.size == 0:
        return 0
    packed = np.packbits(bits.astype(np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


# ---------------------------------------------------------------------------
# Structural-matrix composition over a cut
# ---------------------------------------------------------------------------


def cut_truth_table_stp(
    network: KLutNetwork,
    cut: SimulationCut,
    use_stp_algebra: bool = False,
) -> TruthTable:
    """Function of a cut root over its leaves, computed through STP composition.

    With ``use_stp_algebra`` the canonical form is assembled with the
    literal matrix algebra of Section II-B (swap matrix, power-reducing
    matrix); this is exponential in the leaf count and intended for small
    cuts and cross-checking.  The default path computes the identical
    structural matrix with Kronecker-structured word arithmetic.
    """
    leaves = list(cut.leaves)
    if use_stp_algebra:
        return _cut_truth_table_algebraic(network, cut)
    # The shared cone walker drives the traversal; only the word-level
    # minterm composition (the structural-matrix product) is local.
    return klut_cone_table(network, cut.root, leaves, compose=_compose_minterms)


def _compose_minterms(function: TruthTable, fanins: Sequence[TruthTable], num_vars: int) -> TruthTable:
    """Word-level composition: OR over satisfying LUT assignments of fanin ANDs."""
    full = (1 << (1 << num_vars)) - 1
    bits = 0
    for assignment in range(function.num_bits):
        if not function.value_at(assignment):
            continue
        term = full
        for position, fanin in enumerate(fanins):
            term &= fanin.bits if (assignment >> position) & 1 else (~fanin.bits & full)
            if not term:
                break
        bits |= term
    return TruthTable(num_vars, bits)


def _cut_truth_table_algebraic(network: KLutNetwork, cut: SimulationCut) -> TruthTable:
    """Literal STP-algebra computation of a cut function (small cuts only)."""
    leaves = list(cut.leaves)
    if len(leaves) > 12:
        raise ValueError(f"algebraic STP composition limited to 12 leaves, cut has {len(leaves)}")
    leaf_names = {leaf: f"v{index}" for index, leaf in enumerate(leaves)}
    memo: dict[int, STPForm] = {}

    def form_of(node: int) -> STPForm:
        if node in memo:
            return memo[node]
        if node in leaf_names:
            result = variable_form(leaf_names[node])
        elif network.is_constant(node):
            result = constant_form(network.constant_value(node))
        elif network.is_pi(node):
            raise ValueError(f"primary input {node} reached but not listed as a cut leaf")
        else:
            matrix = truth_table_to_structural_matrix(network.lut_function(node))
            # The structural matrix of a truth table expects the *last* fanin
            # as the first STP factor (column 0 is the all-True assignment
            # with assignments read most-significant-first).
            operands = [form_of(f) for f in reversed(network.lut_fanins(node))]
            result = apply_operator(matrix, operands)
        memo[node] = result
        return result

    raw = form_of(cut.root)
    # Normalising over the natural leaf order makes form variable ``v_i``
    # correspond to truth-table input ``i`` after conversion.
    order = [f"v{index}" for index in range(len(leaves))]
    canonical = normalize(raw, order)
    return stp_form_to_truth_table(canonical)


# ---------------------------------------------------------------------------
# The simulator
# ---------------------------------------------------------------------------


class StpSimulator:
    """STP-based simulator of a k-LUT network (Algorithm 1)."""

    def __init__(self, network: KLutNetwork) -> None:
        self.network = network
        # One structural matrix per LUT, precomputed once: this is the
        # "logic matrices as primitives of the logic network" part of the
        # paper -- the simulator never looks at gate operators again.
        self._matrices: dict[int, np.ndarray] = {
            node: truth_table_to_structural_matrix(network.lut_function(node))
            for node in network.luts()
        }

    # -- mode 'a': all nodes --------------------------------------------

    def simulate_all(self, patterns: PatternSet) -> SimulationResult:
        """Simulate every node; one structural-matrix pass per node."""
        network = self.network
        if patterns.num_inputs != network.num_pis:
            raise ValueError(f"pattern set has {patterns.num_inputs} inputs, network has {network.num_pis}")
        num_patterns = patterns.num_patterns
        values: dict[int, np.ndarray] = {}
        for node in network.nodes():
            if network.is_constant(node):
                fill = 1 if network.constant_value(node) else 0
                values[node] = np.full(num_patterns, fill, dtype=np.uint8)
        for position, node in enumerate(network.pis):
            values[node] = _word_to_bits(patterns.input_word(position), num_patterns)
        for node in network.topological_order():
            values[node] = self._node_pass(node, values)
        result = SimulationResult(num_patterns)
        for node, bits in values.items():
            result.signatures[node] = _bits_to_word(bits)
        return result

    def _node_pass(self, node: int, values: Mapping[int, np.ndarray]) -> np.ndarray:
        """One structural-matrix pass: select the matrix column of each pattern.

        The STP of the structural matrix with the fanin logic vectors is a
        one-hot column selection; column index ``sum_i (1 - b_i) << i``
        (fanin ``i`` contributing bit ``i``) reproduces it for all patterns
        at once.
        """
        matrix = self._matrices[node]
        fanins = self.network.lut_fanins(node)
        num_patterns = next(iter(values.values())).shape[0] if values else 0
        columns = np.zeros(num_patterns, dtype=np.int64)
        for position, fanin in enumerate(fanins):
            columns += (1 - values[fanin].astype(np.int64)) << position
        return matrix[0, columns].astype(np.uint8)

    # -- mode 's': specified nodes ----------------------------------------

    def simulate_nodes(
        self,
        patterns: PatternSet,
        targets: Sequence[int],
        limit: int | None = None,
    ) -> SimulationResult:
        """Simulate only ``targets`` using the cut algorithm (Algorithm 1, mode s).

        ``limit`` defaults to ``floor(log2(#patterns))`` as in the paper;
        the returned result contains signatures for the cut roots (which
        include every target), the PIs and the constants.
        """
        network = self.network
        if patterns.num_inputs != network.num_pis:
            raise ValueError(f"pattern set has {patterns.num_inputs} inputs, network has {network.num_pis}")
        if limit is None:
            limit = cut_limit_for_patterns(patterns.num_patterns)
        num_patterns = patterns.num_patterns

        cuts = simulation_cuts(network, list(targets), limit)
        values: dict[int, np.ndarray] = {}
        for node in network.nodes():
            if network.is_constant(node):
                fill = 1 if network.constant_value(node) else 0
                values[node] = np.full(num_patterns, fill, dtype=np.uint8)
        for position, node in enumerate(network.pis):
            values[node] = _word_to_bits(patterns.input_word(position), num_patterns)

        for cut in cuts:
            table = cut_truth_table_stp(network, cut)
            matrix = truth_table_to_structural_matrix(table)
            columns = np.zeros(num_patterns, dtype=np.int64)
            for position, leaf in enumerate(cut.leaves):
                columns += (1 - values[leaf].astype(np.int64)) << position
            values[cut.root] = matrix[0, columns].astype(np.uint8)

        result = SimulationResult(num_patterns)
        for node, bits in values.items():
            result.signatures[node] = _bits_to_word(bits)
        return result

    # -- exhaustive local signatures (Section III-C) -----------------------

    def exhaustive_truth_tables(
        self,
        targets: Sequence[int],
        max_support: int = 16,
    ) -> dict[int, TruthTable | None]:
        """Truth table of every target over its own PI support.

        This is the exhaustive-pattern simulation of Section III-C: the
        scale of the exhaustive pattern set is ``2^|support|``, usually far
        smaller than the global pattern count.  Targets whose support
        exceeds ``max_support`` map to ``None``.
        """
        network = self.network
        results: dict[int, TruthTable | None] = {}
        for target in targets:
            cone = network.tfi([target])
            support = [node for node in cone if network.is_pi(node)]
            if len(support) > max_support:
                results[target] = None
                continue
            cut = SimulationCut(target, tuple(support), tuple(n for n in cone if network.is_lut(n) and n != target))
            if network.is_pi(target):
                results[target] = TruthTable.variable(0, 1)
            elif network.is_constant(target):
                results[target] = TruthTable.constant(network.constant_value(target))
            else:
                results[target] = cut_truth_table_stp(network, cut)
        return results


def simulate_klut_stp(
    network: KLutNetwork,
    patterns: PatternSet,
    targets: Sequence[int] | None = None,
    limit: int | None = None,
) -> SimulationResult:
    """Algorithm 1 as a single function: mode a (no targets) or mode s."""
    simulator = StpSimulator(network)
    if targets is None:
        return simulator.simulate_all(patterns)
    return simulator.simulate_nodes(patterns, targets, limit)


# ---------------------------------------------------------------------------
# Exhaustive window simulation on AIGs (used by the STP sweeper)
# ---------------------------------------------------------------------------


def stp_aig_truth_table(aig: Aig, literal: int, leaves: Sequence[int]) -> TruthTable:
    """Function of an AIG literal over ``leaves``, via structural-matrix composition.

    Every AND gate contributes its 2x4 structural matrix and every
    complemented edge an ``M_not``; the word-level composition in
    :func:`repro.networks.mapping.aig_node_truth_table` computes the same
    structural matrix and is used as the engine.
    """
    table = aig_node_truth_table(aig, Aig.node_of(literal), leaves, allow_unused_leaves=True)
    return ~table if Aig.is_complemented(literal) else table


def compute_pi_supports(aig: Aig, max_size: int | None = None) -> dict[int, tuple[int, ...] | None]:
    """Structural PI support of every node, in one bottom-up pass.

    With ``max_size`` the support of a node is stored as ``None`` as soon
    as it exceeds the bound, which keeps the pass cheap on wide circuits;
    such nodes are simply not eligible for exhaustive window simulation.
    """
    supports: dict[int, frozenset[int] | None] = {0: frozenset()}
    for pi in aig.pis:
        supports[pi] = frozenset([pi])
    for node in aig.topological_order():
        fanin0, fanin1 = aig.fanin_nodes(node)
        left = supports.get(fanin0)
        right = supports.get(fanin1)
        if left is None or right is None:
            supports[node] = None
            continue
        union = left | right
        supports[node] = None if (max_size is not None and len(union) > max_size) else union
    return {
        node: (tuple(sorted(value)) if value is not None else None)
        for node, value in supports.items()
    }


def common_window_leaves(
    aig: Aig,
    targets: Sequence[int],
    max_leaves: int = 16,
    supports: Mapping[int, tuple[int, ...] | None] | None = None,
) -> list[int] | None:
    """The combined primary-input support of a group of AIG nodes.

    Exhaustive window simulation can only *disprove* an equivalence soundly
    when the window leaves are free inputs: over an internal cut, two
    equivalent nodes may still have different local functions on the
    unreachable leaf combinations (satisfiability don't-cares).  The window
    is therefore the union of the targets' PI supports; ``None`` is
    returned when it exceeds ``max_leaves`` (the paper's "fewer than 16
    leaf nodes" restriction).  A precomputed ``supports`` map (see
    :func:`compute_pi_supports`) avoids repeated cone traversals.
    """
    leaves: list[int] = []
    for target in targets:
        target_support: Sequence[int] | None
        if supports is not None:
            target_support = supports.get(target)
            if target_support is None:
                return None
        else:
            target_support = [node for node in aig.tfi([target]) if aig.is_pi(node)]
        for node in target_support:
            if node not in leaves:
                leaves.append(node)
                if len(leaves) > max_leaves:
                    return None
    return leaves


#: Cached masks per ``(num_vars, var)``: ``(low, keep, down, up)`` select
#: the assignments whose bit ``var`` is 0 (``low``) and whose bits
#: ``(var, var + 1)`` are equal, ``10`` and ``01`` (the adjacent swap).
_VAR_MASKS: dict[tuple[int, int], tuple[int, int, int, int]] = {}


def _tile(pattern: int, period: int, num_vars: int) -> int:
    """Repeat a ``period``-bit pattern over a ``num_vars``-input table."""
    size = 1 << num_vars
    while period < size:
        pattern |= pattern << period
        period *= 2
    return pattern & ((1 << size) - 1)


def _var_masks(num_vars: int, var: int) -> tuple[int, int, int, int]:
    key = (num_vars, var)
    masks = _VAR_MASKS.get(key)
    if masks is None:
        block = 1 << var
        ones = (1 << block) - 1
        low = _tile(ones, 2 * block, num_vars)
        down = _tile(ones << block, 4 * block, num_vars)
        up = _tile(ones << (2 * block), 4 * block, num_vars)
        full = (1 << (1 << num_vars)) - 1
        masks = _VAR_MASKS[key] = (low, full ^ down ^ up, down, up)
    return masks


def _swap_adjacent(bits: int, num_vars: int, var: int) -> int:
    """Exchange inputs ``var`` and ``var + 1`` of a packed table (kitty's ``swap_adjacent``)."""
    _low, keep, down, up = _var_masks(num_vars, var)
    shift = 1 << var
    return (bits & keep) | ((bits >> shift) & down) | ((bits << shift) & up)


def _sort_inputs(bits: int, keys: list[int]) -> int:
    """Bubble the inputs of a packed table into ascending ``keys`` order (in place on ``keys``)."""
    num_vars = len(keys)
    for end in range(num_vars - 1, 0, -1):
        for var in range(end):
            if keys[var] > keys[var + 1]:
                bits = _swap_adjacent(bits, num_vars, var)
                keys[var], keys[var + 1] = keys[var + 1], keys[var]
    return bits


def expand_truth_table(table: TruthTable, own_leaves: Sequence[int], window: Sequence[int]) -> TruthTable:
    """Re-express a function over a larger window of leaves.

    ``own_leaves`` are the leaves (e.g. PI node indices) of ``table``'s
    inputs in order, in any order; ``window`` is a superset.  Added leaves
    become don't-cares.  The expansion is integer bit arithmetic on the
    packed table, in the style of kitty's ``extend_to``/``swap_adjacent``:
    the own inputs are first sorted into window order on the small table,
    the table is then stretched to the window width (the new top inputs are
    the don't-cares), and each own input is swapped up past the
    don't-cares to its window position, highest first.  The swap masks are
    cached per ``(num_vars, var)``.
    """
    window_list = list(window)
    positions = {leaf: index for index, leaf in enumerate(window_list)}
    missing = [leaf for leaf in own_leaves if leaf not in positions]
    if missing:
        raise ValueError(f"window is missing leaves {missing}")
    targets = [positions[leaf] for leaf in own_leaves]
    if len(targets) != table.num_vars:
        raise ValueError(f"table has {table.num_vars} inputs, {len(targets)} leaves given")
    num_vars = len(window_list)
    if targets == list(range(num_vars)):
        return table
    bits = _sort_inputs(table.bits, targets)
    for var in range(len(targets), num_vars):
        bits |= bits << (1 << var)
    for var in range(len(targets) - 1, -1, -1):
        for position in range(var, targets[var]):
            bits = _swap_adjacent(bits, num_vars, position)
    return TruthTable(num_vars, bits)


def function_key(table: TruthTable, leaves: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Canonical form of a function of named leaves: functional support and shrunk table.

    ``table``'s inputs are ``leaves`` in order (any order).  The key is the
    ascending tuple of the leaves the function actually depends on, plus
    the packed table over exactly those leaves.  Two functions of leaf
    sets agree on every assignment of the union of their leaves exactly
    when their keys are equal, so comparing keys replaces expanding both
    tables onto a common window.  The complement's key keeps the leaves and
    complements the table over ``len(leaves)`` inputs.

    Inputs are sorted by leaf with adjacent swaps, then every input with
    equal cofactors (a vacuous structural leaf) is swapped to the top and
    cut off, highest first.
    """
    if len(leaves) != table.num_vars:
        raise ValueError(f"table has {table.num_vars} inputs, {len(leaves)} leaves given")
    order = list(leaves)
    bits = _sort_inputs(table.bits, order)
    num_vars = len(order)
    for var in range(num_vars - 1, -1, -1):
        low = _var_masks(num_vars, var)[0]
        if (bits >> (1 << var)) & low != bits & low:
            continue
        for position in range(var, num_vars - 1):
            bits = _swap_adjacent(bits, num_vars, position)
        num_vars -= 1
        bits &= (1 << (1 << num_vars)) - 1
        del order[var]
    return tuple(order), bits


def compute_local_truth_tables(
    aig: Aig,
    max_support: int = 16,
    supports: Mapping[int, tuple[int, ...] | None] | None = None,
) -> dict[int, TruthTable | None]:
    """Function of every node over its own PI support, in one bottom-up pass.

    Nodes whose support exceeds ``max_support`` map to ``None``.  Each
    node's table is the AND of its fanin tables, stretched onto the node's
    support by the integer :func:`expand_truth_table`.  A table is a global
    function of the node's PI support, so this is the precomputation behind
    the sweeper's exhaustive window refinement: any two nodes whose
    supports jointly fit in ``max_support`` leaves are afterwards compared
    exhaustively by their :func:`function_key`, with no expansion, no cone
    traversal and no SAT call.
    """
    if supports is None:
        supports = compute_pi_supports(aig, max_support)
    tables: dict[int, TruthTable | None] = {0: TruthTable.constant(False)}
    for pi in aig.pis:
        tables[pi] = TruthTable.variable(0, 1)
    for node in aig.topological_order():
        support = supports.get(node)
        if support is None or len(support) > max_support:
            tables[node] = None
            continue
        fanin0, fanin1 = aig.fanins(node)
        node0, node1 = Aig.node_of(fanin0), Aig.node_of(fanin1)
        table0, table1 = tables.get(node0), tables.get(node1)
        if table0 is None or table1 is None:
            tables[node] = None
            continue
        support0 = supports.get(node0) if not aig.is_constant(node0) else ()
        support1 = supports.get(node1) if not aig.is_constant(node1) else ()
        expanded0 = expand_truth_table(table0, support0 or (), support)
        expanded1 = expand_truth_table(table1, support1 or (), support)
        if Aig.is_complemented(fanin0):
            expanded0 = ~expanded0
        if Aig.is_complemented(fanin1):
            expanded1 = ~expanded1
        tables[node] = expanded0 & expanded1
    return tables


def stp_window_truth_tables(
    aig: Aig,
    targets: Sequence[int],
    max_leaves: int = 16,
    supports: Mapping[int, tuple[int, ...] | None] | None = None,
) -> dict[int, TruthTable] | None:
    """Exhaustive window signatures of a group of AIG nodes.

    Computes one shared window (at most ``max_leaves`` leaves) covering all
    targets and returns each target's truth table over that window -- the
    exhaustive local simulation the STP sweeper uses to disprove candidate
    equivalences without calling SAT.  Returns ``None`` when no such window
    exists (or when a stale ``supports`` cache no longer covers a target's
    cone after the network was rewritten).
    """
    leaves = common_window_leaves(aig, targets, max_leaves, supports)
    if leaves is None:
        return None
    tables: dict[int, TruthTable] = {}
    for target in targets:
        if target in leaves:
            tables[target] = TruthTable.variable(leaves.index(target), len(leaves))
        else:
            try:
                tables[target] = aig_node_truth_table(aig, target, leaves, allow_unused_leaves=True)
            except ValueError:
                # A substitution enlarged the structural support beyond the
                # cached window; treat the pair as not coverable.
                return None
    return tables
