"""Shared pytest fixtures: small reference circuits used across the suite.

The per-test timeout fallback lives in the repository-root ``conftest.py``.
"""

from __future__ import annotations

import pytest

from repro.networks import Aig, KLutNetwork, map_aig_to_klut
from repro.truthtable import TruthTable


@pytest.fixture
def small_aig() -> Aig:
    """A 4-input, 2-output AIG mixing AND/XOR/MUX structure."""
    aig = Aig("small")
    a = aig.add_pi("a")
    b = aig.add_pi("b")
    c = aig.add_pi("c")
    d = aig.add_pi("d")
    left = aig.add_and(a, b)
    right = aig.add_or(c, d)
    out0 = aig.add_xor(left, right)
    out1 = aig.add_mux(a, out0, aig.add_xnor(b, c))
    aig.add_po(out0, "f")
    aig.add_po(out1, "g")
    return aig


@pytest.fixture
def small_klut(small_aig: Aig) -> KLutNetwork:
    """The 3-LUT mapping of :func:`small_aig`."""
    network, _node_map = map_aig_to_klut(small_aig, k=3)
    return network


@pytest.fixture
def fig1_klut() -> KLutNetwork:
    """The exact k-LUT network of Fig. 1(a) of the paper.

    Five PIs (1..5), six 2-input NAND nodes (6..11 with truth table
    ``0111``), two POs driven by nodes 10 and 11.
    """
    network = KLutNetwork("fig1")
    pi = {i: network.add_pi(f"x{i}") for i in range(1, 6)}
    nand = TruthTable.from_binary_string("0111")
    n6 = network.add_lut([pi[1], pi[3]], nand)
    n7 = network.add_lut([pi[2], pi[3]], nand)
    n8 = network.add_lut([pi[3], pi[4]], nand)
    n9 = network.add_lut([pi[4], pi[5]], nand)
    n10 = network.add_lut([n6, n7], nand)
    n11 = network.add_lut([n8, n9], nand)
    network.add_po(n10, name="po1")
    network.add_po(n11, name="po2")
    # Expose the node handles for tests that need them.
    network.fig1_nodes = {  # type: ignore[attr-defined]
        "pis": pi,
        6: n6,
        7: n7,
        8: n8,
        9: n9,
        10: n10,
        11: n11,
    }
    return network


@pytest.fixture
def ripple_adder_4() -> Aig:
    """A 4-bit ripple-carry adder (small enough for exhaustive checks)."""
    from repro.circuits.arithmetic import ripple_carry_adder

    return ripple_carry_adder(width=4, name="adder4")
