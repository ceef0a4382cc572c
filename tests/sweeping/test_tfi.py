"""Tests for the transitive-fanin manager."""

import pytest

from repro.networks import Aig
from repro.sweeping import TfiManager


class TestTfiManager:
    def test_order_drivers_respects_limit(self, ripple_adder_4):
        manager = TfiManager(ripple_adder_4, limit=5)
        po_node = Aig.node_of(ripple_adder_4.pos[-1])
        cone = frozenset(ripple_adder_4.tfi([po_node], limit=5))
        assert len(cone) <= 5
        assert po_node in cone
        drivers = [node for node in ripple_adder_4.nodes() if node < po_node]
        assert manager.order_drivers(po_node, drivers) == sorted(
            drivers, key=lambda d: (d not in cone, d)
        )

    def test_is_legal_merge_rejects_cycles(self):
        aig = Aig()
        a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
        x = aig.add_and(a, b)
        y = aig.add_and(x, c)
        aig.add_po(y)
        manager = TfiManager(aig)
        # Substituting x by y would create a cycle (x is in y's fanin).
        assert not manager.is_legal_merge(Aig.node_of(x), Aig.node_of(y))
        # The other direction is fine.
        assert manager.is_legal_merge(Aig.node_of(y), Aig.node_of(x))
        # Self-merge is never legal.
        assert not manager.is_legal_merge(Aig.node_of(x), Aig.node_of(x))

    def test_order_drivers_prefers_tfi_members(self):
        aig = Aig()
        a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
        x = aig.add_and(a, b)
        y = aig.add_and(x, c)
        z = aig.add_and(a, c)  # not in y's TFI
        aig.add_po(y)
        aig.add_po(z)
        manager = TfiManager(aig)
        ordered = manager.order_drivers(Aig.node_of(y), [Aig.node_of(z), Aig.node_of(x)])
        assert ordered[0] == Aig.node_of(x)

    def test_limit_validation(self, small_aig):
        with pytest.raises(ValueError):
            TfiManager(small_aig, limit=0)


FUZZ_SEEDS = [3, 11, 29]


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_order_drivers_matches_bounded_cone_ordering(seed):
    """``order_drivers`` equals sorting by membership in ``Aig.tfi(limit)``."""
    import random

    from repro.circuits.random_logic import random_aig

    aig = random_aig(num_pis=8, num_gates=150, num_pos=6, seed=seed)
    rng = random.Random(seed)
    gates = list(aig.gates())
    for limit in (1, 4, 17, 1000):
        manager = TfiManager(aig, limit=limit)
        for candidate in rng.sample(gates, 10):
            cone = frozenset(aig.tfi([candidate], limit=limit))
            drivers = rng.sample(list(aig.nodes()), 6)
            assert manager.order_drivers(candidate, drivers) == sorted(
                drivers, key=lambda d: (d not in cone, d)
            )


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_is_legal_merge_matches_unbounded_driver_cone(seed):
    """Legal exactly when the candidate is outside the driver's full TFI."""
    import random

    from repro.circuits.random_logic import random_aig

    aig = random_aig(num_pis=8, num_gates=150, num_pos=6, seed=seed)
    rng = random.Random(seed + 100)
    gates = list(aig.gates())
    manager = TfiManager(aig, limit=5)  # the bound plays no part in legality
    for _ in range(60):
        candidate, driver = rng.sample(gates, 2)
        expected = candidate not in set(aig.tfi([driver]))
        assert manager.is_legal_merge(candidate, driver) == expected


def test_order_drivers_leaves_a_single_driver_alone(small_aig):
    manager = TfiManager(small_aig, limit=1)
    po_node = Aig.node_of(small_aig.pos[0])
    far = max(small_aig.nodes())
    assert manager.order_drivers(po_node, [far]) == [far]
    assert manager.order_drivers(po_node, []) == []
