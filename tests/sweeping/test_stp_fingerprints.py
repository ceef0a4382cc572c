"""Byte-identity of the STP sweep on bundled Table II rows.

The exhaustive-window refinement may only change how fast a sweep runs,
never what it decides.  Each row is pinned to the fingerprint of the
sweep before the window check became a function-key comparison: the
swept gate count, the total SAT calls, the window disproofs and the
structural hash of the swept network.  Options are the Table II
defaults with a 16-leaf window.
"""

import pytest

from repro.circuits.sweep_workloads import sweep_workload
from repro.networks.structural_hash import structural_hash
from repro.sweeping import StpSweeper

#: name -> (gates_after, total SAT calls, window disproofs, structural hash)
FINGERPRINTS = {
    "beemfwt4b1": (338, 432, 131, "e89d690907f2ded1c94500c54d0a7c81"),
    "oski2b1i": (333, 975, 4694, "bf1b754a0eb2430cddd67cc7663e89c1"),
    "b18": (484, 220, 4906, "e860fec12a107bf869e1a33bce50bf2e"),
}


@pytest.mark.parametrize("name", sorted(FINGERPRINTS))
def test_stp_sweep_matches_pinned_fingerprint(name):
    sweeper = StpSweeper(
        sweep_workload(name),
        num_patterns=64,
        seed=1,
        conflict_limit=10_000,
        tfi_limit=1000,
        window_leaves=16,
    )
    swept, stats = sweeper.run()
    fingerprint = (swept.num_ands, stats.total_sat_calls, stats.simulation_disproofs, structural_hash(swept))
    assert fingerprint == FINGERPRINTS[name]
