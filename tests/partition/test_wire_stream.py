"""Wire format and streaming extraction: round-trips and peak memory.

The million-gate driver path never materialises every region at once:
:func:`stream_region_networks` yields one sub-network at a time and the
dispatcher immediately flattens it to compact wire bytes.  This suite
fuzzes the two halves independently -- 40-seed structural identity of
the stream against :func:`extract_region`, and byte-exact wire
round-trips -- then pins the memory claim itself (only one region's
sub-network is ever alive).
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import pytest

from repro.circuits.random_logic import random_aig
from repro.networks.structural_hash import structural_hash
from repro.partition.regions import extract_region, partition_network, stream_region_networks
from repro.partition.wire import decode_region, encode_region, wire_counts

SEEDS = list(range(40))


def _workload(seed: int):
    num_gates = 80 + 17 * (seed % 9)
    return random_aig(num_pis=6 + seed % 7, num_gates=num_gates, num_pos=5, seed=seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_matches_extract_region_per_region(seed: int) -> None:
    """Every streamed sub-network is the extract_region one, byte for byte."""
    aig = _workload(seed)
    regions = partition_network(aig, max_gates=20 + seed % 30)
    streamed = 0
    for region, sub in stream_region_networks(aig, regions):
        reference = extract_region(aig, region)
        assert sub.num_pis == reference.num_pis
        assert sub.num_ands == reference.num_ands
        assert sub.num_pos == reference.num_pos
        assert sub.pi_names == reference.pi_names
        assert sub.po_names == reference.po_names
        assert structural_hash(sub) == structural_hash(reference)
        # Same gate numbering, not merely isomorphic: identical wire bytes.
        assert encode_region(sub) == encode_region(reference)
        streamed += 1
    assert streamed == len(regions)


@pytest.mark.parametrize("seed", SEEDS)
def test_wire_round_trip_is_exact(seed: int) -> None:
    aig = _workload(seed)
    regions = partition_network(aig, max_gates=25)
    for region, sub in stream_region_networks(aig, regions):
        blob = encode_region(sub)
        assert wire_counts(blob) == (sub.num_pis, sub.num_ands, sub.num_pos)
        decoded = decode_region(blob, name=sub.name)
        assert decoded.num_pis == sub.num_pis
        assert decoded.num_ands == sub.num_ands
        assert decoded.num_pos == sub.num_pos
        assert structural_hash(decoded) == structural_hash(sub)
        # Decode/encode is the identity on wire bytes.
        assert encode_region(decoded) == blob


def test_stream_keeps_at_most_one_region_alive() -> None:
    """Liveness, not just peak bytes: earlier sub-networks are collected.

    The generator holds only the sub-network it is currently yielding;
    once the consumer drops its reference and advances, every earlier
    region's network must be garbage.  This is the structural form of
    the O(largest region) peak-memory claim.
    """
    aig = _workload(3)
    regions = partition_network(aig, max_gates=20)
    assert len(regions) >= 4
    refs: list[weakref.ref] = []
    for _region, sub in stream_region_networks(aig, regions):
        refs.append(weakref.ref(sub))
        del sub
        gc.collect()
        # All but the region currently held by the generator frame are dead.
        alive = [index for index, ref in enumerate(refs) if ref() is not None]
        assert alive in ([], [len(refs) - 1])


def test_stream_peak_memory_is_one_region_not_the_network() -> None:
    aig = random_aig(num_pis=10, num_gates=2500, num_pos=8, seed=11)
    regions = partition_network(aig, max_gates=50)
    assert len(regions) >= 30

    gc.collect()
    tracemalloc.start()
    for _region, sub in stream_region_networks(aig, regions):
        encode_region(sub)
    _current, streamed_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    gc.collect()
    tracemalloc.start()
    materialized = [extract_region(aig, region) for region in regions]
    _current, materialized_peak = tracemalloc.get_traced_memory()
    del materialized
    tracemalloc.stop()

    # ~50 regions alive at once vs one: even a loose factor separates them.
    assert streamed_peak < materialized_peak / 4


def test_decode_rejects_corrupt_payloads() -> None:
    aig = _workload(5)
    region = partition_network(aig, max_gates=30)[0]
    blob = encode_region(extract_region(aig, region))
    with pytest.raises(ValueError, match="magic"):
        decode_region(b"XXXX" + blob[4:])
    with pytest.raises(ValueError, match="header"):
        decode_region(blob[:8])
    with pytest.raises(ValueError, match="promises"):
        decode_region(blob + b"\x00\x00\x00\x00")
    # A gate literal pointing past the nodes built so far is rejected,
    # never silently replayed into a different network.
    corrupt = bytearray(blob)
    corrupt[16:20] = (2**31).to_bytes(4, "little")
    with pytest.raises(ValueError):
        decode_region(bytes(corrupt))
