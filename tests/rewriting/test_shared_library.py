"""Shared exact-enumeration tables: encode round-trip, publish/attach.

The partition and service worker pools attach one parent-published blob
instead of each re-enumerating (and privately holding) the exact tables.
These tests pin the record format round-trip against the enumerated
dicts, the full publish -> attach -> lookup -> detach lifecycle inside a
single process (the thread-executor path uses exactly this), the
failure contract (a dead descriptor leaves the library untouched), and
a clean interpreter exit after a spawned-pool run.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.rewriting.library import default_library
from repro.rewriting.shared import (
    EXPORTED_ARITIES,
    SharedExactTable,
    SharedLibraryDescriptor,
    attach_shared_library,
    build_shared_blob,
    detach_shared_library,
    encode_exact_entries,
    publish_shared_library,
    unpublish_shared_library,
)
from repro.truthtable.truth_table import TruthTable


@pytest.fixture(autouse=True)
def _clean_shared_state():
    yield
    detach_shared_library()
    unpublish_shared_library()


def test_encode_round_trips_hand_built_entries() -> None:
    entries = {
        0b1010: ("leaf", 0, 3),
        0b1100: ("leaf", 0, 5),
        0b0110: ("and", 3, 0b1010, 1, 0b1100, 0),
    }
    table = SharedExactTable(encode_exact_entries(entries))
    assert len(table) == len(entries)
    assert dict(table.items()) == {
        bits: tuple(record) for bits, record in entries.items()
    }
    assert 0b0110 in table
    assert 0b1111 not in table
    with pytest.raises(KeyError):
        table[0b1111]


@pytest.mark.parametrize("num_vars", EXPORTED_ARITIES)
def test_blob_sections_equal_the_enumerated_tables(num_vars: int) -> None:
    blob, sections = build_shared_blob()
    offsets = {arity: (offset, length) for arity, offset, length in sections}
    offset, length = offsets[num_vars]
    table = SharedExactTable(blob[offset : offset + length])
    reference = default_library()._exact_entries(num_vars)
    assert len(table) == len(reference)
    for bits, record in reference.items():
        assert table[bits] == tuple(record)


def test_table_rejects_torn_buffers() -> None:
    blob, _sections = build_shared_blob()
    with pytest.raises(ValueError, match="whole number of records"):
        SharedExactTable(blob[:10])


def test_publish_attach_lookup_detach_lifecycle() -> None:
    descriptor = publish_shared_library()
    assert descriptor is not None
    assert publish_shared_library() is descriptor  # idempotent per process
    assert attach_shared_library(descriptor)
    assert attach_shared_library(descriptor)  # idempotent too
    library = default_library()
    for num_vars in EXPORTED_ARITIES:
        assert isinstance(library._exact_by_arity[num_vars], SharedExactTable)
    # Lookups through the shared view drive the real rewrite path.
    structure = library.structure(TruthTable(3, 0b10010110))  # 3-input XOR
    assert structure.num_vars == 3
    detach_shared_library()
    for num_vars in EXPORTED_ARITIES:
        assert not isinstance(
            library._exact_by_arity.get(num_vars), SharedExactTable
        )
    # Post-detach the library re-enumerates locally: same answers.
    structure_again = library.structure(TruthTable(3, 0b10010110))
    assert structure_again.num_vars == 3


def test_attach_failure_leaves_the_library_untouched() -> None:
    library = default_library()
    before = dict(library._exact_by_arity)
    bogus = SharedLibraryDescriptor(
        kind="file",
        name="/nonexistent/repro-exact-gone.bin",
        size=28,
        sections=((2, 0, 28),),
    )
    assert attach_shared_library(bogus) is False
    assert library._exact_by_arity == before
    gone_shm = SharedLibraryDescriptor(
        kind="shm", name="repro-no-such-segment", size=28, sections=((2, 0, 28),)
    )
    assert attach_shared_library(gone_shm) is False
    assert library._exact_by_arity == before


def test_file_fallback_descriptor_attaches(tmp_path) -> None:
    blob, sections = build_shared_blob()
    path = tmp_path / "exact.bin"
    path.write_bytes(blob)
    descriptor = SharedLibraryDescriptor("file", str(path), len(blob), sections)
    assert attach_shared_library(descriptor)
    library = default_library()
    reference_bits = next(iter(default_library()._exact_entries(2)))
    assert library._exact_by_arity[2][reference_bits]
    detach_shared_library()


def test_spawned_pool_run_exits_without_tracker_traceback() -> None:
    # Spawned pool workers share the parent's resource tracker.  If an
    # attaching worker unregisters the segment there, the parent's unlink
    # at exit unregisters a name the tracker no longer holds, and the
    # tracker prints a KeyError traceback after the run succeeded.
    code = (
        "from repro.circuits import random_aig\n"
        "from repro.rewriting.passes import PassManager\n"
        "aig = random_aig(num_pis=12, num_gates=300, num_pos=6, seed=1)\n"
        "PassManager('ppart(rw, jobs=2, max_gates=40)').run(aig)\n"
    )
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=240
    )
    assert completed.returncode == 0, completed.stderr
    assert "Traceback" not in completed.stderr, completed.stderr
    assert "KeyError" not in completed.stderr, completed.stderr
