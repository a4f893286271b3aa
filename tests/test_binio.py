import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from psm._binio import FormatError
from psm.memory_bank import MemoryBank, load_bank, save_bank
from psm.network import (
    NetworkConfig,
    OptimizerState,
    copy_params,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from psm.numerics import RngState, l2_normalize_rows


def _write_bank(path):
    bank = MemoryBank(6, 3, with_labels=True)
    bank.enqueue_batch(l2_normalize_rows(RngState(1).normal((4, 3))), np.arange(4))
    save_bank(bank, path)


def _write_checkpoint(path):
    cfg = NetworkConfig(in_dim=3, encoder=(4, 2), projector=(3,), predictor=(3,))
    params = init_params(cfg, RngState(3))
    save_checkpoint(params, OptimizerState(), copy_params(params), path)


FORMATS = {
    "bank": (_write_bank, load_bank),
    "checkpoint": (_write_checkpoint, load_checkpoint),
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("formats")
    out = {}
    for name, (write, _) in FORMATS.items():
        write(root / name)
        out[name] = (root / name).read_bytes()
    return out


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_valid_file_loads(tmp_path, valid_files, name):
    path = tmp_path / name
    path.write_bytes(valid_files[name])
    FORMATS[name][1](path)


@pytest.mark.parametrize("name", sorted(FORMATS))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_truncation_is_a_format_error(tmp_path, valid_files, name, data):
    full = valid_files[name]
    cut = data.draw(st.integers(0, len(full) - 1))
    path = tmp_path / name
    path.write_bytes(full[:cut])
    with pytest.raises(FormatError):
        FORMATS[name][1](path)


@pytest.mark.parametrize("extra", [b"\0", b"\0" * 8, b"junk" * 5])
@pytest.mark.parametrize("name", sorted(FORMATS))
def test_trailing_bytes_are_a_format_error(tmp_path, valid_files, name, extra):
    path = tmp_path / name
    path.write_bytes(valid_files[name] + extra)
    with pytest.raises(FormatError):
        FORMATS[name][1](path)


@pytest.mark.parametrize(
    "capacity,count,dim",
    [(2**62, 2**62, 64), (2**63, 1, 2**63), (5, 0, 2**63), (0, 0, 4), (4, 0, 0)],
)
def test_bank_header_sizes_are_checked(tmp_path, capacity, count, dim):
    path = tmp_path / "b.psmb"
    path.write_bytes(b"PSMB" + struct.pack("<IQQQB", 1, capacity, count, dim, 0))
    with pytest.raises(FormatError):
        load_bank(path)


def _checkpoint_header(in_dim, heads):
    raw = b"PSMC" + struct.pack("<IQB", 1, in_dim, 1) + struct.pack("<2d", 1e-5, 0.1)
    for widths in heads:
        raw += struct.pack(f"<Q{len(widths)}Q", len(widths), *widths)
    return raw


@pytest.mark.parametrize(
    "in_dim,heads",
    [
        (3, [(4, 2), (3,), (3,)]),  # valid widths, but no tensors follow
        (3, [(4, 0), (3,), (3,)]),
        (3, [(), (3,), (3,)]),
        (0, [(4, 2), (3,), (3,)]),
        (3, [(2**40, 2), (3,), (3,)]),
    ],
)
def test_checkpoint_widths_are_checked_before_allocating(tmp_path, in_dim, heads):
    path = tmp_path / "c.psmc"
    path.write_bytes(_checkpoint_header(in_dim, heads) + b"\0" * 64)
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_layer_count_beyond_file_is_a_format_error(tmp_path):
    path = tmp_path / "c.psmc"
    raw = b"PSMC" + struct.pack("<IQB", 1, 3, 1) + struct.pack("<2d", 1e-5, 0.1)
    path.write_bytes(raw + struct.pack("<Q", 2**62) + b"\0" * 16)
    with pytest.raises(FormatError, match="claims"):
        load_checkpoint(path)
