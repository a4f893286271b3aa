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


def _corrupt_checkpoint(path, fault):
    """A checkpoint with one impossible value in one tensor."""
    cfg = NetworkConfig(in_dim=3, encoder=(4, 2), projector=(3,), predictor=(3,))
    params = init_params(cfg, RngState(3))
    target, opt = copy_params(params), OptimizerState()
    opt.buffers["projector.0.gamma"] = np.ones(3)
    if fault == "online_nan":
        params.encoder[0].w[1, 2] = np.nan
    elif fault == "buffer_inf":
        opt.buffers["projector.0.gamma"][2] = np.inf
    elif fault == "target_nan":
        target.predictor[0].b[0] = np.nan
    elif fault == "run_var":
        target.encoder[1].run_var[0] = -0.5
    save_checkpoint(params, opt, target, path)


@pytest.mark.parametrize(
    "fault, message",
    [
        ("online_nan", "non-finite value in online encoder.0.w"),
        ("buffer_inf", "non-finite value in buffer projector.0.gamma"),
        ("target_nan", "non-finite value in target predictor.0.b"),
        ("run_var", "negative running variance in target encoder.1.run_var"),
    ],
)
def test_checkpoint_with_impossible_tensor_is_a_format_error(tmp_path, fault, message):
    path = tmp_path / "c.psmc"
    _corrupt_checkpoint(path, fault)
    with pytest.raises(FormatError, match=message):
        load_checkpoint(path)


def _checkpoint_with_optimizer(path, **fields):
    """A checkpoint whose optimizer scalars are ``fields``, set after construction.

    OptimizerState refuses an impossible value when it is built, so a bad
    file comes from a valid state whose fields are changed afterwards.
    """
    cfg = NetworkConfig(in_dim=3, encoder=(4, 2), projector=(3,), predictor=(3,))
    params = init_params(cfg, RngState(3))
    opt = OptimizerState()
    for name, value in fields.items():
        setattr(opt, name, value)
    save_checkpoint(params, opt, copy_params(params), path)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"momentum": np.nan}, "SGD momentum nan"),
        ({"momentum": 1.0}, "SGD momentum 1.0"),
        ({"momentum": -0.1}, "SGD momentum -0.1"),
        ({"weight_decay": -0.001}, "weight decay -0.001"),
        ({"weight_decay": np.inf}, "weight decay inf"),
        ({"base_lr": np.nan}, "base_lr nan"),
        ({"peak_lr": -5.0}, "peak_lr -5.0"),
        ({"floor_lr": np.inf}, "floor_lr inf"),
        ({"warmup_epochs": 9, "total_epochs": 2}, "warmup of 9 epochs exceeds 2"),
        (
            {"momentum": np.nan, "peak_lr": -5.0, "warmup_epochs": 9, "total_epochs": 2},
            "SGD momentum nan",
        ),
    ],
    ids=[
        "momentum_nan", "momentum_1", "momentum_negative", "weight_decay_negative",
        "weight_decay_inf", "base_lr_nan", "peak_lr_negative", "floor_lr_inf",
        "warmup_beyond_total", "all_four_faults",
    ],
)
def test_checkpoint_optimizer_scalars_are_checked(tmp_path, fields, message):
    path = tmp_path / "c.psmc"
    _checkpoint_with_optimizer(path, **fields)
    with pytest.raises(FormatError, match=message):
        load_checkpoint(path)


def test_checkpoint_optimizer_scalars_at_their_limits_load(tmp_path):
    path = tmp_path / "c.psmc"
    limits = {"momentum": 0.0, "weight_decay": 0.0, "base_lr": 0.0, "peak_lr": 0.0,
              "floor_lr": 0.0, "warmup_epochs": 5, "total_epochs": 5}
    _checkpoint_with_optimizer(path, **limits)
    _, opt, _ = load_checkpoint(path)
    assert {key: getattr(opt, key) for key in limits} == limits


# bn_eps sits at byte 17 and bn_momentum at byte 25, after the batch-norm byte
@pytest.mark.parametrize(
    "offset, value",
    [(17, -1.0), (17, 0.0), (17, np.nan), (17, np.inf), (25, 1.5), (25, -0.1), (25, np.nan)],
)
def test_checkpoint_batch_norm_scalars_are_checked(tmp_path, valid_files, offset, value):
    raw = bytearray(valid_files["checkpoint"])
    raw[offset : offset + 8] = struct.pack("<d", value)
    path = tmp_path / "c.psmc"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="batch-norm"):
        load_checkpoint(path)


@pytest.mark.parametrize("name, offset", [("checkpoint", 16), ("bank", 32)])
@pytest.mark.parametrize("flag", [2, 7, 255])
def test_flag_byte_other_than_0_or_1_is_a_format_error(
    tmp_path, valid_files, name, offset, flag
):
    raw = bytearray(valid_files[name])
    assert raw[offset] == 1  # batch norm on, labels present
    raw[offset] = flag
    path = tmp_path / name
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=f"got {flag}"):
        FORMATS[name][1](path)
