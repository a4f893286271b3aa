"""Little-endian binary record helpers for the bank and checkpoint files."""

from __future__ import annotations

import math
import os
import struct
from typing import BinaryIO

import numpy as np


class FormatError(ValueError):
    """A binary file did not match the expected layout."""


def write_magic(fh: BinaryIO, magic: bytes, version: int) -> None:
    if len(magic) != 4:
        raise ValueError("magic must be 4 bytes")
    fh.write(magic)
    fh.write(struct.pack("<I", version))


def read_magic(fh: BinaryIO, magic: bytes) -> int:
    got = fh.read(4)
    if got != magic:
        raise FormatError(f"bad magic: expected {magic!r}, got {got!r}")
    return read_u32(fh)


def write_u8(fh: BinaryIO, v: int) -> None:
    fh.write(struct.pack("<B", v))


def write_u64(fh: BinaryIO, v: int) -> None:
    fh.write(struct.pack("<Q", v))


def _read_exact(fh: BinaryIO, n: int) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise FormatError(f"truncated file: wanted {n} bytes, got {len(buf)}")
    return buf


def read_u8(fh: BinaryIO) -> int:
    return struct.unpack("<B", _read_exact(fh, 1))[0]


def read_flag(fh: BinaryIO) -> bool:
    """A u8 that must be 0 or 1."""
    v = read_u8(fh)
    if v > 1:
        raise FormatError(f"flag byte must be 0 or 1, got {v}")
    return bool(v)


def read_u32(fh: BinaryIO) -> int:
    return struct.unpack("<I", _read_exact(fh, 4))[0]


def read_u64(fh: BinaryIO) -> int:
    return struct.unpack("<Q", _read_exact(fh, 8))[0]


def bytes_left(fh: BinaryIO) -> int:
    """Bytes between the current position and the end of the file."""
    pos = fh.tell()
    end = fh.seek(0, os.SEEK_END)
    fh.seek(pos)
    return end - pos


def expect_eof(fh: BinaryIO, what: str) -> None:
    """Raise unless the whole file has been read."""
    extra = bytes_left(fh)
    if extra:
        raise FormatError(f"{extra} trailing bytes after the {what}")


def _read_array(fh: BinaryIO, shape: tuple[int, ...], dtype: str) -> np.ndarray:
    # Python ints cannot overflow, so a header claiming a huge shape is
    # caught here rather than wrapping to a small byte count.
    nbytes = 8 * math.prod(int(n) for n in shape)
    left = bytes_left(fh)
    if nbytes > left:
        raise FormatError(
            f"truncated file: header claims {nbytes} bytes of data, {left} left"
        )
    flat = np.frombuffer(_read_exact(fh, nbytes), dtype=dtype)
    try:
        return flat.reshape(shape)
    except ValueError:  # an empty array with a dimension numpy cannot hold
        raise FormatError(f"implausible array shape {shape}") from None


def write_f64_array(fh: BinaryIO, arr: np.ndarray) -> None:
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_f64_array(fh: BinaryIO, shape: tuple[int, ...]) -> np.ndarray:
    return _read_array(fh, shape, "<f8").astype(np.float64)


def write_i64_array(fh: BinaryIO, arr: np.ndarray) -> None:
    fh.write(np.ascontiguousarray(arr, dtype="<i8").tobytes())


def read_i64_array(fh: BinaryIO, shape: tuple[int, ...]) -> np.ndarray:
    return _read_array(fh, shape, "<i8").astype(np.int64)
