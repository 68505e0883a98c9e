"""NSTF1 named-tensor container.

Layout (all integers little-endian unsigned 64-bit):

    magic  b"NSTF1\\0"
    count
    repeat count times:
        name_len, name (utf-8), rank, dims[rank], data (f64 LE, C order)

Entries are written in dict insertion order, so identical inputs produce
bit-identical files.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import DataError

MAGIC = b"NSTF1\x00"
_U64 = struct.Struct("<Q")


def write_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    buf = bytearray()
    buf += MAGIC
    buf += _U64.pack(len(tensors))
    for name, arr in tensors.items():
        data = np.asarray(arr, dtype="<f8", order="C")  # keeps 0-d ranks
        raw = name.encode("utf-8")
        buf += _U64.pack(len(raw))
        buf += raw
        buf += _U64.pack(data.ndim)
        for d in data.shape:
            buf += _U64.pack(d)
        buf += data.tobytes()
    Path(path).write_bytes(bytes(buf))


def read_tensors(path) -> dict[str, np.ndarray]:
    """Entries of an NSTF1 file; `DataError` for any file that is not a
    whole, well-formed one (truncated, corrupt header, trailing bytes)."""
    raw = Path(path).read_bytes()
    if raw[: len(MAGIC)] != MAGIC:
        raise DataError(f"{path}: bad magic, not an NSTF1 file")
    pos = len(MAGIC)

    def take(nbytes: int, what: str) -> int:
        """Start of the next `nbytes`, which must lie inside the file."""
        nonlocal pos
        if nbytes > len(raw) - pos:
            raise DataError(f"{path}: truncated at byte {pos}: {what} needs "
                            f"{nbytes} bytes, {len(raw) - pos} remain")
        pos += nbytes
        return pos - nbytes

    def u64(what: str) -> int:
        return _U64.unpack_from(raw, take(8, what))[0]

    count = u64("entry count")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        name_len = u64("name length")
        start = take(name_len, "name")
        try:
            name = raw[start:start + name_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: entry name is not UTF-8") from exc
        if name in out:
            raise DataError(f"{path}: duplicate entry {name!r}")
        rank = u64(f"rank of {name!r}")
        dims = tuple(u64(f"dims of {name!r}") for _ in range(rank))
        # exact (Python integers do not wrap), and cut short once it passes
        # what the file holds, so corrupt dims cannot make a huge product
        size = 0 if 0 in dims else 1
        for d in dims:
            size *= d
            if size > len(raw):
                break
        start = take(8 * size, f"data of {name!r}")
        try:
            arr = np.frombuffer(raw, dtype="<f8", count=size,
                                offset=start).reshape(dims)
        except ValueError as exc:  # rank or an empty dim beyond NumPy's limits
            raise DataError(f"{path}: bad shape {dims} for {name!r}") from exc
        out[name] = arr.astype(float)
    if pos != len(raw):
        raise DataError(f"{path}: {len(raw) - pos} trailing bytes")
    return out
