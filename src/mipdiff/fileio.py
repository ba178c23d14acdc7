"""Volume and image file formats.

Volumes travel as MIPVOL files: one ASCII header line ``MIPVOL1 <nx> <ny> <nz>``
followed by ``nx*ny*nz`` little-endian float32 samples, x fastest, then y,
then z. In-memory arithmetic is float64; file payloads are 32-bit.
"""
from __future__ import annotations

import numpy as np

from .fields import as_field, as_volume

__all__ = [
    "VolumeIOError",
    "MagicMismatchError",
    "DimensionError",
    "TruncatedPayloadError",
    "NonFiniteValueError",
    "read_volume",
    "write_volume",
    "export_pgm",
    "export_profile_csv",
]

MAGIC = "MIPVOL1"


class VolumeIOError(Exception):
    """Base class for malformed volume files."""


class MagicMismatchError(VolumeIOError):
    pass


class DimensionError(VolumeIOError):
    pass


class TruncatedPayloadError(VolumeIOError):
    pass


class NonFiniteValueError(VolumeIOError):
    pass


def read_volume(path) -> np.ndarray:
    """Read a MIPVOL file into a float64 array of shape (nz, ny, nx).

    The payload is read one z-slice at a time into a reused float32
    buffer, so no whole-volume temporary is built beside the result.
    """
    with open(path, "rb") as f:
        header = f.readline(256)
        if not header.endswith(b"\n"):
            raise MagicMismatchError(f"{path}: missing or overlong header line")
        tokens = header.decode("ascii", errors="replace").split()
        if len(tokens) != 4 or tokens[0] != MAGIC:
            raise MagicMismatchError(f"{path}: expected '{MAGIC} nx ny nz' header")
        try:
            nx, ny, nz = (int(t) for t in tokens[1:])
        except ValueError as exc:
            raise DimensionError(f"{path}: non-integer dimensions {tokens[1:]}") from exc
        if nx < 1 or ny < 1 or nz < 1:
            raise DimensionError(f"{path}: non-positive dimensions {nx}x{ny}x{nz}")
        count = nx * ny * nz
        vol = np.empty((nz, ny, nx))
        buf = np.empty((ny, nx), dtype="<f4")
        got = 0
        finite = True
        for z in range(nz):
            n = f.readinto(buf)
            got += n
            if n < buf.nbytes:
                break
            # a short payload is reported before a non-finite sample
            finite = finite and bool(np.isfinite(buf).all())
            vol[z] = buf
    if got < 4 * count:
        raise TruncatedPayloadError(
            f"{path}: expected {4 * count} payload bytes, got {got}"
        )
    if not finite:
        raise NonFiniteValueError(f"{path}: payload contains NaN or Inf samples")
    return vol


def write_volume(volume, path) -> None:
    """Write a volume as MIPVOL. Payload is cast to little-endian float32
    one z-slice at a time."""
    arr = np.asarray(volume, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    if arr.ndim != 3 or min(arr.shape) < 1:
        raise DimensionError(f"cannot write volume of shape {arr.shape}")
    if not all(np.isfinite(sl).all() for sl in arr):
        raise NonFiniteValueError(f"{path}: refusing to write NaN or Inf samples")
    nz, ny, nx = arr.shape
    with open(path, "wb") as f:
        f.write(f"{MAGIC} {nx} {ny} {nz}\n".encode("ascii"))
        for sl in arr:
            f.write(sl.astype("<f4", order="C"))


def export_pgm(field, path) -> None:
    """Write a field as binary 16-bit PGM (P5, maxval 65535, big-endian).

    Values are rescaled linearly from [min, max] to [0, 65535]; a constant
    field maps to all zeros.
    """
    u = as_field(field)
    lo = float(u.min())
    hi = float(u.max())
    if hi > lo:
        scaled = np.rint((u - lo) * (65535.0 / (hi - lo)))
    else:
        scaled = np.zeros_like(u)
    ny, nx = u.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{nx} {ny}\n65535\n".encode("ascii"))
        f.write(scaled.astype(">u2").tobytes())


def _fmt(value: float) -> str:
    # shortest decimal string that round-trips the double
    return np.format_float_positional(value, trim="-")


def export_profile_csv(field, row_index: int, path) -> None:
    """Write one row of a field as ``x,value`` CSV lines with a header."""
    u = as_field(field)
    if not 0 <= row_index < u.shape[0]:
        raise ValueError(f"row {row_index} outside field of height {u.shape[0]}")
    lines = ["x,value"]
    lines += [f"{x},{_fmt(v)}" for x, v in enumerate(u[row_index])]
    with open(path, "w", encoding="ascii") as f:
        f.write("\n".join(lines) + "\n")


def field_from_volume(volume) -> np.ndarray:
    """Collapse a 1-slice volume to a field; error on deeper stacks."""
    vol = as_volume(volume)
    if vol.shape[0] != 1:
        raise ValueError(f"expected a single-slice volume, got depth {vol.shape[0]}")
    return vol[0]
