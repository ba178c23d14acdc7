"""Volume and image file formats.

Volumes travel as MIPVOL files: one ASCII header line ``MIPVOL1 <nx> <ny> <nz>``
followed by ``nx*ny*nz`` little-endian float32 samples, x fastest, then y,
then z. In-memory arithmetic is float64; file payloads are 32-bit.
"""
from __future__ import annotations

import os
import stat

import numpy as np

from .fields import as_field, as_volume

__all__ = [
    "VolumeIOError",
    "MagicMismatchError",
    "DimensionError",
    "TruncatedPayloadError",
    "NonFiniteValueError",
    "iter_slices",
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


# Payload bytes moved per readinto/write call: groups of whole z-slices,
# one slice when a slice alone is this large.
_IO_BYTES = 1 << 20
# A group holds at most 1/_IO_SHARE of the volume's slices, so the I/O
# buffer stays small beside the volume read or written.
_IO_SHARE = 8
# Smallest float64 magnitude that rounds to infinity as float32
# (2**128 - 2**103, half an ulp above the largest float32).
_F32_OVERFLOW = 2.0**128 - 2.0**103


def _group(nz: int, ny: int, nx: int) -> int:
    """Slices per I/O call: up to ``_IO_BYTES`` and ``nz // _IO_SHARE``, at least 1."""
    return max(1, min(_IO_BYTES // (4 * ny * nx), nz // _IO_SHARE))


def _read_header(f, path, digest) -> tuple[int, int, int]:
    """Check the header line and return the volume shape (nz, ny, nx).

    A regular file too short for the payload the header promises raises
    here, before anything is allocated for it."""
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
    st = os.fstat(f.fileno())
    # only a regular file has a size to check; a stream cannot even tell()
    if stat.S_ISREG(st.st_mode) and st.st_size - f.tell() < 4 * nx * ny * nz:
        raise TruncatedPayloadError(
            f"{path}: expected {4 * nx * ny * nz} payload bytes, got {st.st_size - f.tell()}"
        )
    if digest is not None:
        digest.update(header)
    return nz, ny, nx


def _regular(f) -> bool:
    return stat.S_ISREG(os.fstat(f.fileno()).st_mode)


def _take(f, size: int) -> bytearray:
    """Up to ``size`` bytes of the stream ``f``, read in chunks of at most
    ``_IO_BYTES``, so nothing larger than what has arrived is allocated."""
    data = bytearray()
    while len(data) < size and (chunk := f.read(min(_IO_BYTES, size - len(data)))):
        data += chunk
    return data


def _file_groups(f, shape):
    """A regular file's payload in groups of whole slices, read into one
    reused float32 buffer: yield the bytes of each read and the slices it
    completed, and stop after a short read."""
    nz, ny, nx = shape
    buf = np.empty((_group(nz, ny, nx), ny, nx), dtype="<f4")
    raw = memoryview(buf).cast("B")
    slice_bytes = 4 * ny * nx
    for z0 in range(0, nz, len(buf)):
        want = min(len(buf), nz - z0) * slice_bytes
        n = f.readinto(raw[:want])
        yield raw[:n], buf[: n // slice_bytes]
        if n < want:
            return


def _stream_groups(f, shape):
    """A stream's payload in the groups of ``_file_groups``. A stream has no
    size to check against the header, so each group is taken in before it
    is viewed as slices, and nothing is sized by the header alone; the
    slices stay valid after later groups."""
    nz, ny, nx = shape
    rows = _group(nz, ny, nx)
    slice_bytes = 4 * ny * nx
    for z0 in range(0, nz, rows):
        want = min(rows, nz - z0) * slice_bytes
        data = _take(f, want)
        whole = len(data) // slice_bytes
        yield memoryview(data), np.ndarray((whole, ny, nx), "<f4", buffer=data)
        if len(data) < want:
            return


def _payload(f, path, shape, digest):
    """Yield the payload's z-slices, checked for finiteness; then raise for
    a short payload, and after that for a non-finite sample. ``digest``
    also gets any bytes after the payload."""
    nz, ny, nx = shape
    groups = (_file_groups if _regular(f) else _stream_groups)(f, shape)
    flags = None
    got = 0
    finite = True
    for raw, group in groups:
        got += raw.nbytes
        if digest is not None:
            digest.update(raw)
        if flags is None:  # the first group is the largest
            flags = np.empty(group.shape, dtype=bool)
        finite = finite and bool(np.isfinite(group, out=flags[: len(group)]).all())
        yield from group
    if digest is not None:
        for block in iter(lambda: f.read(1 << 16), b""):
            digest.update(block)
    # a short payload is reported before a non-finite sample
    if got < 4 * nx * ny * nz:
        raise TruncatedPayloadError(
            f"{path}: expected {4 * nx * ny * nz} payload bytes, got {got}"
        )
    if not finite:
        raise NonFiniteValueError(f"{path}: payload contains NaN or Inf samples")


def iter_slices(path, digest=None):
    """Yield the z-slices of a MIPVOL file as float32 (ny, nx) arrays.

    Each yielded array may be overwritten by a later slice; copy it to keep
    it. The file's checks are those of ``read_volume``: header errors, and a
    regular file shorter than its payload, raise at the first slice; a
    non-finite payload, or a short one from a stream, after the last one.
    With ``digest`` (a ``hashlib`` object), every byte of the file, header
    and trailing bytes included, is fed to it, so a complete pass leaves
    the digest of the whole file.
    """
    with open(path, "rb") as f:
        yield from _payload(f, path, _read_header(f, path, digest), digest)


def read_volume(path, digest=None) -> np.ndarray:
    """Read a MIPVOL file into a float64 array of shape (nz, ny, nx).

    The slices of ``iter_slices`` are copied into the result, so no
    whole-volume temporary is built beside it; ``digest`` is as there. A
    stream's result is allocated only after its whole payload has arrived
    and passed the checks.
    """
    with open(path, "rb") as f:
        shape = _read_header(f, path, digest)
        slices = _payload(f, path, shape, digest)
        if not _regular(f):
            # allocated once the stream has ended and every check passed
            return np.array(list(slices), dtype=np.float64)
        vol = np.empty(shape)
        for z, sl in enumerate(slices):
            vol[z] = sl
    return vol


def write_volume(volume, path) -> None:
    """Write a volume as MIPVOL. Payload is cast to little-endian float32
    in groups of whole z-slices.

    Samples that are NaN, infinite, or round to infinity as float32 are
    refused before the file is opened.
    """
    arr = np.asarray(volume, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    if arr.ndim != 3 or min(arr.shape) < 1:
        raise DimensionError(f"cannot write volume of shape {arr.shape}")
    nz, ny, nx = arr.shape
    step = _group(nz, ny, nx)
    groups = [arr[z0 : z0 + step] for z0 in range(0, nz, step)]
    # min/max propagate NaN, which fails both comparisons
    if not all(-_F32_OVERFLOW < g.min() and g.max() < _F32_OVERFLOW for g in groups):
        raise NonFiniteValueError(
            f"{path}: refusing to write NaN or Inf samples, or samples beyond float32 range"
        )
    buf = np.empty((step, ny, nx), dtype="<f4")
    with open(path, "wb") as f:
        f.write(f"{MAGIC} {nx} {ny} {nz}\n".encode("ascii"))
        for g in groups:
            out = buf[: len(g)]
            out[...] = g
            f.write(out)


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
