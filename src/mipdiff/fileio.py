"""Volume and image file formats.

Volumes travel as MIPVOL files: one ASCII header line ``MIPVOL1 <nx> <ny> <nz>``
followed by ``nx*ny*nz`` little-endian float32 samples, x fastest, then y,
then z. In-memory arithmetic is float64; file payloads are 32-bit.
"""
from __future__ import annotations

import os
import stat

import numpy as np

from .fields import as_field

__all__ = [
    "VolumeIOError",
    "MagicMismatchError",
    "DimensionError",
    "TruncatedPayloadError",
    "NonFiniteValueError",
    "VolumeWriter",
    "iter_slices",
    "read_volume",
    "write_volume",
    "export_pgm",
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


# Payload bytes moved per read call: groups of whole z-slices,
# one slice when a slice alone is this large.
_IO_BYTES = 1 << 20
# A group holds at most 1/_IO_SHARE of the volume's slices, so the read
# buffer stays small beside the volume read.
_IO_SHARE = 8
# Smallest float64 magnitude that rounds to infinity as float32
# (2**128 - 2**103, half an ulp above the largest float32).
_F32_OVERFLOW = 2.0**128 - 2.0**103


def _group(nz: int, ny: int, nx: int) -> int:
    """Slices per read call: up to ``_IO_BYTES`` and ``nz // _IO_SHARE``, at least 1."""
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


def _payload(f, path, shape, digest):
    """Yield the payload's z-slices as float32 views of one reused buffer.

    The payload is read in groups of whole slices, and each group is
    checked before any slice of it is yielded, so no slice holding NaN or
    Inf is ever yielded. The first group is read into a buffer that grows
    by at most ``_IO_BYTES`` per read, so a stream's header, which no file
    size checks, sizes nothing by itself; every later group is read into
    that same buffer. From the first non-finite group on, the rest of the
    payload is only counted. Then a short payload raises, and else a
    non-finite one. ``digest`` also gets any bytes after the payload."""
    nz, ny, nx = shape
    slice_bytes = 4 * ny * nx
    rows = _group(nz, ny, nx)
    buf = bytearray(min(_IO_BYTES, rows * slice_bytes))
    flags = None
    got = 0
    finite = True
    for z0 in range(0, nz, rows):
        want = min(rows, nz - z0) * slice_bytes
        n = f.readinto(memoryview(buf)[:want])
        while n == len(buf) < want:  # only the first group grows the buffer
            buf += bytes(min(_IO_BYTES, want - n))
            n += f.readinto(memoryview(buf)[n:])
        got += n
        if digest is not None:
            digest.update(memoryview(buf)[:n])
        group = np.ndarray((n // slice_bytes, ny, nx), "<f4", buffer=buf)
        if flags is None:  # the first group is the largest
            flags = np.empty(group.shape, dtype=bool)
        finite = finite and bool(np.isfinite(group, out=flags[: len(group)]).all())
        if finite:
            yield from group
        if n < want:
            break
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


def _read_slices(path, digest):
    """The shape (nz, ny, nx) of the MIPVOL file at ``path``, read from its
    header, then the z-slices that ``iter_slices`` yields."""
    with open(path, "rb") as f:
        shape = _read_header(f, path, digest)
        yield shape
        yield from _payload(f, path, shape, digest)


def iter_slices(path, digest=None):
    """Yield the z-slices of a MIPVOL file as float32 (ny, nx) arrays.

    Each yielded array may be overwritten by a later slice; copy it to keep
    it. The file's checks are those of ``read_volume``: header errors, and a
    regular file shorter than its payload, raise at the first slice. No
    slice holding NaN or Inf is yielded: the reader stops yielding at the
    first group of slices that holds one, counts the rest of the payload,
    and raises for a short payload, or else for the non-finite sample; a
    short stream raises after the last whole slice that arrived.
    With ``digest`` (a ``hashlib`` object), every byte of the file, header
    and trailing bytes included, is fed to it, so a complete pass leaves
    the digest of the whole file.
    """
    slices = _read_slices(path, digest)
    next(slices)
    yield from slices


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
        if not stat.S_ISREG(os.fstat(f.fileno()).st_mode):
            # the slices share one buffer, so each is copied as it comes; the
            # volume is allocated once the stream has ended and passed the checks
            return np.array([sl.copy() for sl in slices], dtype=np.float64)
        vol = np.empty(shape)
        for z, sl in enumerate(slices):
            vol[z] = sl
    return vol


class VolumeWriter:
    """Write a MIPVOL file of ``shape`` (nz, ny, nx) slice by slice::

        with VolumeWriter(path, (nz, ny, nx)) as out:
            for sl in slices:
                out.write(sl)

    The header is written on entry. Each ``write`` takes one (ny, nx) slice
    or a (k, ny, nx) group, refuses it if it holds NaN, Inf or a sample that
    rounds to Inf as float32, and casts it to little-endian float32 one
    slice at a time, through one reused slice buffer. The file
    is written under a temporary name beside ``path`` and renamed to
    ``path`` only when the block ends without an exception and with all
    ``nz`` slices written; otherwise it is removed, so a failed write
    leaves no output and an existing ``path`` as it was. An existing
    ``path`` that is not a regular file (a FIFO, a device) is written in
    place.
    """

    def __init__(self, path, shape):
        shape = tuple(shape)
        if len(shape) != 3 or min(shape) < 1:
            raise DimensionError(f"cannot write volume of shape {shape}")
        self.path = path
        self.shape = shape

    def __enter__(self):
        nz, ny, nx = self.shape
        self._buf = np.empty((ny, nx), dtype="<f4")
        self._count = 0  # slices written
        self._open()
        try:
            self._file.write(f"{MAGIC} {nx} {ny} {nz}\n".encode("ascii"))
        except BaseException:
            self._discard()
            raise
        return self

    def _open(self) -> None:
        """Open the file the payload goes to: a new temporary file beside
        what ``path`` names (a symlink is kept, and its target replaced), or
        ``path`` itself when it exists and is not a regular file."""
        try:
            in_place = not stat.S_ISREG(os.stat(self.path).st_mode)
        except FileNotFoundError:
            in_place = False
        if in_place:
            self._tmp, self._file = None, open(self.path, "wb")
            return
        self._final = os.path.realpath(self.path)
        head, tail = os.path.split(self._final)
        n = 0
        while True:
            self._tmp = os.path.join(head, f".{tail}.{os.getpid()}.{n}.tmp")
            try:
                # mode 0o666 under the umask, as open(path, "wb") creates it
                fd = os.open(self._tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            except FileExistsError:
                n += 1
                continue
            except OSError as exc:
                # name the target, as open(path, "wb") would
                raise OSError(exc.errno, exc.strerror, os.fspath(self.path)) from None
            self._file = open(fd, "wb")
            return

    def write(self, slices) -> None:
        """Append one (ny, nx) slice or a (k, ny, nx) group of slices."""
        nz, ny, nx = self.shape
        arr = np.asarray(slices, dtype=np.float64)
        if arr.ndim == 2:
            arr = arr[None, :, :]
        if arr.ndim != 3 or arr.shape[1:] != (ny, nx):
            raise DimensionError(
                f"{self.path}: cannot write slices of shape {arr.shape} into {nx}x{ny}x{nz}"
            )
        if self._count + len(arr) > nz:
            raise DimensionError(f"{self.path}: more than {nz} slices written")
        # min/max propagate NaN, which fails both comparisons
        if not (-_F32_OVERFLOW < arr.min() and arr.max() < _F32_OVERFLOW):
            raise NonFiniteValueError(
                f"{self.path}: refusing to write NaN or Inf samples, "
                "or samples beyond float32 range"
            )
        for sl in arr:
            self._buf[...] = sl
            self._file.write(self._buf)
        self._count += len(arr)

    def _discard(self) -> None:
        self._file.close()
        if self._tmp is not None:
            try:
                os.unlink(self._tmp)
            except OSError:
                pass

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self._discard()
            return False
        try:
            nz = self.shape[0]
            if self._count < nz:
                raise DimensionError(f"{self.path}: {self._count} of {nz} slices written")
            self._file.close()
            if self._tmp is not None:
                os.replace(self._tmp, self._final)
        except BaseException:
            self._discard()
            raise
        return False


def write_volume(volume, path) -> None:
    """Write a volume, or a field as one slice, as MIPVOL through
    ``VolumeWriter``.

    Samples that are NaN, infinite, or round to infinity as float32 are
    refused before any payload is written, and leave ``path`` as it was.
    """
    arr = np.asarray(volume, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    with VolumeWriter(path, arr.shape) as out:
        out.write(arr)


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
