"""Volume and image file formats.

Volumes travel as MIPVOL files: one ASCII header line ``MIPVOL1 <nx> <ny> <nz>``
followed by ``nx*ny*nz`` little-endian float32 samples, x fastest, then y,
then z. In-memory arithmetic is float64; file payloads are 32-bit.
"""
from __future__ import annotations

import os
import stat
import threading
from collections import deque
from contextlib import contextmanager, suppress
from contextvars import ContextVar

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


class _Hasher:
    """A daemon thread that feeds ``digest`` the byte views ``put`` hands
    it, in the order they were put.

    ``wait`` blocks until the oldest update not yet waited for has
    finished; ``join`` stops the thread once every update has finished and
    re-raises what the digest raised, if anything. Only the first ``join``
    does anything."""

    def __init__(self, digest):
        self._digest = digest
        self._todo = deque()
        self._ready = threading.Semaphore(0)  # views put, not yet taken
        self._done = threading.Semaphore(0)  # updates finished, not yet waited for
        self._error = None
        self._thread = threading.Thread(target=self._run, name="mipdiff-hash", daemon=True)
        self._thread.start()

    def _run(self):
        while True:
            self._ready.acquire()
            view = self._todo.popleft()
            if view is None:
                return
            if self._error is None:  # after an error, views are only acknowledged
                try:
                    self._digest.update(view)
                except BaseException as exc:
                    self._error = exc
            self._done.release()

    def put(self, view):
        self._todo.append(view)
        self._ready.release()

    def wait(self):
        self._done.acquire()

    def join(self):
        if self._thread is None:
            return
        self.put(None)
        self._thread.join()
        self._thread = None
        if self._error is not None:
            raise self._error


def _payload(f, path, shape, digest):
    """Yield the payload's z-slices as read-only float32 views of the read
    buffers.

    The payload is read in groups of whole slices, and each group is
    checked before any slice of it is yielded, so no slice holding NaN or
    Inf is ever yielded. The first group is read into a buffer that grows
    by at most ``_IO_BYTES`` per read, so a stream's header, which no file
    size checks, sizes nothing by itself. Without ``digest``, or when the
    whole payload fits in one read of ``_IO_BYTES``, every later group is
    read into that same buffer and ``digest`` is fed inline. Otherwise a
    ``_Hasher`` thread feeds ``digest`` each group in file order while the
    next group is checked, yielded and read into a second buffer of the
    first one's size; the groups alternate between the two, and a buffer is
    refilled only once its group is hashed. From the first non-finite group
    on, the rest of the payload is only counted. Then a short payload
    raises, and else a non-finite one. ``digest`` also gets any bytes after
    the payload, after the last group; the thread has been joined by then,
    and on every other way out of the generator."""
    nz, ny, nx = shape
    slice_bytes = 4 * ny * nx
    rows = _group(nz, ny, nx)
    buf = bytearray(min(_IO_BYTES, rows * slice_bytes))
    spare = None  # with a hasher, the buffer of the group before
    # a thread pays for itself only over more than one read
    hasher = _Hasher(digest) if digest is not None and nz * slice_bytes > _IO_BYTES else None
    flags = None
    got = 0
    finite = True
    try:
        for z0 in range(0, nz, rows):
            want = min(rows, nz - z0) * slice_bytes
            if hasher is not None and z0:
                if spare is None:  # the first group has arrived whole, so a stream sized it
                    spare = bytearray(len(buf))
                else:
                    hasher.wait()  # for the group two before, which spare holds
                buf, spare = spare, buf
            n = f.readinto(memoryview(buf)[:want])
            while n == len(buf) < want:  # only the first group grows the buffer
                buf += bytes(min(_IO_BYTES, want - n))
                n += f.readinto(memoryview(buf)[n:])
            got += n
            if hasher is not None:
                hasher.put(memoryview(buf)[:n])
            elif digest is not None:
                digest.update(memoryview(buf)[:n])
            group = np.ndarray((n // slice_bytes, ny, nx), "<f4", buffer=buf)
            group.flags.writeable = False  # what is yielded is what is hashed
            if flags is None:  # the first group is the largest
                flags = np.empty(group.shape, dtype=bool)
            finite = finite and bool(np.isfinite(group, out=flags[: len(group)]).all())
            if finite:
                yield from group
            if n < want:
                break
    finally:
        if hasher is not None:
            hasher.join()
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

    Each yielded array is a read-only view of a read buffer that a later
    group of slices overwrites; copy it to keep it. There is one buffer,
    or two when ``digest`` is given and the payload is more than one read
    of ``_IO_BYTES``: then a worker thread hashes each group while the
    next is read into the other buffer (see ``_payload``). The file's
    checks are those of ``read_volume``: header errors, and a regular file
    shorter than its payload, raise at the first slice. No
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
            # the slices are views of reused buffers, so each is copied as it
            # comes; the volume is allocated once the stream has ended and
            # passed the checks
            return np.array([sl.copy() for sl in slices], dtype=np.float64)
        vol = np.empty(shape)
        for z, sl in enumerate(slices):
            vol[z] = sl
    return vol


_held = ContextVar("_held", default=None)  # (temporary, target) pairs for _commit


@contextmanager
def _replacing(path):
    """Yield a binary file that replaces ``path`` once the block ends cleanly:
    a new temporary file beside what ``path`` names (mode 0o666 under the
    umask; a symlink is kept and its target replaced), closed when the block
    ends, then renamed onto its target, inside ``_commit`` when that block
    ends, or removed on an exception. A ``path`` that exists and is not a
    regular file (a FIFO, a device, a directory) is opened in place."""
    try:
        in_place = not stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        in_place = False
    if in_place:
        with open(path, "wb") as f:
            yield f
        return
    final = os.path.realpath(path)
    head, tail = os.path.split(final)
    n = 0
    while True:
        tmp = os.path.join(head, f".{tail}.{os.getpid()}.{n}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            n += 1
        except OSError as exc:  # name the target, as open(path, "wb") would
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with open(fd, "wb") as f:
            yield f
        held = _held.get()
        if held is None:
            os.replace(tmp, final)
        else:
            held.append((tmp, final))
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


@contextmanager
def _commit():
    """Hold back the renames of the files ``_replacing`` closes in the block
    and make them, in the order the files were closed, when the block ends
    cleanly. On an exception every file held back is removed instead."""
    held = []
    token = _held.set(held)
    try:
        yield
        while held:
            os.replace(*held[0])
            del held[0]
    finally:
        _held.reset(token)
        for tmp, _ in held:
            with suppress(OSError):
                os.unlink(tmp)


def _write_text(path, lines) -> None:
    """Write ``lines``, each ended by a newline, as UTF-8 through ``_replacing``."""
    with _replacing(path) as f:
        f.write("".join(f"{line}\n" for line in lines).encode())


class VolumeWriter:
    """Write a MIPVOL file of ``shape`` (nz, ny, nx) slice by slice::

        with VolumeWriter(path, (nz, ny, nx)) as out:
            for sl in slices:
                out.write(sl)

    Each ``write`` takes one (ny, nx) slice or a (k, ny, nx) group, refuses
    it if it holds NaN, Inf or a sample that rounds to Inf as float32, and
    casts it to little-endian float32 one slice at a time, through one
    reused slice buffer; the first also writes the header. The file is
    opened on entry through ``_replacing``, and a block that raises or
    writes fewer than ``nz`` slices leaves no output and ``path`` as it was.
    """

    def __init__(self, path, shape):
        shape = tuple(shape)
        if len(shape) != 3 or min(shape) < 1:
            raise DimensionError(f"cannot write volume of shape {shape}")
        self.path = path
        self.shape = shape

    def __enter__(self):
        self._buf = np.empty(self.shape[1:], dtype="<f4")
        self._count = 0  # slices written
        self._target = _replacing(self.path)
        self._file = self._target.__enter__()
        return self

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
        if self._count == 0:
            self._file.write(f"{MAGIC} {nx} {ny} {nz}\n".encode("ascii"))
        for sl in arr:
            self._buf[...] = sl
            self._file.write(self._buf)
        self._count += len(arr)

    def __exit__(self, exc_type, exc, tb):
        nz = self.shape[0]
        if exc_type is None and self._count < nz:
            exc = DimensionError(f"{self.path}: {self._count} of {nz} slices written")
            self._target.__exit__(DimensionError, exc, None)
            raise exc
        return self._target.__exit__(exc_type, exc, tb)


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
    with _replacing(path) as f:
        f.write(f"P5\n{nx} {ny}\n65535\n".encode("ascii"))
        f.write(scaled.astype(">u2").tobytes())
