"""Volume container format, PGM export, and profile CSV transcription."""
import contextlib
import hashlib
import os
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import fed_fifo
from mipdiff.fileio import (
    DimensionError,
    MagicMismatchError,
    NonFiniteValueError,
    TruncatedPayloadError,
    VolumeIOError,
    VolumeWriter,
    export_pgm,
    iter_slices,
    read_volume,
    write_volume,
)
from mipdiff import fileio
from mipdiff.phantom import default_venous_spec, generate


def write_raw(path, header: bytes, payload: bytes):
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload)


class TestVolumeRoundTrip:
    def test_incrementing_volume_round_trips_bitwise(self, tmp_path):
        vol = np.arange(24.0).reshape(2, 3, 4)
        path = tmp_path / "v.vol"
        write_volume(vol, path)
        back = read_volume(path)
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back, vol)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "v.vol"
        write_volume(np.zeros((2, 3, 4)), path)
        raw = path.read_bytes()
        assert raw.startswith(b"MIPVOL1 4 3 2\n")
        assert len(raw) == len(b"MIPVOL1 4 3 2\n") + 4 * 24

    def test_payload_is_little_endian_float32_x_fastest(self, tmp_path):
        vol = np.zeros((1, 2, 3))
        vol[0, 0] = [1.0, 2.0, 3.0]
        vol[0, 1] = [4.0, 5.0, 6.0]
        path = tmp_path / "v.vol"
        write_volume(vol, path)
        payload = path.read_bytes().split(b"\n", 1)[1]
        samples = np.frombuffer(payload, dtype="<f4")
        np.testing.assert_array_equal(samples, [1, 2, 3, 4, 5, 6])

    def test_field_written_as_single_slice(self, tmp_path):
        path = tmp_path / "f.vol"
        write_volume(np.ones((3, 5)), path)
        back = read_volume(path)
        assert back.shape == (1, 3, 5)
        np.testing.assert_array_equal(back[0], np.ones((3, 5)))

    def test_write_rejects_nan(self, tmp_path):
        vol = np.zeros((1, 2, 2))
        vol[0, 0, 0] = np.nan
        with pytest.raises(NonFiniteValueError):
            write_volume(vol, tmp_path / "bad.vol")


class TestVolumeErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.vol"
        write_raw(path, b"BADMAGIC 2 2 1\n", b"\x00" * 16)
        with pytest.raises(MagicMismatchError):
            read_volume(path)

    def test_missing_header_newline(self, tmp_path):
        path = tmp_path / "bad.vol"
        path.write_bytes(b"MIPVOL1 2 2 1" + b"\x00" * 300)
        with pytest.raises(MagicMismatchError):
            read_volume(path)

    def test_wrong_token_count(self, tmp_path):
        path = tmp_path / "bad.vol"
        write_raw(path, b"MIPVOL1 2 2\n", b"\x00" * 16)
        with pytest.raises(MagicMismatchError):
            read_volume(path)

    def test_non_integer_dimension(self, tmp_path):
        path = tmp_path / "bad.vol"
        write_raw(path, b"MIPVOL1 2 x 1\n", b"\x00" * 16)
        with pytest.raises(DimensionError):
            read_volume(path)

    def test_non_positive_dimension(self, tmp_path):
        path = tmp_path / "bad.vol"
        write_raw(path, b"MIPVOL1 2 0 1\n", b"")
        with pytest.raises(DimensionError):
            read_volume(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "bad.vol"
        write_raw(path, b"MIPVOL1 2 2 1\n", b"\x00" * 15)
        with pytest.raises(TruncatedPayloadError):
            read_volume(path)

    def test_non_finite_payload(self, tmp_path):
        path = tmp_path / "bad.vol"
        payload = np.array([1.0, np.inf, 0.0, 0.0], dtype="<f4").tobytes()
        write_raw(path, b"MIPVOL1 2 2 1\n", payload)
        with pytest.raises(NonFiniteValueError):
            read_volume(path)

    def test_errors_share_base_class(self):
        for exc in (MagicMismatchError, DimensionError, TruncatedPayloadError,
                    NonFiniteValueError):
            assert issubclass(exc, VolumeIOError)

    def test_error_names_path(self, tmp_path):
        path = tmp_path / "named.vol"
        write_raw(path, b"BADMAGIC 1 1 1\n", b"\x00" * 4)
        with pytest.raises(MagicMismatchError, match="named.vol"):
            read_volume(path)


class TestSliceBoundaries:
    """Volumes are read and written one z-slice at a time."""

    @pytest.mark.parametrize("shape", [(1, 5, 7), (7, 3, 11)])
    def test_odd_shapes_round_trip(self, tmp_path, shape):
        vol = np.random.default_rng(3).normal(size=shape).astype("<f4").astype(np.float64)
        path = tmp_path / "v.vol"
        write_volume(vol, path)
        nz, ny, nx = shape
        raw = path.read_bytes()
        header = f"MIPVOL1 {nx} {ny} {nz}\n".encode("ascii")
        assert raw == header + vol.astype("<f4").tobytes()
        np.testing.assert_array_equal(read_volume(path), vol)

    def test_non_contiguous_volume_written_in_c_order(self, tmp_path):
        vol = np.arange(2 * 3 * 5, dtype=np.float64).reshape(5, 3, 2).transpose(2, 1, 0)
        path = tmp_path / "t.vol"
        write_volume(vol, path)
        np.testing.assert_array_equal(read_volume(path), vol)

    def test_nan_in_last_slice(self, tmp_path):
        vol = np.ones((7, 3, 5), dtype="<f4")
        vol[-1, -1, -1] = np.nan
        path = tmp_path / "nan.vol"
        write_raw(path, b"MIPVOL1 5 3 7\n", vol.tobytes())
        with pytest.raises(NonFiniteValueError, match="NaN or Inf"):
            read_volume(path)

    def test_write_rejects_nan_in_last_slice_before_creating_file(self, tmp_path):
        vol = np.ones((7, 3, 5))
        vol[-1, 0, 0] = np.nan
        path = tmp_path / "nan.vol"
        with pytest.raises(NonFiniteValueError):
            write_volume(vol, path)
        assert not path.exists()

    def test_one_byte_short_in_last_slice(self, tmp_path):
        payload = np.ones((7, 3, 5), dtype="<f4").tobytes()
        path = tmp_path / "short.vol"
        write_raw(path, b"MIPVOL1 5 3 7\n", payload[:-1])
        with pytest.raises(TruncatedPayloadError, match="expected 420 payload bytes, got 419"):
            read_volume(path)

    def test_truncation_reported_before_non_finite(self, tmp_path):
        vol = np.ones((3, 2, 2), dtype="<f4")
        vol[0, 0, 0] = np.inf
        path = tmp_path / "both.vol"
        write_raw(path, b"MIPVOL1 2 2 3\n", vol.tobytes()[:-4])
        with pytest.raises(TruncatedPayloadError, match="got 44"):
            read_volume(path)

    def test_trailing_bytes_ignored(self, tmp_path):
        vol = np.arange(7 * 3 * 5, dtype="<f4").reshape(7, 3, 5)
        path = tmp_path / "tail.vol"
        write_raw(path, b"MIPVOL1 5 3 7\n", vol.tobytes() + b"trailing junk")
        np.testing.assert_array_equal(read_volume(path), vol)


class TestSliceReader:
    """One reader serves ``iter_slices`` and ``read_volume``; payloads move
    in groups of whole slices, and a digest sees every byte of the file."""

    @pytest.fixture
    def small_groups(self, monkeypatch):
        # 2 slices of 3x5 float32 (60 bytes each) per I/O call
        monkeypatch.setattr(fileio, "_IO_BYTES", 120)

    def test_group_sizes(self):
        assert fileio._group(96, 512, 512) == 1
        assert fileio._group(64, 256, 256) == 4
        assert fileio._group(32, 64, 64) == 4
        assert fileio._group(1, 4, 4) == 1
        assert fileio._group(10**6, 4, 4) == fileio._IO_BYTES // 64

    @pytest.mark.parametrize("nz", [1, 7, 16, 17, 19])
    def test_grouped_round_trip(self, tmp_path, small_groups, nz):
        vol = np.random.default_rng(nz).normal(size=(nz, 3, 5)).astype("<f4")
        path = tmp_path / "v.vol"
        write_volume(vol.astype(np.float64), path)
        assert path.read_bytes() == b"MIPVOL1 5 3 %d\n" % nz + vol.tobytes()
        slices = [sl.copy() for sl in iter_slices(path)]
        assert all(sl.dtype == np.float32 and sl.shape == (3, 5) for sl in slices)
        np.testing.assert_array_equal(np.stack(slices), vol)
        np.testing.assert_array_equal(read_volume(path), vol)

    @staticmethod
    @contextlib.contextmanager
    def source(tmp_path, data: bytes, fifo: bool):
        """A regular file or, with ``fifo``, a fed FIFO holding ``data``."""
        if fifo:
            with fed_fifo(tmp_path / "v.fifo", data) as path:
                yield path
        else:
            path = tmp_path / "v.vol"
            path.write_bytes(data)
            yield path

    @pytest.mark.parametrize("fifo", [False, True], ids=["file", "fifo"])
    def test_slices_share_one_buffer(self, tmp_path, small_groups, fifo):
        vol = np.arange(17 * 15, dtype="<f4").reshape(17, 3, 5)
        with self.source(tmp_path, b"MIPVOL1 5 3 17\n" + vol.tobytes(), fifo) as path:
            slices = [(sl.base.ctypes.data, sl.copy()) for sl in iter_slices(path)]
        assert len({base for base, _ in slices}) == 1
        np.testing.assert_array_equal(np.stack([sl for _, sl in slices]), vol)

    @pytest.mark.parametrize("fifo", [False, True], ids=["file", "fifo"])
    def test_slice_larger_than_one_read(self, tmp_path, monkeypatch, fifo):
        # 60-byte slices read 16 bytes at a time: the buffer grows over the
        # first slice, then every later slice is read into it
        monkeypatch.setattr(fileio, "_IO_BYTES", 16)
        vol = np.random.default_rng(5).normal(size=(9, 3, 5)).astype("<f4")
        data = b"MIPVOL1 5 3 9\n" + vol.tobytes()
        h = hashlib.sha256()
        with self.source(tmp_path, data, fifo) as path:
            slices = [sl.copy() for sl in iter_slices(path, h)]
        np.testing.assert_array_equal(np.stack(slices), vol)
        assert h.hexdigest() == hashlib.sha256(data).hexdigest()
        with fed_fifo(tmp_path / "short.fifo", data[:-8]) as path:
            with pytest.raises(TruncatedPayloadError, match="expected 540 payload bytes, got 532"):
                read_volume(path)
        with fed_fifo(tmp_path / "first.fifo", data[:14 + 40]) as path:
            with pytest.raises(TruncatedPayloadError, match="got 40$"):
                read_volume(path)

    def test_header_error_raised_at_first_slice(self, tmp_path):
        path = tmp_path / "bad.vol"
        write_raw(path, b"BADMAGIC 2 2 1\n", b"\x00" * 16)
        slices = iter_slices(path)
        with pytest.raises(MagicMismatchError):
            next(slices)

    @pytest.mark.parametrize("cut", [4, 60, 64, 124])
    def test_truncated_after_nan_slice(self, tmp_path, small_groups, cut):
        vol = np.ones((17, 3, 5), dtype="<f4")
        vol[0, 1, 1] = np.nan
        vol[16, 0, 0] = np.inf
        path = tmp_path / "both.vol"
        payload = vol.tobytes()[:-cut]
        write_raw(path, b"MIPVOL1 5 3 17\n", payload)
        match = f"expected 1020 payload bytes, got {len(payload)}"
        with pytest.raises(TruncatedPayloadError, match=match):
            read_volume(path)
        with pytest.raises(TruncatedPayloadError, match=match):
            for _ in iter_slices(path):
                pass

    def test_short_stream_raised_after_last_slice(self, tmp_path, small_groups):
        # a FIFO has no size to check up front, so the payload count catches it
        path = tmp_path / "v.fifo"
        os.mkfifo(path)
        payload = np.ones((5, 3, 5), dtype="<f4").tobytes()[:-8]
        writer = threading.Thread(target=write_raw, args=(path, b"MIPVOL1 5 3 5\n", payload))
        writer.start()
        try:
            slices = iter_slices(path)
            for _ in range(4):
                next(slices)
            with pytest.raises(TruncatedPayloadError, match="expected 300 payload bytes, got 292"):
                next(slices)
        finally:
            writer.join()

    @pytest.mark.parametrize("tail", [b"", b"trailing junk" * 10000])
    def test_stream_round_trip(self, tmp_path, small_groups, tail):
        vol = np.arange(7 * 15, dtype="<f4").reshape(7, 3, 5)
        raw = vol.tobytes() + tail
        want = hashlib.sha256(b"MIPVOL1 5 3 7\n" + raw).hexdigest()
        h = hashlib.sha256()
        with fed_fifo(tmp_path / "a.fifo", b"MIPVOL1 5 3 7\n" + raw) as path:
            got = read_volume(path, h)
        assert got.dtype == np.float64 and got.tobytes() == vol.astype(np.float64).tobytes()
        assert h.hexdigest() == want
        h = hashlib.sha256()
        with fed_fifo(tmp_path / "b.fifo", b"MIPVOL1 5 3 7\n" + raw) as path:
            slices = [sl.copy() for sl in iter_slices(path, h)]
        np.testing.assert_array_equal(np.stack(slices), vol)
        assert h.hexdigest() == want

    def test_short_stream_read_volume(self, tmp_path, small_groups):
        vol = np.ones((5, 3, 5), dtype="<f4")
        vol[0, 0, 0] = np.nan
        payload = vol.tobytes()[:-8]
        with fed_fifo(tmp_path / "v.fifo", b"MIPVOL1 5 3 5\n" + payload) as path:
            with pytest.raises(TruncatedPayloadError, match="expected 300 payload bytes, got 292"):
                read_volume(path)
        # whole slices came, but the volume the header promises is never
        # allocated: the stream is counted first
        with fed_fifo(tmp_path / "w.fifo", b"MIPVOL1 5 3 10000000000000\n" + payload) as path:
            tracemalloc.start()
            try:
                with pytest.raises(TruncatedPayloadError, match="got 292$"):
                    read_volume(path)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 2**16

    def test_non_finite_raised_after_last_slice(self, tmp_path, small_groups):
        # groups of 2 slices: no slice of the group holding the NaN is
        # yielded, from a file or a stream, and the error is the reader's
        for z, finite_slices in ((1, 0), (16, 16)):  # the first group, the last
            vol = np.ones((17, 3, 5), dtype="<f4")
            vol[z, 1, 2] = np.nan
            for fifo in (False, True):
                with self.source(tmp_path, b"MIPVOL1 5 3 17\n" + vol.tobytes(), fifo) as path:
                    yielded = []
                    with pytest.raises(NonFiniteValueError,
                                       match=f"{path}: payload contains NaN or Inf samples$"):
                        for sl in iter_slices(path):
                            yielded.append(bool(np.isfinite(sl).all()))
                assert yielded == [True] * finite_slices
                os.remove(path)

    @pytest.mark.parametrize("tail", [b"", b"x", b"trailing junk" * 10000])
    def test_digest_is_whole_file_sha256(self, tmp_path, small_groups, tail):
        vol = np.arange(7 * 15, dtype="<f4").reshape(7, 3, 5)
        path = tmp_path / "tail.vol"
        write_raw(path, b"MIPVOL1 5 3 7\n", vol.tobytes() + tail)
        want = hashlib.sha256(path.read_bytes()).hexdigest()
        h = hashlib.sha256()
        np.testing.assert_array_equal(read_volume(path, h), vol)
        assert h.hexdigest() == want
        h = hashlib.sha256()
        for _ in iter_slices(path, h):
            pass
        assert h.hexdigest() == want

    class SlowDigest:
        """A sha256 that sleeps before each update, so a buffer refilled
        before its update has run would change the digest."""

        def __init__(self):
            self._h = hashlib.sha256()

        def update(self, data):
            time.sleep(0.002)
            self._h.update(data)

        def hexdigest(self):
            return self._h.hexdigest()

    @pytest.mark.parametrize("tail", [b"", b"trailing junk" * 10000], ids=["no tail", "tail"])
    @pytest.mark.parametrize("fifo", [False, True], ids=["file", "fifo"])
    def test_hashed_groups_alternate_two_buffers(self, tmp_path, small_groups, fifo, tail):
        # 17 slices of 60 bytes in groups of 2: a thread hashes each group
        # while the next one is read into the other buffer
        vol = np.random.default_rng(17).normal(size=(17, 3, 5)).astype("<f4")
        data = b"MIPVOL1 5 3 17\n" + vol.tobytes() + tail
        h = self.SlowDigest()
        with self.source(tmp_path, data, fifo) as path:
            slices = [(sl.base.ctypes.data, sl.copy()) for sl in iter_slices(path, h)]
        assert h.hexdigest() == hashlib.sha256(data).hexdigest()
        assert len({base for base, _ in slices}) == 2
        np.testing.assert_array_equal(np.stack([sl for _, sl in slices]), vol)

    def test_concurrent_hashed_readers(self, tmp_path, small_groups):
        # more readers than cores, each with its own hash thread, switching
        # threads often: a lost or early buffer handoff changes a digest
        vols = [np.random.default_rng(k).normal(size=(17, 3, 5)).astype("<f4") for k in range(6)]
        datas = [b"MIPVOL1 5 3 17\n" + v.tobytes() for v in vols]
        for k, data in enumerate(datas):
            (tmp_path / f"v{k}.vol").write_bytes(data)
        results = [None] * len(vols)

        def read(k):
            h = hashlib.sha256()
            for _ in range(20):
                slices = [sl.copy() for sl in iter_slices(tmp_path / f"v{k}.vol", h)]
            results[k] = (h.hexdigest(), np.stack(slices))

        start = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            readers = [threading.Thread(target=read, args=(k,)) for k in range(len(vols))]
            for t in readers:
                t.start()
            for t in readers:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in readers)
        assert threading.active_count() == start
        for (digest, got), vol, data in zip(results, vols, datas):
            assert digest == hashlib.sha256(data * 20).hexdigest()
            np.testing.assert_array_equal(got, vol)

    def test_hashed_slices_are_read_only(self, tmp_path, small_groups):
        # a consumer cannot change a group before the thread hashes it
        path = tmp_path / "v.vol"
        write_volume(np.ones((17, 3, 5)), path)
        for sl in iter_slices(path, hashlib.sha256()):
            with pytest.raises(ValueError, match="read-only"):
                sl[0, 0] = 2.0

    @pytest.mark.parametrize("case", [
        "complete", "closed after one slice", "truncated file", "nan group", "short fifo",
        "nan group, short fifo",
    ])
    def test_hash_thread_joined_on_every_exit(self, tmp_path, small_groups, case):
        vol = np.ones((17, 3, 5), dtype="<f4")
        if "nan" in case:
            vol[4, 1, 2] = np.nan
        data = b"MIPVOL1 5 3 17\n" + vol.tobytes()
        if "short" in case or "truncated" in case:
            data = data[:-8]
        start = threading.active_count()
        h = hashlib.sha256()
        with self.source(tmp_path, data, "fifo" in case) as path:
            slices = iter_slices(path, h)
            if case == "complete":
                assert sum(1 for _ in slices) == 17
                assert h.hexdigest() == hashlib.sha256(data).hexdigest()
            elif case == "closed after one slice":
                next(slices)
                assert threading.active_count() == start + 1
                slices.close()
            elif case == "nan group":
                yielded = []
                with pytest.raises(NonFiniteValueError, match="contains NaN or Inf samples$"):
                    for sl in slices:
                        yielded.append(sl)
                assert len(yielded) == 4  # the groups before the NaN's
            else:  # today's order: a short payload before a non-finite sample
                with pytest.raises(TruncatedPayloadError,
                                   match="expected 1020 payload bytes, got 1012$"):
                    for _ in slices:
                        pass
        assert threading.active_count() == start

    def test_digest_error_raised_by_the_reader(self, tmp_path, small_groups):
        class Failing:
            calls = 0

            def update(self, data):
                self.calls += 1
                if self.calls == 3:  # the header, then the second group
                    raise RuntimeError("digest failed")

        path = tmp_path / "v.vol"
        write_volume(np.ones((17, 3, 5)), path)
        start = threading.active_count()
        with pytest.raises(RuntimeError, match="digest failed"):
            for _ in iter_slices(path, Failing()):
                pass
        assert threading.active_count() == start

    def test_one_read_starts_no_thread(self, tmp_path, small_groups, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("thread started")

        monkeypatch.setattr(threading, "Thread", refuse)
        for nz in (1, 2):  # payloads of 60 and 120 bytes, at most one read
            vol = np.arange(nz * 15, dtype="<f4").reshape(nz, 3, 5)
            path = tmp_path / f"v{nz}.vol"
            write_raw(path, b"MIPVOL1 5 3 %d\n" % nz, vol.tobytes() + b"tail")
            h = hashlib.sha256()
            np.testing.assert_array_equal(read_volume(path, h), vol)
            assert h.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()
        # and no digest, no thread, however many reads
        write_volume(np.ones((17, 3, 5)), path)
        assert sum(1 for _ in iter_slices(path)) == 17


class TestFloat32Range:
    """``write_volume`` refuses samples that float32 would turn into Inf."""

    LIMIT = 2.0**128 - 2.0**103  # midpoint between float32's max and 2**128

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_just_inside_rounds_to_float32_max(self, tmp_path, sign):
        vol = np.zeros((2, 2, 3))
        vol[1, 1, 2] = sign * np.nextafter(self.LIMIT, 0.0)
        path = tmp_path / "big.vol"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write_volume(vol, path)
        back = read_volume(path)
        assert back[1, 1, 2] == sign * float(np.finfo(np.float32).max)

    @pytest.mark.parametrize("value", [LIMIT, -LIMIT, 1e39, -1e300])
    def test_overflow_refused_before_open(self, tmp_path, value):
        vol = np.ones((9, 2, 3))
        vol[8, 1, 2] = value
        path = tmp_path / "big.vol"
        with pytest.raises(NonFiniteValueError, match="float32 range"):
            write_volume(vol, path)
        assert not path.exists()
        path.write_bytes(b"keep")
        with pytest.raises(NonFiniteValueError):
            write_volume(vol, path)
        assert path.read_bytes() == b"keep"


class TestVolumeWriter:
    """One writer serves every MIPVOL output: slice by slice, and committed
    only when whole, so a failed write leaves nothing behind."""

    VOL = np.arange(6 * 3 * 5, dtype=np.float64).reshape(6, 3, 5) / 7.0

    @pytest.mark.parametrize("feed", ["slices", "groups"])
    def test_bytes_equal_write_volume(self, tmp_path, feed):
        write_volume(self.VOL, tmp_path / "whole.vol")
        with VolumeWriter(tmp_path / "fed.vol", self.VOL.shape) as out:
            if feed == "slices":
                for sl in self.VOL:
                    out.write(sl)
            else:
                out.write(self.VOL[:1])
                out.write(self.VOL[1:4])
                out.write(self.VOL[4:])
        assert (tmp_path / "fed.vol").read_bytes() == (tmp_path / "whole.vol").read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["fed.vol", "whole.vol"]

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("old", [None, b"keep"], ids=["absent", "existing"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e39])
    def test_refused_slice_leaves_nothing(self, tmp_path, k, old, bad):
        path = tmp_path / "v.vol"
        if old is not None:
            path.write_bytes(old)
        vol = self.VOL.copy()
        vol[k, 2, 4] = bad
        with pytest.raises(NonFiniteValueError, match="refusing to write NaN or Inf"):
            with VolumeWriter(path, vol.shape) as out:
                for sl in vol:
                    out.write(sl)
        if old is None:
            assert not path.exists()
        else:
            assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ([] if old is None else ["v.vol"])

    @pytest.mark.parametrize("old", [None, b"keep"], ids=["absent", "existing"])
    def test_short_count_or_error_commits_nothing(self, tmp_path, old):
        path = tmp_path / "v.vol"
        if old is not None:
            path.write_bytes(old)
        with pytest.raises(DimensionError, match="5 of 6 slices written"):
            with VolumeWriter(path, self.VOL.shape) as out:
                out.write(self.VOL[:5])
        with pytest.raises(KeyError):
            with VolumeWriter(path, self.VOL.shape) as out:
                out.write(self.VOL[:3])
                raise KeyError("stop")
        with pytest.raises(DimensionError, match="more than 6 slices"):
            with VolumeWriter(path, self.VOL.shape) as out:
                out.write(self.VOL)
                out.write(self.VOL[0])
        with pytest.raises(DimensionError, match="shape"):
            with VolumeWriter(path, self.VOL.shape) as out:
                out.write(self.VOL[:, :2])
        assert os.listdir(tmp_path) == ([] if old is None else ["v.vol"])
        if old is not None:
            assert path.read_bytes() == old

    def test_fifo_target_written_in_place(self, tmp_path):
        path = tmp_path / "out.fifo"
        os.mkfifo(path)
        got = []
        reader = threading.Thread(target=lambda: got.append(open(path, "rb").read()))
        reader.start()
        try:
            write_volume(self.VOL, path)
        finally:
            reader.join()
        write_volume(self.VOL, tmp_path / "file.vol")
        assert got == [(tmp_path / "file.vol").read_bytes()]
        assert sorted(os.listdir(tmp_path)) == ["file.vol", "out.fifo"]

    def test_symlink_kept_and_its_target_replaced(self, tmp_path):
        target = tmp_path / "target.vol"
        target.write_bytes(b"old")
        link = tmp_path / "link.vol"
        link.symlink_to(target)
        write_volume(self.VOL, link)
        assert link.is_symlink()
        np.testing.assert_array_equal(read_volume(target), self.VOL.astype("<f4"))

    def test_new_file_mode_follows_umask(self, tmp_path):
        mask = os.umask(0o027)
        try:
            write_volume(self.VOL, tmp_path / "v.vol")
        finally:
            os.umask(mask)
        assert (tmp_path / "v.vol").stat().st_mode & 0o777 == 0o640

    def test_missing_directory_named_as_target(self, tmp_path):
        path = tmp_path / "absent" / "v.vol"
        with pytest.raises(FileNotFoundError, match="absent/v.vol"):
            write_volume(self.VOL, path)


class TestCommit:
    """Inside ``_commit`` every writer's file is closed as soon as it is
    written, and renamed onto its target only when the block ends cleanly,
    in the order the files were written; on an exception all are removed."""

    VOL = TestVolumeWriter.VOL

    def test_renames_wait_for_the_end_in_write_order(self, tmp_path):
        path = tmp_path / "v.vol"
        path.write_bytes(b"keep")
        with fileio._commit():
            write_volume(self.VOL, path)
            export_pgm(self.VOL[0], path)
            fileio._write_text(tmp_path / "t.txt", ["a", "b"])
            assert path.read_bytes() == b"keep"
            assert len(os.listdir(tmp_path)) == 4  # v.vol and three temporary files
        export_pgm(self.VOL[0], tmp_path / "p.pgm")
        assert path.read_bytes() == (tmp_path / "p.pgm").read_bytes()
        assert (tmp_path / "t.txt").read_bytes() == b"a\nb\n"
        assert sorted(os.listdir(tmp_path)) == ["p.pgm", "t.txt", "v.vol"]

    def test_exception_removes_every_file(self, tmp_path):
        path = tmp_path / "v.vol"
        path.write_bytes(b"keep")
        with pytest.raises(KeyError):
            with fileio._commit():
                write_volume(self.VOL, path)
                write_volume(self.VOL, tmp_path / "w.vol")
                raise KeyError("stop")
        assert os.listdir(tmp_path) == ["v.vol"]
        assert path.read_bytes() == b"keep"

    def test_no_file_held_open(self, tmp_path):
        fds = len(os.listdir("/proc/self/fd"))
        with fileio._commit():
            for k in range(50):
                write_volume(self.VOL, tmp_path / f"v{k}.vol")
            assert len(os.listdir("/proc/self/fd")) == fds
        assert len(os.listdir(tmp_path)) == 50


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - base


class TestMemoryGuards:
    """Reading adds only the result volume, writing no whole volume."""

    @pytest.fixture(scope="class")
    def noisy(self):
        return generate(default_venous_spec()).noisy

    def test_read_adds_one_volume(self, tmp_path, noisy):
        path = tmp_path / "v.vol"
        write_volume(noisy, path)
        vol, added = _traced_peak(read_volume, path)
        assert vol.shape == noisy.shape
        assert added / noisy.nbytes <= 1.1

    @pytest.mark.parametrize("read", [read_volume, lambda path: next(iter_slices(path))],
                             ids=["read_volume", "iter_slices"])
    def test_oversized_header_refused_before_allocating(self, tmp_path, read):
        path = tmp_path / "huge.vol"
        write_raw(path, b"MIPVOL1 1024 1024 64\n", b"\x00" * 4)

        def refused():
            with pytest.raises(TruncatedPayloadError,
                               match="expected 268435456 payload bytes, got 4"):
                read(path)

        _, added = _traced_peak(refused)
        assert added < 2**16

    @pytest.mark.parametrize("read", [read_volume, lambda path: next(iter_slices(path))],
                             ids=["read_volume", "iter_slices"])
    def test_oversized_stream_refused_before_allocating(self, tmp_path, read):
        # a stream has no size: the 37 GiB its header promises must not be
        # allocated before the 4 bytes that came are counted
        def refused(path):
            with pytest.raises(TruncatedPayloadError,
                               match="expected 4000000000000000 payload bytes, got 4"):
                read(path)

        data = b"MIPVOL1 100000 100000 100000\n\0\0\0\0"
        with fed_fifo(tmp_path / "huge.fifo", data) as path:
            _, added = _traced_peak(refused, path)
        # chunks of the stream are read at most _IO_BYTES at a time
        assert added < 2 * fileio._IO_BYTES

    def test_write_adds_no_volume(self, tmp_path, noisy):
        path = tmp_path / "v.vol"
        _, added = _traced_peak(write_volume, noisy, path)
        assert path.stat().st_size > 4 * noisy.size
        assert added / noisy.nbytes <= 0.1


class TestPgmExport:
    def test_constant_field_maps_to_zero(self, tmp_path):
        path = tmp_path / "c.pgm"
        export_pgm(np.full((2, 3), 9.0), path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n3 2\n65535\n")
        samples = np.frombuffer(raw.split(b"65535\n", 1)[1], dtype=">u2")
        assert np.all(samples == 0)

    def test_rescale_endpoints(self, tmp_path):
        path = tmp_path / "r.pgm"
        export_pgm(np.array([[0.0, 0.5, 1.0]]), path)
        samples = np.frombuffer(path.read_bytes().split(b"65535\n", 1)[1], dtype=">u2")
        assert samples[0] == 0
        assert samples[1] == 32768  # rint(0.5 * 65535) rounds to even
        assert samples[2] == 65535

    def test_negative_values_rescaled(self, tmp_path):
        path = tmp_path / "n.pgm"
        export_pgm(np.array([[-2.0, 0.0, 2.0]]), path)
        samples = np.frombuffer(path.read_bytes().split(b"65535\n", 1)[1], dtype=">u2")
        np.testing.assert_array_equal(samples, [0, 32768, 65535])
