import gc
import hashlib
import io
import os
import re
import struct
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlnpose import fileio
from mlnpose.fileio import (ChangedFileError, FileFormatError, TruncatedFileError,
                            WeightFile, WeightShapeError, load_weights, read_ppm,
                            read_tensor, save_weights, write_ppm, write_tensor)


class Pipe(io.RawIOBase):
    """A non-seekable stream over fixed bytes that records the largest
    read it was asked for."""

    def __init__(self, data):
        self._data = io.BytesIO(data)
        self.largest_read = 0

    def readable(self):
        return True

    def readinto(self, b):
        self.largest_read = max(self.largest_read, len(b))
        chunk = self._data.read(len(b))
        b[:len(chunk)] = chunk
        return len(chunk)


class Trickle(io.RawIOBase):
    """A seekable raw stream over fixed bytes whose reads return at most
    7 bytes per call, as a raw stream is allowed to."""

    def __init__(self, data):
        self._data = io.BytesIO(data)

    def readable(self):
        return True

    def seekable(self):
        return True

    def seek(self, offset, whence=io.SEEK_SET):
        return self._data.seek(offset, whence)

    def tell(self):
        return self._data.tell()

    def readinto(self, b):
        chunk = self._data.read(min(len(b), 7))
        b[:len(chunk)] = chunk
        return len(chunk)


def _written(writer, value):
    buf = io.BytesIO()
    writer(buf, value)
    return buf.getvalue()


def _tensor_bytes(x):
    return _written(write_tensor, x)


def _tensor_source(kind, tmp_path, x):
    """x written to a file path, or its MLNT bytes behind a stream of ``kind``."""
    if kind == "path":
        path = tmp_path / "x.mlnt"
        write_tensor(path, x)
        return path
    return {"bytesio": io.BytesIO, "pipe": Pipe, "trickle": Trickle}[kind](_tensor_bytes(x))


# A 4 GiB payload, and one of 4 * 65535**4 bytes (past what f.read accepts).
HUGE_DIMS = [(1, 64, 4096, 4096), (65535, 65535, 65535, 65535)]


class TestTensorFormat:
    def test_round_trip(self, tmp_path):
        x = np.random.default_rng(0).normal(size=(2, 19, 5, 7)).astype(np.float32)
        path = tmp_path / "x.mlnt"
        write_tensor(path, x)
        back = read_tensor(path)
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back, x)

    def test_round_trip_stream(self):
        x = np.arange(24, dtype=np.float32).reshape(1, 2, 3, 4)
        buf = io.BytesIO()
        write_tensor(buf, x)
        buf.seek(0)
        np.testing.assert_array_equal(read_tensor(buf), x)

    def test_header_layout(self):
        buf = io.BytesIO()
        write_tensor(buf, np.zeros((1, 2, 3, 4), dtype=np.float32))
        raw = buf.getvalue()
        assert raw[:4] == b"MLNT"
        assert len(raw) == 4 + 4 + 16 + 4 * 24

    def test_bad_magic(self):
        with pytest.raises(FileFormatError):
            read_tensor(io.BytesIO(b"XXXX" + b"\0" * 64))

    def test_truncated_payload(self):
        buf = io.BytesIO()
        write_tensor(buf, np.zeros((1, 1, 4, 4), dtype=np.float32))
        clipped = io.BytesIO(buf.getvalue()[:-8])
        with pytest.raises(TruncatedFileError):
            read_tensor(clipped)

    def test_truncated_header(self):
        with pytest.raises(TruncatedFileError):
            read_tensor(io.BytesIO(b"MLNT\x01\x00"))

    def test_dims_overflowing_int64(self):
        # 65536**4 * 4 bytes wraps to 0 in int64 arithmetic.
        header = b"MLNT" + struct.pack("<5I", 1, 65536, 65536, 65536, 65536)
        with pytest.raises(TruncatedFileError):
            read_tensor(io.BytesIO(header + b"\0" * 64))

    def test_payload_larger_than_file(self, tmp_path):
        path = tmp_path / "big.mlnt"
        path.write_bytes(b"MLNT" + struct.pack("<5I", 1, 1, 1000, 1000, 1000) + b"\0" * 64)
        with pytest.raises(TruncatedFileError, match="4000000000 bytes, 64 left"):
            read_tensor(path)

    @pytest.mark.parametrize("dims", HUGE_DIMS)
    def test_non_seekable_huge_header(self, dims):
        pipe = Pipe(b"MLNT" + struct.pack("<5I", 1, *dims) + b"\0" * 64)
        with pytest.raises(TruncatedFileError, match="got 64"):
            read_tensor(pipe)
        assert pipe.largest_read <= fileio.STREAM_CHUNK_BYTES

    def test_non_seekable_round_trip_in_chunks(self, monkeypatch):
        monkeypatch.setattr(fileio, "STREAM_CHUNK_BYTES", 64)
        x = np.random.default_rng(0).normal(size=(1, 2, 8, 8)).astype(np.float32)
        buf = io.BytesIO()
        write_tensor(buf, x)
        pipe = Pipe(buf.getvalue())
        np.testing.assert_array_equal(read_tensor(pipe), x)
        assert pipe.largest_read == 64

    @pytest.mark.parametrize("shape", [(1, 0, 4, 4), (0, 3, 2, 2)])
    @pytest.mark.parametrize("source", ["path", "bytesio", "pipe"])
    def test_zero_size_round_trip(self, tmp_path, shape, source):
        back = read_tensor(_tensor_source(source, tmp_path, np.zeros(shape, dtype=np.float32)))
        assert back.shape == shape and back.dtype == np.float32

    @pytest.mark.parametrize("source", ["path", "bytesio", "pipe", "trickle"])
    def test_returns_writable_native_float32(self, tmp_path, source):
        # The trickle stream's 7-byte reads split the dims header and the payload.
        x = np.random.default_rng(6).normal(size=(2, 3, 5, 7)).astype(np.float32)
        back = read_tensor(_tensor_source(source, tmp_path, x))
        np.testing.assert_array_equal(back, x)
        assert back.dtype == np.float32 and back.dtype.isnative
        assert back.flags.writeable and back.flags.c_contiguous
        back[0, 0, 0, 0] = 1.0

    @pytest.mark.parametrize("kind", ["tensor", "weights"])
    def test_oversized_header_fails_before_allocation(self, monkeypatch, kind):
        if kind == "tensor":
            reader, raw = read_tensor, b"MLNT" + struct.pack("<5I", 1, 1, 1000, 1000, 1000)
        else:
            reader = load_weights
            raw = (b"MLNW" + struct.pack("<2I", 1, 1) + struct.pack("<H", 1) + b"c"
                   + struct.pack("<B", 4) + struct.pack("<4I", 512, 512, 3, 3))

        def no_empty(*args, **kwargs):
            raise AssertionError("allocated before the size check")

        monkeypatch.setattr(np, "empty", no_empty)
        with pytest.raises(TruncatedFileError, match="bytes, 64 left"):
            reader(io.BytesIO(raw + b"\0" * 64))

    def test_failed_write_leaves_no_stale_payload(self, tmp_path, monkeypatch):
        # A write that raises after the header must not leave the new
        # header over the old payload, which would read back as the old tensor.
        path = tmp_path / "x.mlnt"
        write_tensor(path, np.ones((1, 2, 3, 4), dtype=np.float32))

        def fail(f, array):
            raise OSError("no space left")

        monkeypatch.setattr(fileio, "_write_floats", fail)
        with pytest.raises(OSError, match="no space left"):
            write_tensor(path, np.zeros((1, 2, 3, 4), dtype=np.float32))
        with pytest.raises(TruncatedFileError):
            read_tensor(path)

    def test_bad_version(self):
        buf = io.BytesIO()
        write_tensor(buf, np.zeros((1, 1, 1, 1), dtype=np.float32))
        raw = bytearray(buf.getvalue())
        raw[4] = 99
        with pytest.raises(FileFormatError):
            read_tensor(io.BytesIO(bytes(raw)))


def _pinned_inputs():
    rng = np.random.default_rng(17)
    return {
        "float32": rng.normal(size=(1, 3, 4, 5)).astype(np.float32),
        "float64": rng.normal(size=(2, 2, 3, 3)),
        "transposed": rng.normal(size=(1, 2, 5, 3)).astype(np.float32).transpose(0, 1, 3, 2),
    }


# sha256 of write_tensor's output for _pinned_inputs(): the MLNT writer
# must keep these bytes for float32, float64 and non-contiguous input.
PINNED_MLNT_SHA256 = {
    "float32": "e55feb437706c07a03acffd4a99c72eb276a92240495e9f5e9ad898983fb69b1",
    "float64": "5690a2a29736aeb1b1015ec1532a54018054cf55d57d9b6a6e06300285158db3",
    "transposed": "8ea9d72dc4e12aaf3e3b884cab488e34b2449d2d9629115d39cd345e7cc1a913",
}


@pytest.mark.parametrize("name", sorted(PINNED_MLNT_SHA256))
def test_tensor_bytes_pinned(name):
    x = _pinned_inputs()[name]
    raw = _tensor_bytes(x)
    assert hashlib.sha256(raw).hexdigest() == PINNED_MLNT_SHA256[name]
    # The file holds float32: the float64 input reads back as its float32 cast.
    assert (read_tensor(io.BytesIO(raw)) == x.astype(np.float32)).all()
    assert (read_tensor(Trickle(raw)) == x.astype(np.float32)).all()


class TestWeightsFormat:
    def make_store(self):
        rng = np.random.default_rng(1)
        return {
            "conv1": (rng.normal(size=(4, 3, 3, 3)).astype(np.float32),
                      rng.normal(size=4).astype(np.float32)),
            "conv2": (rng.normal(size=(2, 4, 1, 1)).astype(np.float32),
                      rng.normal(size=2).astype(np.float32)),
        }

    def test_round_trip(self, tmp_path):
        store = self.make_store()
        path = tmp_path / "w.mlnw"
        save_weights(path, store)
        back = load_weights(path)
        assert set(back) == set(store)
        for name in store:
            np.testing.assert_array_equal(back[name][0], store[name][0])
            np.testing.assert_array_equal(back[name][1], store[name][1])

    def test_round_trip_short_reads(self):
        store = self.make_store()
        buf = io.BytesIO()
        save_weights(buf, store)
        back = load_weights(Trickle(buf.getvalue()))
        assert set(back) == set(store)
        for name in store:
            for got, want in zip(back[name], store[name]):
                assert got.dtype == np.float32 and got.flags.writeable
                np.testing.assert_array_equal(got, want)

    def test_bad_magic(self):
        with pytest.raises(FileFormatError):
            load_weights(io.BytesIO(b"NOPE" + b"\0" * 16))

    def test_truncated(self):
        buf = io.BytesIO()
        save_weights(buf, self.make_store())
        clipped = io.BytesIO(buf.getvalue()[:-4])
        with pytest.raises(TruncatedFileError):
            load_weights(clipped)

    def test_bad_version(self):
        buf = io.BytesIO()
        save_weights(buf, self.make_store())
        raw = bytearray(buf.getvalue())
        raw[4] = 99
        with pytest.raises(FileFormatError, match="weights format version 99"):
            load_weights(io.BytesIO(bytes(raw)))

    def test_rank_zero_rejected(self):
        raw = b"MLNW" + struct.pack("<2I", 1, 1) + struct.pack("<H", 1) + b"c"
        raw += struct.pack("<B", 0) + b"\0" * 16
        with pytest.raises(FileFormatError, match="rank 0"):
            load_weights(io.BytesIO(raw))

    def test_weight_payload_larger_than_file(self):
        raw = b"MLNW" + struct.pack("<2I", 1, 1) + struct.pack("<H", 1) + b"c"
        raw += struct.pack("<B", 4) + struct.pack("<4I", 512, 512, 3, 3) + b"\0" * 16
        with pytest.raises(TruncatedFileError, match="9437184 bytes, 16 left"):
            load_weights(io.BytesIO(raw))

    @pytest.mark.parametrize("dims", HUGE_DIMS)
    def test_non_seekable_huge_header(self, dims):
        raw = b"MLNW" + struct.pack("<2I", 1, 1) + struct.pack("<H", 1) + b"c"
        pipe = Pipe(raw + struct.pack("<B", 4) + struct.pack("<4I", *dims) + b"\0" * 16)
        with pytest.raises(TruncatedFileError, match="got 16"):
            load_weights(pipe)
        assert pipe.largest_read <= fileio.STREAM_CHUNK_BYTES

    def test_non_utf8_name(self):
        blob = (b"MLNW" + struct.pack("<2IH", 1, 1, 2) + b"\xff\xfe"
                + struct.pack("<BI", 1, 1) + b"\0" * 8)
        with pytest.raises(FileFormatError, match="UTF-8"):
            load_weights(io.BytesIO(blob))

    def test_bias_shape_checked_on_save(self):
        store = {"c": (np.zeros((4, 3, 3, 3), dtype=np.float32),
                       np.zeros(3, dtype=np.float32))}
        with pytest.raises(WeightShapeError):
            save_weights(io.BytesIO(), store)

    def test_failed_save_leaves_no_stale_layers(self, tmp_path):
        # The second layer's bias is refused after the first layer has been
        # written: neither the old store nor new conv1 with old conv2 may load.
        path = tmp_path / "w.mlnw"
        save_weights(path, self.make_store())
        store = self.make_store()
        store["conv1"] = (store["conv1"][0] + 1, store["conv1"][1])
        store["conv2"] = (store["conv2"][0], np.zeros(3, dtype=np.float32))
        with pytest.raises(WeightShapeError, match="conv2"):
            save_weights(path, store)
        with pytest.raises(TruncatedFileError):
            load_weights(path)


# Two layers named "c": rank-1 weights of one float, each with a one-float bias.
DUPLICATE_C = (b"MLNW" + struct.pack("<2I", 1, 2)
               + 2 * (struct.pack("<H", 1) + b"c" + struct.pack("<BI", 1, 1) + b"\0" * 8))


def _changed_store(store):
    """store with every value moved, at the same shapes."""
    return {name: (w + 1, b - 1) for name, (w, b) in store.items()}


def _cut(path):
    os.truncate(path, path.stat().st_size - 4)


def _replace(path):
    new = path.with_name("new.mlnw")
    save_weights(new, _changed_store(TestWeightsFormat().make_store()))
    os.replace(new, path)


def _rewrite_larger(path):
    store = TestWeightsFormat().make_store()
    save_weights(path, {**store, "conv3": store["conv2"]})


def _rewrite_touched(path):
    # The same size, and an mtime two seconds on, at least one tick of
    # any common file system's timestamp granularity.
    mtime = path.stat().st_mtime_ns
    save_weights(path, _changed_store(TestWeightsFormat().make_store()))
    os.utime(path, ns=(mtime, mtime + 2 * 10**9))


CHANGES = {"truncated": _cut, "replaced_by_rename": _replace, "deleted": os.unlink,
           "rewritten_larger": _rewrite_larger, "rewritten_same_size": _rewrite_touched}


class TestWeightFile:
    """A path to a regular file loads as a WeightFile: its headers at
    load, one layer's payload per lookup."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "w.mlnw"
        save_weights(path, TestWeightsFormat().make_store())
        return path

    @pytest.mark.parametrize("source", ["path", "bytesio", "pipe"])
    def test_layer_stored_twice_rejected(self, tmp_path, source):
        path = tmp_path / "dup.mlnw"
        path.write_bytes(DUPLICATE_C)
        src = {"path": path, "bytesio": io.BytesIO(DUPLICATE_C), "pipe": Pipe(DUPLICATE_C)}
        with pytest.raises(FileFormatError, match="layer 'c' is stored twice"):
            load_weights(src[source])

    def test_load_reads_headers_only(self, path, monkeypatch):
        def no_empty(*args, **kwargs):
            raise AssertionError("a payload was read")

        monkeypatch.setattr(np, "empty", no_empty)
        back = load_weights(path)
        assert isinstance(back, WeightFile)
        assert list(back) == ["conv1", "conv2"] and len(back) == 2
        assert "conv2" in back and "conv3" not in back
        assert back.shapes == {"conv1": (4, 3, 3, 3), "conv2": (2, 4, 1, 1)}
        monkeypatch.undo()
        store = TestWeightsFormat().make_store()
        for name, (w, b) in back.items():
            np.testing.assert_array_equal(w, store[name][0])
            np.testing.assert_array_equal(b, store[name][1])
        with pytest.raises(KeyError):
            back["conv3"]
        with pytest.raises(TypeError):
            back["conv1"] = store["conv1"]

    def test_each_lookup_reads_fresh_arrays(self, path):
        back = load_weights(path)
        first, again = back["conv1"][0], back["conv1"][0]
        assert first is not again
        assert first.dtype == np.float32 and first.flags.writeable
        first[...] = 0
        np.testing.assert_array_equal(again, back["conv1"][0])

    def test_payload_past_the_end_refused_at_load(self, path):
        _cut(path)
        with pytest.raises(TruncatedFileError, match="conv2 weights and bias"):
            load_weights(path)

    @pytest.mark.parametrize("change", sorted(CHANGES))
    def test_changed_file_refused(self, path, change):
        # Every lookup after the change raises, naming the path; none
        # serves the bytes that are there now.
        back = load_weights(path)
        CHANGES[change](path)
        for name in ("conv1", "conv2"):
            with pytest.raises(ChangedFileError, match=re.escape(str(path))):
                back[name]

    def test_cut_after_the_identity_check_refused(self, path, monkeypatch):
        back = load_weights(path)
        _cut(path)
        monkeypatch.setattr(fileio, "_identity", lambda st: back._identity)
        back["conv1"]
        with pytest.raises(ChangedFileError, match="truncated while reading conv2 bias"):
            back["conv2"]

    def test_no_descriptor_outlives_a_lookup(self, path):
        fds = "/proc/self/fd"
        before = len(os.listdir(fds)) if os.path.isdir(fds) else None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            back = load_weights(path)
            for name in back:
                back[name]
            _cut(path)
            with pytest.raises(ChangedFileError):
                back["conv1"]
            path.unlink()
            with pytest.raises(ChangedFileError):
                back["conv1"]
            del back
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        if before is not None:
            assert len(os.listdir(fds)) == before

    def test_saved_over_its_own_file(self, path, monkeypatch):
        # The store is read whole before its file is rewritten. Each payload
        # write is flushed and moves the mtime on, as a clock tick between
        # two writes would, so a lookup after it would see a changed file.
        raw = path.read_bytes()
        write = fileio._write_floats

        def write_and_tick(f, array):
            write(f, array)
            f.flush()
            st = os.fstat(f.fileno())
            os.utime(f.fileno(), ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))

        monkeypatch.setattr(fileio, "_write_floats", write_and_tick)
        save_weights(path, load_weights(path))
        assert path.read_bytes() == raw

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
    def test_fifo_read_whole(self, tmp_path, path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        raw = path.read_bytes()
        writer = threading.Thread(target=fifo.write_bytes, args=(raw,), daemon=True)
        writer.start()
        back = load_weights(fifo)
        writer.join(timeout=30)
        assert type(back) is dict and list(back) == ["conv1", "conv2"]
        np.testing.assert_array_equal(back["conv2"][0], load_weights(path)["conv2"][0])


class TestPpm:
    def test_round_trip(self, tmp_path):
        img = np.random.default_rng(2).integers(0, 256, size=(5, 7, 3)).astype(np.uint8)
        path = tmp_path / "img.ppm"
        write_ppm(path, img)
        np.testing.assert_array_equal(read_ppm(path), img)

    def test_channel_first_input(self, tmp_path):
        # Images are (H, W, 3), as read_ppm returns them; a (3, H, W)
        # array is refused, not transposed, and nothing is written.
        img = np.random.default_rng(3).integers(0, 256, size=(3, 4, 6)).astype(np.uint8)
        path = tmp_path / "img.ppm"
        with pytest.raises(FileFormatError, match="3-channel"):
            write_ppm(path, img)
        assert not path.exists()

    def test_comment_in_header(self, tmp_path):
        img = np.zeros((2, 2, 3), dtype=np.uint8)
        path = tmp_path / "img.ppm"
        with open(path, "wb") as f:
            f.write(b"P6\n# a comment\n2 2\n255\n" + img.tobytes())
        np.testing.assert_array_equal(read_ppm(path), img)

    def test_truncated(self, tmp_path):
        path = tmp_path / "img.ppm"
        with open(path, "wb") as f:
            f.write(b"P6\n4 4\n255\n" + b"\0" * 10)
        with pytest.raises(TruncatedFileError):
            read_ppm(path)

    def test_not_ppm(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"GIF89a")
        with pytest.raises(FileFormatError):
            read_ppm(path)

    def test_round_trip_stream(self):
        img = np.random.default_rng(4).integers(0, 256, size=(3, 5, 3)).astype(np.uint8)
        buf = io.BytesIO()
        write_ppm(buf, img)
        buf.seek(0)
        np.testing.assert_array_equal(read_ppm(buf), img)

    @pytest.mark.parametrize("blob", [
        b"P6\nx 1 255\n\0\0\0", b"P6\n-1 -1 255\nabc", b"P6\n1 1 +255\n\0\0\0",
        b"P6\n1 1.0 255\n\0\0\0", b"P6\n" + b"9" * 5000 + b" 1 255\n",
    ], ids=["letter", "negative", "plus_sign", "decimal_point", "5000_digits"])
    def test_bad_header_field(self, blob):
        with pytest.raises(FileFormatError, match="PPM header field"):
            read_ppm(io.BytesIO(blob))


class TestErrorsNameThePath:
    """A format error read from a path ends with that path; one read from
    an open file object is the reader's own."""

    def test_truncated_tensor(self, tmp_path):
        path = tmp_path / "maps.mlnt"
        write_tensor(path, np.zeros((1, 2, 3, 4), dtype=np.float32))
        os.truncate(path, path.stat().st_size - 4)
        with pytest.raises(TruncatedFileError) as info:
            read_tensor(path)
        assert str(info.value) == ("truncated while reading payload: header declares "
                                   f"96 bytes, 92 left (in {path})")

    def test_bad_weights_magic(self, tmp_path):
        path = tmp_path / "w.mlnw"
        path.write_bytes(b"XXXX" + b"\0" * 16)
        with pytest.raises(FileFormatError) as info:
            load_weights(path)
        assert str(info.value) == f"bad weights magic b'XXXX' (in {path})"
        with pytest.raises(FileFormatError, match=r"^bad weights magic b'XXXX'$"):
            load_weights(io.BytesIO(path.read_bytes()))

    def test_truncated_ppm(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n4 4\n255\n" + b"\0" * 10)
        with pytest.raises(TruncatedFileError) as info:
            read_ppm(path)
        assert str(info.value) == f"truncated PPM payload (in {path})"


def _weights_size(store):
    return 12 + sum(2 + len(name) + 1 + 4 * w.ndim + 4 * (w.size + b.size)
                    for name, (w, b) in store.items())


# Per writer: the writer, an input of size n, and the file size that input
# must give (header + payload).
WRITERS = {
    "tensor": (write_tensor,
               lambda n: np.random.default_rng(n).normal(size=(1, 2, n, n)).astype(np.float32),
               lambda x: 24 + 4 * x.size),
    "weights": (save_weights,
                lambda n: {f"conv{i}": (np.full((n, 3, 3, 3), i, dtype=np.float32),
                                        np.full(n, -i, dtype=np.float32)) for i in range(n)},
                _weights_size),
    "ppm": (write_ppm,
            lambda n: np.full((n, 2 * n, 3), n, dtype=np.uint8),
            lambda img: len(f"P6\n{img.shape[1]} {img.shape[0]}\n255\n") + img.size),
}


class TestRewrite:
    """A path that already holds a file is rewritten in place."""

    @pytest.mark.parametrize("first, second", [(9, 3), (3, 9)],
                             ids=["larger_first", "smaller_first"])
    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_rewrite_equals_fresh_write(self, tmp_path, kind, first, second):
        writer, make, size = WRITERS[kind]
        path, fresh = tmp_path / "f", tmp_path / "fresh"
        writer(path, make(first))
        writer(path, make(second))
        writer(fresh, make(second))
        assert path.read_bytes() == fresh.read_bytes() == _written(writer, make(second))
        assert path.stat().st_size == size(make(second))

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_path_is_opened_without_o_trunc(self, tmp_path, monkeypatch, kind):
        # Closing a file truncated to empty and written again starts ext4's
        # writeback: several times the cost of the write itself.
        writer, make, _ = WRITERS[kind]
        flags = []
        real_open = os.open

        def recording_open(path, flag, *args, **kwargs):
            flags.append(flag)
            return real_open(path, flag, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording_open)
        writer(tmp_path / "f", make(3))
        writer(tmp_path / "f", make(2))
        assert len(flags) == 2
        assert not any(flag & os.O_TRUNC for flag in flags)

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_devnull(self, kind):
        # /dev/null cannot be truncated (EINVAL): only regular files are cut.
        writer, make, _ = WRITERS[kind]
        writer(os.devnull, make(3))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_fifo_gets_exact_bytes(self, tmp_path, kind):
        writer, make, _ = WRITERS[kind]
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        writer(fifo, make(9))
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert got == [_written(writer, make(9))]


def _valid_files():
    rng = np.random.default_rng(5)
    mlnt, mlnw, ppm = io.BytesIO(), io.BytesIO(), io.BytesIO()
    write_tensor(mlnt, rng.normal(size=(1, 2, 3, 2)).astype(np.float32))
    save_weights(mlnw, {"conv_a": (rng.normal(size=(2, 1, 3, 3)), np.zeros(2)),
                        "b": (np.ones((3, 2)), np.ones(3))})
    write_ppm(ppm, rng.integers(0, 256, size=(2, 3, 3)).astype(np.uint8))
    return {"mlnt": (read_tensor, mlnt.getvalue()),
            "mlnw": (load_weights, mlnw.getvalue()),
            "ppm": (read_ppm, ppm.getvalue())}


VALID_FILES = _valid_files()
# Overwrites: arbitrary bytes, or header-like text (signs, letters, digits).
PATCHES = st.binary(max_size=8) | st.text("0123456789 -+.x#\n", max_size=8).map(str.encode)


@pytest.mark.parametrize("stream", [io.BytesIO, Pipe], ids=["seekable", "non_seekable"])
@pytest.mark.parametrize("kind", sorted(VALID_FILES))
@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_damaged_files_read_or_raise_typed_error(kind, stream, data):
    """Valid files with a span overwritten and then cut short either read
    back or raise FileFormatError/TruncatedFileError, nothing else."""
    reader, valid = VALID_FILES[kind]
    pos = data.draw(st.integers(0, len(valid)))
    patch = data.draw(PATCHES)
    blob = valid[:pos] + patch + valid[pos + len(patch):]
    blob = blob[:data.draw(st.integers(0, len(blob)) | st.just(len(blob)))]
    try:
        out = reader(stream(blob))
    except (FileFormatError, TruncatedFileError):
        return
    assert isinstance(out, (np.ndarray, dict))
