import hashlib
import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlnpose import fileio
from mlnpose.fileio import (FileFormatError, TruncatedFileError,
                            WeightShapeError, load_weights, read_ppm,
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


def _tensor_bytes(x):
    buf = io.BytesIO()
    write_tensor(buf, x)
    return buf.getvalue()


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


class TestPpm:
    def test_round_trip(self, tmp_path):
        img = np.random.default_rng(2).integers(0, 256, size=(5, 7, 3)).astype(np.uint8)
        path = tmp_path / "img.ppm"
        write_ppm(path, img)
        np.testing.assert_array_equal(read_ppm(path), img)

    def test_channel_first_input(self, tmp_path):
        img = np.random.default_rng(3).integers(0, 256, size=(3, 4, 6)).astype(np.uint8)
        path = tmp_path / "img.ppm"
        write_ppm(path, img)
        np.testing.assert_array_equal(read_ppm(path), img.transpose(1, 2, 0))

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
