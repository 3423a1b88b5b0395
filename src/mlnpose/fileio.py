"""Binary file formats: MLNT tensors, MLNW weight bundles, PPM (P6) images.

All integers are little-endian. Formats are versioned so fixtures stay
readable across revisions. MLNT and MLNW share one header codec: the
magic, the u32 FORMAT_VERSION and then u32 fields, written by
``_write_header`` and checked by ``_read_header``.

Float payloads go between file and array without an intermediate bytes
copy: writes hand the contiguous little-endian float32 array's own buffer
to the stream, and reads from a seekable stream fill a preallocated array
with ``readinto``, after the declared size has been checked against the
bytes left. A header never sizes a buffer: a non-seekable stream, whose
size cannot be checked, is read in chunks of at most STREAM_CHUNK_BYTES.
"""

import contextlib
import io
import math
import struct

import numpy as np

from .tensor_ops import check_tensor

TENSOR_MAGIC = b"MLNT"
WEIGHTS_MAGIC = b"MLNW"
FORMAT_VERSION = 1
_KINDS = {TENSOR_MAGIC: "tensor", WEIGHTS_MAGIC: "weights"}  # for error messages


class FileFormatError(ValueError):
    """Bad magic bytes or unsupported version."""


class TruncatedFileError(ValueError):
    """Stream ended before the declared payload was read."""


class WeightShapeError(ValueError):
    """Stored weight shapes disagree with the owning graph."""


# Largest single read from a non-seekable stream: there a header-declared
# size cannot be checked against the bytes left, so it must not size a
# buffer either.
STREAM_CHUNK_BYTES = 1 << 20


def _read_exact(f, n, what):
    """n bytes, read in chunks of at most STREAM_CHUNK_BYTES; a raw stream
    may return fewer bytes than asked for, so short reads are continued."""
    buf = bytearray()
    while len(buf) < n:
        part = f.read(min(n - len(buf), STREAM_CHUNK_BYTES))
        if not part:
            break
        buf += part
    if len(buf) != n:
        raise TruncatedFileError(f"truncated while reading {what}: wanted {n} bytes, got {len(buf)}")
    return buf


def _read_floats(f, shape, what):
    """A native float32 array of ``shape`` read from a little-endian float32
    payload.

    On a seekable stream the declared size is checked against the bytes
    left before the array is allocated, and the payload is read straight
    into it. A non-seekable stream is read in chunks by _read_exact, so a
    header never sizes a buffer there.
    """
    n = 4 * math.prod(shape)
    if not f.seekable():
        return np.frombuffer(_read_exact(f, n, what), dtype="<f4").reshape(shape).astype(np.float32)
    pos = f.tell()
    left = f.seek(0, io.SEEK_END) - pos
    f.seek(pos)
    if n > left:
        raise TruncatedFileError(
            f"truncated while reading {what}: header declares {n} bytes, {left} left")
    out = np.empty(shape, dtype="<f4")
    raw = memoryview(out.reshape(-1).view(np.uint8))
    got = 0
    while got < n:
        part = f.readinto(raw[got:])   # a raw stream may return short reads
        if not part:
            break
        got += part
    if got != n:
        raise TruncatedFileError(f"truncated while reading {what}: wanted {n} bytes, got {got}")
    return out.astype(np.float32, copy=False)


def _write_floats(f, array):
    """Write ``array`` as a little-endian float32 payload from its own
    buffer (a copy is made only to convert or to make it contiguous)."""
    f.write(np.ascontiguousarray(array, dtype="<f4").reshape(-1).view(np.uint8))


@contextlib.contextmanager
def _opened(path_or_file, mode):
    """Yield a file: a path is opened with ``mode`` and closed afterwards,
    an open file object is yielded as is."""
    if hasattr(path_or_file, "write" if "w" in mode else "read"):
        yield path_or_file
    else:
        with open(path_or_file, mode) as f:
            yield f


def _write_header(f, magic, *fields):
    """An MLNT or MLNW header: the magic, FORMAT_VERSION, then u32 fields."""
    f.write(magic + struct.pack(f"<{1 + len(fields)}I", FORMAT_VERSION, *fields))


def _read_header(f, magic, count):
    """The ``count`` u32 fields after ``magic`` and the version;
    FileFormatError for another magic or version."""
    kind = _KINDS[magic]
    got = _read_exact(f, 4, "magic")
    if got != magic:
        raise FileFormatError(f"bad {kind} magic {got!r}")
    version, = struct.unpack("<I", _read_exact(f, 4, "version"))
    if version != FORMAT_VERSION:
        raise FileFormatError(f"unsupported {kind} format version {version}")
    return struct.unpack(f"<{count}I", _read_exact(f, 4 * count, "header"))


def write_tensor(path_or_file, tensor):
    """Write a (B,C,H,W) float32 tensor in the MLNT format."""
    tensor = check_tensor(tensor)
    with _opened(path_or_file, "wb") as f:
        _write_header(f, TENSOR_MAGIC, *tensor.shape)
        _write_floats(f, tensor)


def read_tensor(path_or_file):
    """Read an MLNT tensor; returns a float32 (B,C,H,W) array."""
    with _opened(path_or_file, "rb") as f:
        return _read_floats(f, _read_header(f, TENSOR_MAGIC, 4), "payload")


def save_weights(path_or_file, store):
    """Write a {name: (weights, bias)} store in the MLNW format.

    Per layer: name (u16 length + UTF-8), weight rank u8, weight dims
    u32 each, then float32 payload of the weights followed by the bias
    (bias length equals the leading weight dim).
    """
    with _opened(path_or_file, "wb") as f:
        _write_header(f, WEIGHTS_MAGIC, len(store))
        for name in store:
            weights, bias = store[name]
            weights = np.ascontiguousarray(weights, dtype=np.float32)
            bias = np.ascontiguousarray(bias, dtype=np.float32)
            if bias.ndim != 1 or bias.shape[0] != weights.shape[0]:
                raise WeightShapeError(
                    f"layer {name!r}: bias shape {bias.shape} does not match "
                    f"leading weight dim {weights.shape[0]}")
            raw = name.encode("utf-8")
            f.write(struct.pack("<H", len(raw)))
            f.write(raw)
            f.write(struct.pack("<B", weights.ndim))
            f.write(struct.pack(f"<{weights.ndim}I", *weights.shape))
            _write_floats(f, weights)
            _write_floats(f, bias)


def load_weights(path_or_file):
    """Read an MLNW file; returns {name: (weights, bias)}."""
    with _opened(path_or_file, "rb") as f:
        count, = _read_header(f, WEIGHTS_MAGIC, 1)
        store = {}
        for _ in range(count):
            nlen, = struct.unpack("<H", _read_exact(f, 2, "name length"))
            raw = _read_exact(f, nlen, "name")
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FileFormatError(f"layer name {bytes(raw)!r} is not UTF-8") from exc
            rank, = struct.unpack("<B", _read_exact(f, 1, "rank"))
            if rank == 0:
                raise FileFormatError(f"layer {name!r}: weights have rank 0")
            dims = struct.unpack(f"<{rank}I", _read_exact(f, 4 * rank, "dims"))
            store[name] = (_read_floats(f, dims, f"{name} weights"),
                           _read_floats(f, (dims[0],), f"{name} bias"))
    return store


def write_ppm(path_or_file, image):
    """Write a (H,W,3) uint8 image as binary PPM (P6)."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3:
        raise FileFormatError(f"expected 3-channel image, got shape {image.shape}")
    image = np.clip(image, 0, 255).astype(np.uint8)
    h, w, _ = image.shape
    with _opened(path_or_file, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(image.tobytes())


def read_ppm(path_or_file):
    """Read a binary PPM (P6); returns a (H,W,3) uint8 array."""
    with _opened(path_or_file, "rb") as f:
        data = f.read()
    if not data.startswith(b"P6"):
        raise FileFormatError("not a P6 PPM file")
    # Header is three whitespace-separated fields after the magic,
    # with optional '#' comment lines.
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise TruncatedFileError("truncated PPM header")
        field = data[start:pos]
        # ASCII digits only: no sign, and few enough for int() to take.
        if not field.isdigit() or len(field) > 20:
            raise FileFormatError(f"PPM header field {field[:20]!r} is not a decimal count")
        fields.append(int(field))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise FileFormatError(f"only maxval 255 supported, got {maxval}")
    payload = data[pos:pos + 3 * w * h]
    if len(payload) != 3 * w * h:
        raise TruncatedFileError("truncated PPM payload")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w, 3).copy()
