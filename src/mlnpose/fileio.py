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

A path is rewritten in place: an existing file is overwritten from its
start and cut to its new length, and a write that raises leaves an empty
file, which every reader refuses. Nothing here calls fsync, so a written
file is only as durable as the operating system makes it.

``load_weights`` on a path to a regular file reads only the MLNW layer
headers and returns a ``WeightFile``: each lookup reads that one layer's
payload from the file again, so a store holds no payload between
lookups. A lookup first checks that the path still names the file that
was indexed, by its device, inode, size and modification time, and
raises ChangedFileError otherwise. A same-size rewrite in place within
the file system's timestamp granularity cannot be detected, as with any
memory-mapped weight format, and the writers here rewrite a path in
place: do not rewrite a weights file while a store loaded from it is in
use. An open file object, which may be a pipe, is read whole.
"""

import contextlib
import io
import math
import os
import stat
import struct
from collections.abc import Mapping

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
    """Weight or bias shapes that do not fit their graph or each other."""


class ChangedFileError(ValueError):
    """A WeightFile's path no longer names the file it indexed."""


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


def _check_left(f, n, what):
    """TruncatedFileError unless a seekable stream has n bytes left."""
    pos = f.tell()
    left = f.seek(0, io.SEEK_END) - pos
    f.seek(pos)
    if n > left:
        raise TruncatedFileError(
            f"truncated while reading {what}: header declares {n} bytes, {left} left")


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
    _check_left(f, n, what)
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
    an open file object is yielded as is. A FileFormatError or
    TruncatedFileError raised while a path is read gets the path appended.

    A path opened for writing is rewritten in place, without O_TRUNC (ext4
    starts writeback when a file truncated to empty is closed), and a
    regular file is then cut at the end of what was written, or to empty
    if the body raises, so no old byte outlives the write.
    """
    if hasattr(path_or_file, "write" if "w" in mode else "read"):
        yield path_or_file
    elif "w" not in mode:
        with open(path_or_file, mode) as f:
            try:
                yield f
            except (FileFormatError, TruncatedFileError) as exc:
                raise type(exc)(f"{exc} (in {os.fspath(path_or_file)})") from None
    else:
        with open(os.open(path_or_file, os.O_WRONLY | os.O_CREAT, 0o666), mode) as f:
            regular = stat.S_ISREG(os.fstat(f.fileno()).st_mode)
            try:
                yield f
            except BaseException:
                if regular:
                    f.truncate(0)
                raise
            if regular:
                f.truncate()


def _write_header(f, magic, *fields):
    """An MLNT or MLNW header: the magic, FORMAT_VERSION, then u32 fields."""
    f.write(magic + struct.pack(f"<{1 + len(fields)}I", FORMAT_VERSION, *fields))


def _read_header(f, magic, count):
    """The ``count`` u32 fields after ``magic`` and the version;
    FileFormatError for another magic or version."""
    kind = _KINDS[magic]
    got = _read_exact(f, 4, "magic")
    if got != magic:
        raise FileFormatError(f"bad {kind} magic {bytes(got)!r}")
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
    """Write a {name: (weights, bias)} Mapping in the MLNW format.

    Per layer: name (u16 length + UTF-8), weight rank u8, weight dims
    u32 each, then float32 payload of the weights followed by the bias
    (bias length equals the leading weight dim). Layers are looked up
    and written one at a time, so a store that reads or draws a layer
    per lookup is never held whole. A WeightFile is read whole first,
    since the path may be its own file.
    """
    if isinstance(store, WeightFile):
        store = dict(store.items())
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


def _layer_headers(f):
    """Yield (name, weight dims) for each layer of an MLNW file, leaving f
    at that layer's payload, which the caller reads or skips; a name
    given twice is a FileFormatError."""
    count, = _read_header(f, WEIGHTS_MAGIC, 1)
    seen = set()
    for _ in range(count):
        nlen, = struct.unpack("<H", _read_exact(f, 2, "name length"))
        raw = _read_exact(f, nlen, "name")
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"layer name {bytes(raw)!r} is not UTF-8") from exc
        if name in seen:
            raise FileFormatError(f"layer {name!r} is stored twice")
        seen.add(name)
        rank, = struct.unpack("<B", _read_exact(f, 1, "rank"))
        if rank == 0:
            raise FileFormatError(f"layer {name!r}: weights have rank 0")
        yield name, struct.unpack(f"<{rank}I", _read_exact(f, 4 * rank, "dims"))


def _read_layer(f, name, dims):
    """The (weights, bias) payload of a layer, read at f's position."""
    return (_read_floats(f, dims, f"{name} weights"),
            _read_floats(f, dims[:1], f"{name} bias"))


def _identity(st):
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)


class WeightFile(Mapping):
    """A read-only {name: (weights, bias)} store over an MLNW file.

    It holds the layer headers only. Each lookup opens the file, checks
    that it is still the file indexed (ChangedFileError otherwise, naming
    the path), reads that layer's payload into fresh float32 arrays and
    closes the file.
    """

    def __init__(self, path, identity, layers):
        self.path = path
        self._identity = identity
        self._layers = layers      # name -> (weight dims, payload offset)

    @property
    def shapes(self):
        """{name: weight dims}, from the headers alone."""
        return {name: dims for name, (dims, _) in self._layers.items()}

    def __len__(self):
        return len(self._layers)

    def __iter__(self):
        return iter(self._layers)

    def __contains__(self, name):
        return name in self._layers

    def __getitem__(self, name):
        dims, offset = self._layers[name]
        changed = f"weights file {self.path} changed after it was loaded"
        try:
            f = open(self.path, "rb")
        except FileNotFoundError:
            raise ChangedFileError(f"weights file {self.path} was removed after it "
                                   f"was loaded") from None
        with f:
            if _identity(os.fstat(f.fileno())) != self._identity:
                raise ChangedFileError(changed)
            f.seek(offset)
            try:
                return _read_layer(f, name, dims)
            except TruncatedFileError as exc:     # cut after the check
                raise ChangedFileError(f"{changed}: {exc}") from None


def load_weights(path_or_file):
    """Read an MLNW file as a {name: (weights, bias)} store.

    A path to a regular file gives a WeightFile: only the layer headers
    are read, and every payload is checked to lie inside the file
    (TruncatedFileError otherwise). Any other path, and an open file
    object, is read whole into a dict.
    """
    with _opened(path_or_file, "rb") as f:
        st = None if f is path_or_file else os.fstat(f.fileno())
        if st is None or not stat.S_ISREG(st.st_mode):
            return {name: _read_layer(f, name, dims) for name, dims in _layer_headers(f)}
        layers = {}
        for name, dims in _layer_headers(f):
            layers[name] = (dims, f.tell())
            n = 4 * (math.prod(dims) + dims[0])
            _check_left(f, n, f"{name} weights and bias")
            f.seek(n, io.SEEK_CUR)
    return WeightFile(os.fspath(path_or_file), _identity(st), layers)


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
