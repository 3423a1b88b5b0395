"""Two-branch detection network: graph construction, shape inference,
forward inference, and parameter/FLOP/model-size accounting.

Topology: a VGG-19 conv prefix (through its 10th conv, pools after the
first three blocks, stride 8) followed by two 3x3 reduction convs down
to 128 channels (the bifurcation layer); two detection branches (joint
and limb heads); two cross-branch feature-transfer sub-networks of 4
blocks; and per-branch refinement of 7 blocks fed by both heads, the
transferred features and the bifurcation features. Blocks are three
3x3 convs whose outputs are aggregated (channel concat by default,
addition selectable) before the next block. Every conv keeps its
input's H and W (``tensor_ops.conv2d``), so the three 2x2 pools alone
set the output stride, ``NetworkGraph.stride``.

Every layer records its output channel count when the graph is built;
``plan`` is the one walk of the graph for an input shape. It gives each
layer's output shape, its multiply-accumulates, the activations it
reads last, whether it runs in place, writing its output over the input
it is the last reader of (a ReLU of a conv output, or a conv with as
many outputs as inputs), and ``live_bytes``, the memory held while the
layer runs. ``forward`` runs its steps, in place where they say so, and
frees what they name; ``complexity_report`` reads their shapes and
MACs.

The exact channel plan of the published model is not recoverable from
its description; docs/reconstruction.md records the per-layer breakdown
of this reconstruction and its gap to the published totals.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import fileio
from .config import Config
from .fileio import save_weights  # network.save_weights pairs with load_weights
from .tensor_ops import (LayerSpec, ShapeError, chunk_rows, concat_channels, conv2d,
                         layer_param_count, maxpool2, relu)

# VGG-19 conv prefix through conv4_2 as (name, output channels), with a
# 2x2 max-pool (None) after blocks 1-3.
_VGG_PREFIX = (
    ("conv1_1", 64), ("conv1_2", 64), ("pool1", None),
    ("conv2_1", 128), ("conv2_2", 128), ("pool2", None),
    ("conv3_1", 256), ("conv3_2", 256), ("conv3_3", 256), ("conv3_4", 256),
    ("pool3", None), ("conv4_1", 512), ("conv4_2", 512),
)


@dataclass(frozen=True)
class NetworkConfig(Config):
    block_channels: int = 128
    transfer_blocks: int = 4
    refine_blocks: int = 7
    aggregation: str = "concat"        # or "add"
    branch_mid_channels: int = 512     # 1x1 conv before each detection head
    transfer_tap: str = "features"     # "features" (last 3x3 conv) or "penultimate" (1x1 mid)
    transfer_output_channels: int = 128

    def __post_init__(self):
        super().__post_init__()
        for name, low in (("block_channels", 1), ("branch_mid_channels", 1),
                          ("transfer_output_channels", 1), ("transfer_blocks", 0),
                          ("refine_blocks", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)!r}")
        if self.aggregation not in ("concat", "add"):
            raise ValueError(f"aggregation must be 'concat' or 'add', got {self.aggregation!r}")
        if self.transfer_tap not in ("features", "penultimate"):
            raise ValueError(f"transfer_tap must be 'features' or 'penultimate', "
                             f"got {self.transfer_tap!r}")


@dataclass(frozen=True)
class NetworkGraph:
    layers: tuple          # topologically ordered LayerSpecs
    joint_output: str
    limb_output: str

    @property
    def stride(self):
        """Input pixels per output cell: each 2x2 pool halves H and W."""
        return 2 ** sum(spec.kind == "maxpool2" for spec in self.layers)

    @property
    def input_channels(self):
        return self.layer("input").out_channels

    def layer(self, name):
        for spec in self.layers:
            if spec.name == name:
                return spec
        raise KeyError(f"no layer named {name!r}")

    def conv_layers(self):
        return [spec for spec in self.layers if spec.kind == "conv"]


class _Builder:
    def __init__(self):
        self.specs = {}        # name -> LayerSpec, in topological order

    def add(self, name, kind, inputs, out_channels, **conv):
        for dep in inputs:
            if dep not in self.specs:
                raise ValueError(f"layer {name!r} references unknown input {dep!r}")
        if name in self.specs:
            raise ValueError(f"duplicate layer name {name!r}")
        self.specs[name] = LayerSpec(name, kind, tuple(inputs), out_channels=out_channels,
                                     **conv)
        return name

    def conv(self, name, src, cout, k=3, relu_after=True):
        self.add(name, "conv", (src,), cout, kernel=(k, k),
                 in_channels=self.specs[src].out_channels)
        if relu_after:
            return self.add(name + "_relu", "relu", (name,), cout)
        return name

    def pool(self, name, src):
        return self.add(name, "maxpool2", (src,), self.specs[src].out_channels)

    def merge(self, name, srcs, mode):
        channels = [self.specs[s].out_channels for s in srcs]
        return self.add(name, mode, srcs, sum(channels) if mode == "concat" else channels[0])

    def block(self, prefix, src, cfg):
        """Three 3x3 convs with aggregated outputs; returns the block output."""
        ch = cfg.block_channels
        c1 = self.conv(f"{prefix}_c1", src, ch)
        c2 = self.conv(f"{prefix}_c2", c1, ch)
        c3 = self.conv(f"{prefix}_c3", c2, ch)
        return self.merge(f"{prefix}_out", [c1, c2, c3], cfg.aggregation)


def build_mln(skeleton, config=None):
    """Construct the full two-branch graph for a skeleton definition."""
    cfg = config or NetworkConfig()
    joint_out = skeleton.joint_map_channels
    limb_out = skeleton.limb_map_channels
    if joint_out < 1 or limb_out < 1:
        raise ValueError("skeleton must define at least one joint and one limb")
    b = _Builder()
    cur = b.add("input", "input", (), 3)
    for name, cout in _VGG_PREFIX:
        cur = b.pool(name, cur) if cout is None else b.conv(name, cur, cout)
    cur = b.conv("reduce1", cur, 256)
    bifurcation = b.conv("reduce2", cur, 128)

    taps = {}
    heads = {}
    for branch, out_ch in (("joint", joint_out), ("limb", limb_out)):
        cur = bifurcation
        for i in (1, 2, 3):
            cur = b.conv(f"{branch}_conv{i}", cur, cfg.block_channels)
        features = cur
        mid = b.conv(f"{branch}_conv4", cur, cfg.branch_mid_channels, k=1)
        heads[branch] = b.conv(f"{branch}_head", mid, out_ch, k=1, relu_after=False)
        taps[branch] = features if cfg.transfer_tap == "features" else mid

    xfer_input = b.merge("xfer_input", [taps["joint"], taps["limb"]], "concat")
    xfer = {}
    for target in ("joint", "limb"):
        cur = xfer_input
        for i in range(cfg.transfer_blocks):
            cur = b.block(f"xfer_{target}_b{i}", cur, cfg)
        xfer[target] = b.conv(f"xfer_{target}_out", cur, cfg.transfer_output_channels,
                              k=1, relu_after=False)

    outputs = {}
    for branch, out_ch in (("joint", joint_out), ("limb", limb_out)):
        parts = [heads["joint"], heads["limb"], xfer[branch], bifurcation]
        cur = b.merge(f"refine_{branch}_input", parts, "concat")
        for i in range(cfg.refine_blocks):
            cur = b.block(f"refine_{branch}_b{i}", cur, cfg)
        outputs[branch] = b.conv(f"refine_{branch}_head", cur, out_ch, k=1, relu_after=False)

    return NetworkGraph(layers=tuple(b.specs.values()),
                        joint_output=outputs["joint"],
                        limb_output=outputs["limb"])


class MissingWeightError(fileio.WeightShapeError):
    """A conv layer has no entry in the weight store: it does not fit the graph."""


def _check_store(graph, store):
    """The one check of a store against the graph: every conv layer present
    (MissingWeightError), with its weight and bias shapes (WeightShapeError).
    A ``fileio.WeightFile`` is checked from its headers, reading no payload."""
    shapes = ({name: (dims, dims[:1]) for name, dims in store.shapes.items()}
              if isinstance(store, fileio.WeightFile)
              else {name: (np.shape(w), np.shape(b)) for name, (w, b) in store.items()})
    for spec in graph.conv_layers():
        if spec.name not in shapes:
            raise MissingWeightError(f"no weights for layer {spec.name!r}")
        w_shape, b_shape = shapes[spec.name]
        if w_shape != spec.weight_shape:
            raise fileio.WeightShapeError(
                f"layer {spec.name!r}: weight shape {w_shape} != {spec.weight_shape}")
        if b_shape != (spec.out_channels,):
            raise fileio.WeightShapeError(
                f"layer {spec.name!r}: bias shape {b_shape} != {(spec.out_channels,)}")


@dataclass(frozen=True)
class Step:
    """One layer of a planned forward pass."""
    spec: LayerSpec
    out_shape: tuple       # (C, H, W)
    macs: int              # multiply-accumulates of a conv; 0 for other kinds
    frees: tuple           # activations whose last reader is this layer
    in_place: bool         # a ReLU or conv that writes over the input it frees
    live_bytes: int        # bytes held while the layer runs, for one image


def plan(graph, input_shape):
    """The one walk of the graph: a Step per layer, in graph order, for a
    (C, H, W) input.

    Channels are each layer's ``out_channels``; a 2x2 pool halves the
    spatial dims, and every other layer, a conv included, keeps those of
    its first input. An activation is freed after the last layer that
    reads it (after its own layer if none does); the two heads never
    are. A layer runs in place when it is the last reader of its input
    and is a ReLU of a conv output, or a conv with as many outputs as
    inputs that does not read the caller's image; neither ever writes
    that image. ``live_bytes`` counts the float32 activations held when
    the layer starts, its output (none in place), and its scratch: a
    conv's float64 weight matrix and its two chunk buffers
    (``tensor_ops.chunk_rows``), or a pool's one temporary. It leaves out
    the weight store; a ``fileio.WeightFile`` adds the running conv's
    float32 weights and bias, read for that layer alone. Raises
    ShapeError unless the input fits.
    """
    c, h, w = input_shape
    stride = graph.stride
    if c != graph.input_channels:
        raise ShapeError(f"input must have {graph.input_channels} channels, got {c}")
    if h < 1 or w < 1 or h % stride or w % stride:
        raise ShapeError(f"spatial dims must be positive multiples of {stride}, "
                         f"got {h}x{w}")
    last = {}
    for i, spec in enumerate(graph.layers):
        for name in (spec.name, *spec.inputs):
            last[name] = i
    frees = [[] for _ in graph.layers]
    for name, i in last.items():
        if name not in (graph.joint_output, graph.limb_output):
            frees[i].append(name)
    shapes = {}
    kinds = {}
    held = {}              # activation -> float32 bytes, while it is live
    steps = []
    for spec, freed in zip(graph.layers, frees):
        hw = shapes[spec.inputs[0]][1:] if spec.inputs else (h, w)
        if spec.kind == "maxpool2":
            hw = (hw[0] // 2, hw[1] // 2)
        macs = math.prod(spec.weight_shape) * hw[0] * hw[1] if spec.kind == "conv" else 0
        shapes[spec.name] = (spec.out_channels, *hw)
        kinds[spec.name] = spec.kind
        src = spec.inputs[0] if spec.inputs else None
        in_place = src in freed and (
            (spec.kind == "relu" and kinds[src] == "conv")
            or (spec.kind == "conv" and kinds[src] != "input"
                and spec.in_channels == spec.out_channels))
        out_bytes = 4 * math.prod(shapes[spec.name])
        scratch = 0
        if spec.kind == "conv":
            k = math.prod(spec.weight_shape[1:])
            rows = chunk_rows(k, spec.out_channels, *hw,
                              least=spec.kernel[0] // 2 if in_place else 1)
            scratch = 8 * (spec.out_channels * k + (k + spec.out_channels) * rows * hw[1])
        elif spec.kind == "maxpool2":
            scratch = out_bytes
        live = sum(held.values()) + (0 if in_place else out_bytes) + scratch
        held[spec.name] = out_bytes
        for name in freed:
            del held[name]
        steps.append(Step(spec, shapes[spec.name], macs, tuple(freed), in_place, live))
    return steps


def _execute(graph, weights, image, wanted=None):
    image = np.asarray(image, dtype=np.float32)
    if image.ndim != 4:
        raise ShapeError(f"image must be (B,{graph.input_channels},H,W), got {image.shape}")
    if not np.isfinite(image).all():
        raise ValueError("image must be finite")
    steps = plan(graph, image.shape[1:])
    _check_store(graph, weights)
    acts = {}
    for step in steps:
        spec = step.spec
        if spec.kind == "input":
            # From here only acts holds the image, so a float32 copy made
            # above is freed after its last reader, as the plan frees it.
            acts[spec.name], image = image, None
        elif spec.kind == "conv":
            try:
                w, bias = weights[spec.name]
                acts[spec.name] = conv2d(acts[spec.inputs[0]], w, bias,
                                         out=acts[spec.inputs[0]] if step.in_place else None)
            except ValueError as exc:
                # A WeightFile's ChangedFileError or conv2d's checks; name the layer.
                raise type(exc)(f"layer {spec.name!r}: {exc}") from None
            # Arrays read from a WeightFile are freed here, so the forward
            # holds one layer's weights at a time.
            del w, bias
        elif spec.kind == "relu":
            # No local names the input, which would keep it alive past
            # its last reader.
            acts[spec.name] = relu(acts[spec.inputs[0]],
                                   out=acts[spec.inputs[0]] if step.in_place else None)
        elif spec.kind == "maxpool2":
            acts[spec.name] = maxpool2(acts[spec.inputs[0]])
        elif spec.kind == "concat":
            acts[spec.name] = concat_channels([acts[s] for s in spec.inputs])
        elif spec.kind == "add":
            # Summed in place in ``acts`` so no local keeps the sum alive
            # past its last reader.
            acts[spec.name] = acts[spec.inputs[0]].copy()
            for s in spec.inputs[1:]:
                acts[spec.name] += acts[s]
        if spec.name == wanted:
            return acts[spec.name]
        for name in step.frees:
            del acts[name]
    return acts


def forward(graph, weights, image):
    """Run the graph on a finite image (ValueError otherwise); returns
    (joint_maps, limb_maps) at stride resolution. After the image and
    before any layer runs, the store must hold every conv layer at its
    weight and bias shapes (MissingWeightError, WeightShapeError). An
    error met while a layer runs starts with "layer '<name>':". A
    ``fileio.WeightFile`` store is read one layer at a time, as each conv
    runs, so its file must not be rewritten during the forward; a changed
    file raises ``fileio.ChangedFileError``."""
    acts = _execute(graph, weights, image)
    return acts[graph.joint_output], acts[graph.limb_output]


def dump_activation(graph, weights, image, layer_name):
    """Output tensor of one named layer for inspection; runs the graph
    only up to that layer, with the whole store checked first."""
    graph.layer(layer_name)
    return _execute(graph, weights, image, wanted=layer_name)


def random_weights(graph, seed=0):
    """He-style uniform init; deterministic in the seed."""
    rng = np.random.default_rng(seed)
    store = {}
    for spec in graph.conv_layers():
        shape = spec.weight_shape
        bound = float(np.sqrt(2.0 / math.prod(shape[1:])))
        w = rng.uniform(-bound, bound, size=shape).astype(np.float32)
        store[spec.name] = (w, np.zeros(spec.out_channels, dtype=np.float32))
    return store


@dataclass
class ComplexityReport:
    per_layer: list          # dicts: name, kind, params, flops_mac1, flops_mac2, out_shape
    total_params: int
    total_flops_mac1: int
    total_flops_mac2: int
    model_size_mb: float
    input_shape: tuple

    def to_dict(self):
        return asdict(self)

    def to_table(self):
        lines = [f"{'layer':32s} {'kind':8s} {'out shape':>16s} {'params':>12s} "
                 f"{'FLOPs(mac1)':>14s} {'FLOPs(mac2)':>14s}"]
        for row in self.per_layer:
            shape = "x".join(str(d) for d in row["out_shape"])
            lines.append(f"{row['name']:32s} {row['kind']:8s} {shape:>16s} "
                         f"{row['params']:>12,d} {row['flops_mac1']:>14,d} "
                         f"{row['flops_mac2']:>14,d}")
        lines.append("-" * len(lines[0]))
        lines.append(f"{'TOTAL':32s} {'':8s} {'':>16s} {self.total_params:>12,d} "
                     f"{self.total_flops_mac1:>14,d} {self.total_flops_mac2:>14,d}")
        lines.append(f"model size: {self.model_size_mb:.1f} MB "
                     f"({self.total_params:,d} params x 4 bytes)")
        return "\n".join(lines)


def complexity_report(graph, input_shape):
    """Per-layer and total params/FLOPs for a (C, H, W) input shape.

    A conv's bias adds count one FLOP each under either convention; a
    multiply-accumulate counts 1 FLOP under mac1 and 2 under mac2.
    """
    rows = []
    for step in plan(graph, input_shape):
        bias_adds = math.prod(step.out_shape) if step.spec.kind == "conv" else 0
        rows.append({"name": step.spec.name, "kind": step.spec.kind,
                     "params": layer_param_count(step.spec),
                     "flops_mac1": step.macs + bias_adds,
                     "flops_mac2": 2 * step.macs + bias_adds,
                     "out_shape": list(step.out_shape)})
    total_params = sum(row["params"] for row in rows)
    return ComplexityReport(per_layer=rows, total_params=total_params,
                            total_flops_mac1=sum(row["flops_mac1"] for row in rows),
                            total_flops_mac2=sum(row["flops_mac2"] for row in rows),
                            model_size_mb=total_params * 4 / 1e6,
                            input_shape=tuple(input_shape))


def load_weights(path_or_file, graph):
    """Load an MLNW store and check that it fits the graph, as ``forward``
    does; ``fileio.load_weights`` loads one without a graph.

    From a path the store is a ``fileio.WeightFile``: it is checked from
    the file's headers, no payload is read, and ``forward`` reads each
    layer from the file as it runs it."""
    store = fileio.load_weights(path_or_file)
    _check_store(graph, store)
    return store
