"""Which library calls the traced run wraps, and the per-layer metrics
and per-conv-layer table derived from the spans.

Layer names follow the library's modules: ``tensor_ops``, ``network``,
``groundtruth``, ``fileio``, ``synth``, ``decoder`` and ``evalkit``.
Every wrapper is installed on the module attribute the program calls
through, so the wrapped function is the one the program runs.
"""

from mlnpose import decoder, evalkit, fileio, groundtruth, network, synth
from mlnpose.skeleton import Visibility

from tracer import PhaseTotals

# Graph layer kind -> span name of the tensor_ops call that computes it.
OP_SPANS = {"conv": "tensor_ops.conv2d", "relu": "tensor_ops.relu",
            "maxpool2": "tensor_ops.maxpool2", "concat": "tensor_ops.concat_channels"}
GROUPS = ("vgg", "reduce", "heads", "transfer", "refine")
MLNT_HEADER_BYTES = 24   # magic + version + four u32 dims


def layer_group(name):
    """Network stage of a layer, from its name prefix (see build_mln)."""
    if name.startswith(("conv", "pool")):
        return "vgg"
    if name.startswith("reduce"):
        return "reduce"
    if name.startswith(("joint_", "limb_")):
        return "heads"
    if name.startswith("xfer_"):
        return "transfer"
    if name.startswith("refine_"):
        return "refine"
    raise ValueError(f"layer {name!r} belongs to no known stage")


def _conv_work(tracer, span, args, kwargs, out):
    # MACs and bytes follow from the shapes passed in and returned:
    # bias adds are not MACs, and bytes are the float32 sizes of the
    # input, weights, bias and output ("computed from tensor sizes").
    x, w = args[0], args[1]
    bias = args[2] if len(args) > 2 else kwargs.get("bias")
    batch, cin = x.shape[:2]
    cout, _, kh, kw = w.shape
    oh, ow = out.shape[2:]
    macs = batch * cout * cin * kh * kw * oh * ow
    nbytes = 4 * (x.size + w.size + out.size + (0 if bias is None else bias.size))
    span.extra.update(macs=macs, bytes=nbytes)
    tracer.add("tensor_ops.conv2d.calls", 1)
    tracer.add("tensor_ops.conv2d.macs", macs)
    tracer.add("tensor_ops.conv2d.bytes_computed", nbytes)


def _visible(kp):
    return kp is not None and kp.visibility == Visibility.VISIBLE


def _joint_cells(tracer, span, args, kwargs, out):
    # The renderer evaluates the whole map once per visible joint.
    people, skeleton = args[0], args[1]
    h, w = out.shape[-2:]
    n = sum(_visible(p.keypoints[j]) for p in people for j in range(skeleton.num_joints))
    tracer.add("groundtruth.cells_computed", n * h * w)


def _limb_cells(tracer, span, args, kwargs, out):
    people, skeleton = args[0], args[1]
    h, w = out.shape[-2:]
    n = sum(_visible(p.keypoints[a]) and _visible(p.keypoints[b])
            for p in people for a, b in skeleton.limbs)
    tracer.add("groundtruth.cells_computed", n * h * w)


def _written_bytes(tracer, span, args, kwargs, out):
    tracer.add("fileio.bytes", MLNT_HEADER_BYTES + 4 * args[1].size)


def _read_bytes(tracer, span, args, kwargs, out):
    tracer.add("fileio.bytes", MLNT_HEADER_BYTES + 4 * out.size)


def _weight_bytes(tracer, span, args, kwargs, out):
    tracer.add("fileio.bytes", sum(4 * (w.size + b.size) for w, b in out.values()))


def _peaks(tracer, span, args, kwargs, out):
    tracer.add("decoder.peaks", len(out[1]))


def _pairs(tracer, span, args, kwargs, out):
    peaks_by_type, skeleton = args[0], args[2]
    tracer.add("decoder.candidate_pairs", sum(len(peaks_by_type[a]) * len(peaks_by_type[b])
                                              for a, b in skeleton.limbs))
    tracer.add("decoder.connections", sum(len(conns) for conns in out))


def _people(tracer, span, args, kwargs, out):
    tracer.add("decoder.people", len(out))


def _eval_sizes(tracer, span, args, kwargs, out):
    tracer.add("evalkit.detections", len(args[0]))
    tracer.add("evalkit.ground_truths", len(args[1]))


def add_hooks(tracer):
    for attr in ("conv2d", "relu", "maxpool2", "concat_channels"):
        tracer.span(network, attr, f"tensor_ops.{attr}",
                    _conv_work if attr == "conv2d" else None)
    tracer.span(network, "forward", "network.forward")
    tracer.span(groundtruth, "render_joint_maps", "groundtruth.render_joint_maps", _joint_cells)
    tracer.span(groundtruth, "render_pafs", "groundtruth.render_pafs", _limb_cells)
    tracer.span(fileio, "write_tensor", "fileio.write_tensor", _written_bytes)
    tracer.span(fileio, "read_tensor", "fileio.read_tensor", _read_bytes)
    tracer.span(fileio, "load_weights", "fileio.load_weights", _weight_bytes)
    tracer.span(synth, "sample_scene", "synth.sample_scene")
    tracer.span(synth, "corrupt_maps", "synth.corrupt_maps")
    tracer.span(decoder, "decode", "decoder.decode")
    tracer.span(decoder, "find_all_peaks", "decoder.find_all_peaks", _peaks)
    tracer.span(decoder, "match_all_limbs", "decoder.match_all_limbs", _pairs)
    tracer.span(decoder, "assemble_skeletons", "decoder.assemble_skeletons", _people)
    tracer.span(evalkit, "average_precision", "evalkit.average_precision", _eval_sizes)
    tracer.counter(evalkit, "oks", "evalkit.oks.calls")


def forward_layers(tracer, graph):
    """Pair each timed forward's tensor_ops calls with the graph layers
    they compute; ``_execute`` makes one call per layer, in graph order."""
    ops = [spec for spec in graph.layers if spec.kind in OP_SPANS]
    expected = [OP_SPANS[spec.kind] for spec in ops]
    kids = {}
    for sp in tracer.spans:
        kids.setdefault(sp.parent, []).append(sp)
    rows = []
    for i, sp in enumerate(tracer.spans):
        if sp.name != "network.forward" or sp.phase != "timed":
            continue
        calls = kids.get(i, [])
        if [c.name for c in calls] != expected:
            raise RuntimeError("tensor_ops calls of a forward pass do not follow "
                               "the graph's layer order")
        rows.append(list(zip(ops, calls)))
    return rows


def per_layer_metrics(tracer, timed_items, setups, forwards):
    """Every per-layer metric named in BENCHMARK.json, as name -> value;
    ``forwards`` is what ``forward_layers`` returns."""
    t = PhaseTotals(tracer, timed_items, setups)
    m = {}
    macs = t.count("tensor_ops.conv2d.macs")
    conv_s = t.time("tensor_ops.conv2d")
    nbytes = t.count("tensor_ops.conv2d.bytes_computed")
    m["tensor_ops.conv2d.calls"] = t.count("tensor_ops.conv2d.calls")
    m["tensor_ops.conv2d.s"] = conv_s
    m["tensor_ops.conv2d.macs"] = macs
    m["tensor_ops.conv2d.gmac_per_s"] = macs / conv_s / 1e9 if conv_s else 0.0
    m["tensor_ops.conv2d.bytes_computed"] = nbytes
    m["tensor_ops.conv2d.ops_per_byte_computed"] = macs / nbytes if nbytes else 0.0
    for name in ("relu", "maxpool2", "concat_channels"):
        m[f"tensor_ops.{name}.s"] = t.time(f"tensor_ops.{name}")

    forward_s = sum(sp.seconds for sp in tracer.spans
                    if sp.name == "network.forward" and sp.phase == "timed")
    m["network.forward.s"] = forward_s / t.timed_items
    m["network.forward.other_s"] = t.time("network.forward")
    group_s = dict.fromkeys(GROUPS, 0.0)
    group_macs = dict.fromkeys(GROUPS, 0)
    for layers in forwards:
        for spec, call in layers:
            group = layer_group(spec.name)
            group_s[group] += call.seconds
            group_macs[group] += call.extra.get("macs", 0)
    for group in GROUPS:
        m[f"network.{group}.s"] = group_s[group] / t.timed_items
        m[f"network.{group}.gmac_per_s"] = (group_macs[group] / group_s[group] / 1e9
                                            if group_s[group] else 0.0)

    for name in ("groundtruth.render_joint_maps", "groundtruth.render_pafs"):
        m[f"{name}.s"] = t.time(name)
    m["groundtruth.cells_computed"] = t.count("groundtruth.cells_computed")
    for name in ("fileio.write_tensor", "fileio.read_tensor"):
        m[f"{name}.s"] = t.time(name)
    m["fileio.bytes"] = t.count("fileio.bytes")
    m["fileio.load_weights.s"] = t.time("fileio.load_weights")
    m["synth.sample_scene.s"] = t.time("synth.sample_scene")
    m["synth.corrupt_maps.s"] = t.time("synth.corrupt_maps")

    pairs = t.count("decoder.candidate_pairs")
    connections = t.count("decoder.connections")
    m["decoder.find_all_peaks.s"] = t.time("decoder.find_all_peaks")
    m["decoder.peaks"] = t.count("decoder.peaks")
    m["decoder.match_all_limbs.s"] = t.time("decoder.match_all_limbs")
    m["decoder.candidate_pairs"] = pairs
    m["decoder.connections"] = connections
    m["decoder.connection_accept_ratio"] = connections / pairs if pairs else 0.0
    m["decoder.assemble_skeletons.s"] = t.time("decoder.assemble_skeletons")
    m["decoder.people"] = t.count("decoder.people")

    m["evalkit.average_precision.s"] = t.time("evalkit.average_precision")
    m["evalkit.oks.calls"] = t.count("evalkit.oks.calls")
    m["evalkit.detections"] = t.count("evalkit.detections")
    m["evalkit.ground_truths"] = t.count("evalkit.ground_truths")
    return m


def conv_table(forwards, graph, input_chw):
    """One row per conv layer: complexity_report's mac1 count next to the
    measured conv2d time of the timed forwards."""
    report = network.complexity_report(graph, input_chw)
    mac1 = {row["name"]: row["flops_mac1"] for row in report.per_layer}
    seconds, calls, nbytes = {}, {}, {}
    for layers in forwards:
        for spec, call in layers:
            if spec.kind == "conv":
                seconds[spec.name] = seconds.get(spec.name, 0.0) + call.seconds
                calls[spec.name] = calls.get(spec.name, 0) + 1
                nbytes[spec.name] = call.extra["bytes"]
    rows = []
    for spec in graph.conv_layers():
        n = calls.get(spec.name, 0)
        s = seconds.get(spec.name, 0.0) / n if n else 0.0
        rows.append({"layer": spec.name, "stage": layer_group(spec.name),
                     "mac1": mac1[spec.name], "seconds": s,
                     "gmac_per_s": mac1[spec.name] / s / 1e9 if s else 0.0,
                     "bytes_computed_from_tensor_sizes": nbytes.get(spec.name, 0)})
    return rows


def format_conv_table(rows):
    lines = [f"{'conv layer':28s} {'stage':9s} {'mac1':>15s} {'ms':>9s} "
             f"{'GMAC/s':>8s} {'bytes (computed from tensor sizes)':>35s}"]
    for r in rows:
        lines.append(f"{r['layer']:28s} {r['stage']:9s} {r['mac1']:>15,d} "
                     f"{r['seconds'] * 1e3:>9.2f} {r['gmac_per_s']:>8.2f} "
                     f"{r['bytes_computed_from_tensor_sizes']:>35,d}")
    return "\n".join(lines)
