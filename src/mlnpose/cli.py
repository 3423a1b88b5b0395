"""Command-line surface: scene synthesis, map rendering, forward
inference, decoding, evaluation, complexity and latency reports.

Every command is a thin composition of module operations; with a fixed
seed and fixed inputs the output files are byte-identical. Each config
section is read by ``from_config`` of the ``config`` module's policy.
"""

import argparse
import json
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import decoder, evalkit, fileio, groundtruth, network, synth
from .skeleton import SkeletonDef, default_skeleton


class CliError(RuntimeError):
    pass


def load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as f:
            cfg = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise CliError(f"config {path} must hold a JSON object, got {type(cfg).__name__}")
    return cfg


def _section(cfg, name, cls):
    """``cls.from_config`` of the config section ``name`` ({} when absent);
    a section that is not an object or holds bad values raises CliError
    naming it."""
    try:
        return cls.from_config(cfg.get(name, {}))
    except (TypeError, ValueError) as exc:
        raise CliError(f"config section {name!r}: {exc}") from exc


def config_objects(cfg, filters=None):
    """The config sections as objects; ``filters`` ("on"/"off"), when
    given, overrides the decode section's ``filters_enabled``."""
    skeleton = (_section(cfg, "skeleton", SkeletonDef) if "skeleton" in cfg
                else default_skeleton())
    gt_cfg = _section(cfg, "groundtruth", groundtruth.GtConfig)
    net_cfg = _section(cfg, "network", network.NetworkConfig)
    params = _section(cfg, "decode", decoder.DecodeParams)
    if filters is not None:
        params = replace(params, filters_enabled=filters == "on")
    return skeleton, gt_cfg, net_cfg, params


def _dump_json(path, payload):
    with open(path, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")


def _map_dims(image_dims, stride):
    h, w = image_dims
    return (h // stride, w // stride)


def _render_scene_maps(people, skeleton, gt_cfg, image_dims):
    dims = _map_dims(image_dims, gt_cfg.output_stride)
    joints = groundtruth.render_joint_maps(people, skeleton, gt_cfg, dims)
    limbs = groundtruth.render_pafs(people, skeleton, gt_cfg, dims)
    return joints, limbs


def cmd_synth(args):
    cfg = load_config(args.config)
    skeleton, gt_cfg, _, _ = config_objects(cfg)
    base = _section(cfg, "scene", synth.SceneConfig)
    h, w = base.image_dims
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def one(i):
        people = synth.sample_scene(replace(base, seed=synth.derive_seed(args.seed, i)))
        joints, limbs = _render_scene_maps(people, skeleton, gt_cfg, base.image_dims)
        fileio.write_tensor(out / f"scene_{i:04d}_joints.mlnt", joints[None])
        fileio.write_tensor(out / f"scene_{i:04d}_limbs.mlnt", limbs[None])
        return people

    with ThreadPoolExecutor(max_workers=args.threads) as pool:
        scenes = list(pool.map(one, range(1, args.scenes + 1)))

    images = {i: {"height": h, "width": w} for i in range(1, args.scenes + 1)}
    instances = []
    for i, people in zip(range(1, args.scenes + 1), scenes):
        for person in people:
            xs = [kp.x for kp in person.keypoints if kp is not None]
            ys = [kp.y for kp in person.keypoints if kp is not None]
            area = (max(xs) - min(xs)) * (max(ys) - min(ys))
            instances.append(evalkit.GroundTruthInstance(i, person, area))
    _dump_json(out / "annotations.json", evalkit.write_annotations(images, instances, skeleton))
    print(f"wrote {args.scenes} scenes ({len(instances)} people) to {out}")
    return 0


def cmd_render_gt(args):
    cfg = load_config(args.config)
    skeleton, gt_cfg, _, _ = config_objects(cfg)
    with open(args.annotations) as f:
        store = evalkit.parse_annotations(f.read(), skeleton)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def one(image_id):
        meta = store.images[image_id]
        people = [g.person for g in store.by_image(image_id)]
        joints, limbs = _render_scene_maps(people, skeleton, gt_cfg,
                                           (meta["height"], meta["width"]))
        fileio.write_tensor(out / f"scene_{image_id:04d}_joints.mlnt", joints[None])
        fileio.write_tensor(out / f"scene_{image_id:04d}_limbs.mlnt", limbs[None])

    ids = sorted(store.images)
    with ThreadPoolExecutor(max_workers=args.threads) as pool:
        list(pool.map(one, ids))
    print(f"rendered maps for {len(ids)} images to {out}")
    return 0


def _load_image(path):
    path = Path(path)
    if path.suffix == ".mlnt":
        return fileio.read_tensor(path)
    image = fileio.read_ppm(path).astype(np.float32)
    # Same normalization used to train detection confidences into [0,1].
    image = image / 256.0 - 0.5
    return image.transpose(2, 0, 1)[None]


def cmd_forward(args):
    cfg = load_config(args.config)
    skeleton, _, net_cfg, _ = config_objects(cfg)
    graph = network.build_mln(skeleton, net_cfg)
    if args.weights:
        weights = network.load_weights(args.weights, graph)
    else:
        weights = network.random_weights(graph, seed=args.seed)
    image = _load_image(args.image)
    joints, limbs = network.forward(graph, weights, image)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_tensor(out / "joints.mlnt", joints)
    fileio.write_tensor(out / "limbs.mlnt", limbs)
    print(f"joint maps {tuple(joints.shape)}, limb maps {tuple(limbs.shape)} -> {out}")
    return 0


def _decode_pairs(args):
    if args.maps:
        root = Path(args.maps)
        pairs = []
        for jpath in sorted(root.glob("*_joints.mlnt")):
            lpath = jpath.with_name(jpath.name.replace("_joints", "_limbs"))
            if not lpath.exists():
                raise CliError(f"missing limb maps for {jpath}")
            stem = jpath.name[:-len("_joints.mlnt")]
            image_id = int(stem.rsplit("_", 1)[-1])
            pairs.append((image_id, jpath, lpath))
        if not pairs:
            raise CliError(f"no *_joints.mlnt files under {root}")
        return pairs
    if not (args.joints and args.limbs):
        raise CliError("provide either --maps DIR or --joints/--limbs files")
    return [(args.image_id, Path(args.joints), Path(args.limbs))]


def cmd_decode(args):
    cfg = load_config(args.config)
    skeleton, gt_cfg, _, params = config_objects(cfg, filters=args.filters)
    pairs = _decode_pairs(args)

    def one(item):
        image_id, jpath, lpath = item
        joints = fileio.read_tensor(jpath)[0]
        limbs = fileio.read_tensor(lpath)[0]
        people = decoder.decode(joints, limbs, skeleton, params,
                                stride=gt_cfg.output_stride)
        return [evalkit.Detection(image_id, person) for person in people]

    with ThreadPoolExecutor(max_workers=args.threads) as pool:
        detections = [d for batch in pool.map(one, pairs) for d in batch]
    _dump_json(args.out, evalkit.write_results(detections))
    print(f"decoded {len(pairs)} map pairs -> {len(detections)} people -> {args.out}")
    return 0


def cmd_eval(args):
    cfg = load_config(args.config)
    skeleton, _, _, _ = config_objects(cfg)
    with open(args.annotations) as f:
        store = evalkit.parse_annotations(f.read(), skeleton)
    with open(args.results) as f:
        dets = evalkit.parse_results(f.read(), skeleton)
    constants = cfg.get("oks_constants", evalkit.DEFAULT_OKS_CONSTANTS)
    if not isinstance(constants, (list, tuple)):
        raise CliError("oks_constants must be an array")
    result = evalkit.average_precision(dets, store.instances, constants=constants)
    print(result.to_table())
    if args.out:
        _dump_json(args.out, result.to_dict())
    return 0


def cmd_complexity(args):
    cfg = load_config(args.config)
    skeleton, _, net_cfg, _ = config_objects(cfg)
    graph = network.build_mln(skeleton, net_cfg)
    h, w = (int(v) for v in args.input_dims.split("x"))
    report = network.complexity_report(graph, (3, h, w))
    print(report.to_table())
    flops = (report.total_flops_mac1 if args.flop_convention == "mac1"
             else report.total_flops_mac2)
    print(f"headline ({args.flop_convention}): {report.total_params:,d} params, "
          f"{flops / 1e9:.1f} GFLOPs at {h}x{w}, {report.model_size_mb:.1f} MB")
    if args.out:
        _dump_json(args.out, report.to_dict())
    return 0


def _percentiles(samples_ms):
    ordered = sorted(samples_ms)
    p50 = ordered[len(ordered) // 2]
    p99 = ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]
    return statistics.fmean(samples_ms), p50, p99


def cmd_bench(args):
    cfg = load_config(args.config)
    skeleton, gt_cfg, _, params = config_objects(cfg, filters=args.filters)
    image_dims = (368, 432)
    scene_cfg = synth.SceneConfig(image_dims=image_dims,
                                  person_count=(args.people, args.people),
                                  limb_length_range=(8.0, 16.0),
                                  min_spacing=80.0, seed=args.seed)
    people = synth.sample_scene(scene_cfg)
    joints, limbs = _render_scene_maps(people, skeleton, gt_cfg, image_dims)
    stride = gt_cfg.output_stride
    times = {"nms": [], "scoring": [], "assembly": []}
    for _ in range(args.reps):
        t0 = time.perf_counter()
        peaks_by_type, peaks = decoder.find_all_peaks(joints, skeleton, params, stride)
        t1 = time.perf_counter()
        conns = decoder.match_all_limbs(peaks_by_type, limbs, skeleton, params, stride)
        t2 = time.perf_counter()
        decoder.assemble_skeletons(conns, peaks, skeleton, params)
        t3 = time.perf_counter()
        times["nms"].append((t1 - t0) * 1e3)
        times["scoring"].append((t2 - t1) * 1e3)
        times["assembly"].append((t3 - t2) * 1e3)
    grouping = [s + a for s, a in zip(times["scoring"], times["assembly"])]
    report = {"people": args.people, "map_dims": list(_map_dims(image_dims, stride)),
              "repetitions": args.reps, "stages_ms": {}}
    print(f"{args.people}-person scene, {_map_dims(image_dims, stride)[0]}x"
          f"{_map_dims(image_dims, stride)[1]} maps, {args.reps} repetitions")
    for stage, samples in list(times.items()) + [("grouping (scoring+assembly)", grouping)]:
        mean, p50, p99 = _percentiles(samples)
        key = stage.split(" ")[0]
        report["stages_ms"][key] = {"mean": mean, "p50": p50, "p99": p99}
        print(f"  {stage:28s} mean {mean:7.3f} ms   p50 {p50:7.3f} ms   p99 {p99:7.3f} ms")
    print("  reference grouping times reported for the original model: "
          "0.2 ms (2 people), 0.6 ms (10 people)")
    if args.out:
        _dump_json(args.out, report)
    return 0


def _clip_to_canvas(ka, kb, h, w):
    """The part of segment ka-kb inside [0, w - 1] x [0, h - 1], the span
    of pixel centres, as [[x0, y0], [x1, y1]], or None when it misses that
    box. An endpoint beyond an edge moves along the segment onto the edge,
    interpolated from the other endpoint; an endpoint inside stays as
    given. Halved coordinates keep finite inputs from overflowing."""
    ends = [[ka.x, ka.y], [kb.x, kb.y]]
    for axis, top in ((0, w - 1.0), (1, h - 1.0)):
        for edge, sign in ((0.0, -1.0), (top, 1.0)):
            beyond = [sign * (p[axis] - edge) > 0.0 for p in ends]
            if all(beyond):
                return None
            if any(beyond):
                p, q = ends if beyond[0] else ends[::-1]
                f = (edge / 2 - q[axis] / 2) / (p[axis] / 2 - q[axis] / 2)
                o = 1 - axis
                p[o] = 2 * (q[o] / 2 + f * (p[o] / 2 - q[o] / 2))
                p[axis] = edge
    return ends


def cmd_overlay(args):
    """Render the annotated skeletons of one image into a PPM for inspection."""
    cfg = load_config(args.config)
    skeleton, _, _, _ = config_objects(cfg)
    with open(args.annotations) as f:
        store = evalkit.parse_annotations(f.read(), skeleton)
    meta = store.images[args.image_id]
    h, w = meta["height"], meta["width"]
    canvas = np.zeros((h, w, 3), dtype=np.uint8)
    colors = [(255, 80, 80), (80, 255, 80), (80, 80, 255), (255, 255, 80),
              (255, 80, 255), (80, 255, 255), (255, 160, 80), (160, 255, 80),
              (160, 80, 255), (200, 200, 200)]
    for idx, gt in enumerate(store.by_image(args.image_id)):
        color = colors[idx % len(colors)]
        for a, b in skeleton.limbs:
            ka, kb = gt.person.keypoints[a], gt.person.keypoints[b]
            ends = None if ka is None or kb is None else _clip_to_canvas(ka, kb, h, w)
            if ends is None:
                continue
            (x0, y0), (x1, y1) = ends
            n = int(max(abs(x1 - x0), abs(y1 - y0))) + 1
            xs = np.clip(np.linspace(x0, x1, n).round().astype(int), 0, w - 1)
            ys = np.clip(np.linspace(y0, y1, n).round().astype(int), 0, h - 1)
            canvas[ys, xs] = color
    fileio.write_ppm(args.out, canvas)
    print(f"wrote overlay for image {args.image_id} to {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="mlnpose",
                                     description="bottom-up pose estimation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("synth", help="generate synthetic scenes + ideal maps")
    common(p)
    p.add_argument("--scenes", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("render-gt", help="render ground-truth maps for annotations")
    common(p)
    p.add_argument("--annotations", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render_gt)

    p = sub.add_parser("forward", help="run the network on one image")
    common(p)
    p.add_argument("--image", required=True, help="PPM (P6) or MLNT tensor")
    p.add_argument("--weights", default=None, help="MLNW file; random init if omitted")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("decode", help="decode map tensors into people")
    common(p)
    p.add_argument("--maps", default=None, help="directory of *_joints/_limbs.mlnt")
    p.add_argument("--joints", default=None)
    p.add_argument("--limbs", default=None)
    p.add_argument("--image-id", type=int, default=1)
    p.add_argument("--filters", choices=("on", "off"), default=None,
                   help="overrides decode.filters_enabled of --config (default on)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("eval", help="score results against annotations")
    common(p)
    p.add_argument("--results", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("complexity", help="parameter/FLOP/model-size report")
    common(p)
    p.add_argument("--input-dims", default="368x432")
    p.add_argument("--flop-convention", choices=("mac1", "mac2"), default="mac2")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser("bench", help="grouping latency statistics")
    common(p)
    p.add_argument("--people", type=int, default=10)
    p.add_argument("--reps", type=int, default=50)
    p.add_argument("--filters", choices=("on", "off"), default="off")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("overlay", help="draw annotated skeletons into a PPM")
    common(p)
    p.add_argument("--annotations", required=True)
    p.add_argument("--image-id", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_overlay)

    return parser


def _check_counts(args):
    for name, low in (("threads", 1), ("scenes", 0), ("people", 0), ("reps", 1)):
        value = getattr(args, name, low)
        if value < low:
            raise CliError(f"--{name} must be >= {low}, got {value}")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_counts(args)
        return args.func(args)
    except (CliError, OSError, ValueError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
