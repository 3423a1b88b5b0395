"""Command-line surface: scene synthesis, map rendering, forward
inference, decoding, evaluation and complexity reports.

Every command is a thin composition of module operations; with a fixed
seed and fixed inputs the output files are byte-identical. ``main`` reads
the ``--config`` file once and passes it to the command; each section is
read by ``from_config`` of the ``config`` module's policy. ``--seed`` is
taken only by synth and forward, ``--threads`` only by synth,
render-gt and decode. synth and render-gt write their maps through one
function, ``_render_store``.
"""

import argparse
import json
import sys
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


def config_objects(cfg):
    """The config sections as objects."""
    skeleton = (_section(cfg, "skeleton", SkeletonDef) if "skeleton" in cfg
                else default_skeleton())
    gt_cfg = _section(cfg, "groundtruth", groundtruth.GtConfig)
    net_cfg = _section(cfg, "network", network.NetworkConfig)
    params = _section(cfg, "decode", decoder.DecodeParams)
    return skeleton, gt_cfg, net_cfg, params


def _dump_json(path, payload):
    with open(path, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")


def _read_annotations(path, skeleton):
    """The GroundTruthStore of the annotations file at ``path``."""
    with open(path) as f:
        return evalkit.parse_annotations(f.read(), skeleton)


def _map_name(image_id, kind):
    """The MLNT file name of one image's "joints" or "limbs" maps."""
    return f"scene_{image_id:04d}_{kind}.mlnt"


def _read_map_name(joints_path):
    """(image id, limb maps path) of a <prefix>_<image id>_joints.mlnt
    file, the name ``_map_name`` writes: the id is the integer after the
    stem's last "_", or the whole stem, and the limb maps are
    <prefix>_<image id>_limbs.mlnt. Raises CliError naming the file when
    there is no id."""
    stem = joints_path.name[:-len("_joints.mlnt")]
    try:
        image_id = int(stem.rsplit("_", 1)[-1])
    except ValueError:
        raise CliError(f"cannot read an image id from {joints_path}: expected "
                       f"<prefix>_<image id>_joints.mlnt") from None
    return image_id, joints_path.with_name(f"{stem}_limbs.mlnt")


def _render_store(store, skeleton, gt_cfg, out, threads):
    """Render the joint and limb maps of every image in ``store`` from its
    people, in annotation order, and write them to the directory ``out``
    under the names of ``_map_name``."""
    people = {image_id: [] for image_id in store.images}
    for gt in store.instances:
        if gt.image_id in people:
            people[gt.image_id].append(gt.person)
    out.mkdir(parents=True, exist_ok=True)

    def one(image_id):
        meta = store.images[image_id]
        dims = (meta["height"] // gt_cfg.output_stride, meta["width"] // gt_cfg.output_stride)
        for kind, render in (("joints", groundtruth.render_joint_maps),
                             ("limbs", groundtruth.render_pafs)):
            tensor = render(people[image_id], skeleton, gt_cfg, dims)
            fileio.write_tensor(out / _map_name(image_id, kind), tensor[None])

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(one, sorted(store.images)))


def cmd_synth(args, cfg):
    """Sample scenes of the default body and keep each person's joints
    0..m-1 for an m-joint skeleton; the area stays the whole body's."""
    skeleton, gt_cfg, _, _ = config_objects(cfg)
    m, placed = skeleton.num_joints, default_skeleton().num_joints
    if m > placed:
        raise CliError(f"synth places {placed} joints per person; "
                       f"the skeleton has {m}")
    base = _section(cfg, "scene", synth.SceneConfig)
    if "seed" in cfg.get("scene", {}):
        raise CliError("scene.seed is not read: synth samples scene i from "
                       "derive_seed(--seed, i); set --seed instead")
    h, w = base.image_dims
    ids = range(1, args.scenes + 1)
    instances = []
    for i in ids:
        for person in synth.sample_scene(replace(base, seed=synth.derive_seed(args.seed, i))):
            xs = [kp.x for kp in person.keypoints if kp is not None]
            ys = [kp.y for kp in person.keypoints if kp is not None]
            area = (max(xs) - min(xs)) * (max(ys) - min(ys))
            person = replace(person, keypoints=person.keypoints[:m])
            instances.append(evalkit.GroundTruthInstance(i, person, area))
    store = evalkit.GroundTruthStore(images={i: {"height": h, "width": w} for i in ids},
                                     instances=instances, crowd_boxes={})
    out = Path(args.out)
    _render_store(store, skeleton, gt_cfg, out, args.threads)
    _dump_json(out / "annotations.json",
               evalkit.write_annotations(store.images, instances, skeleton))
    print(f"wrote {args.scenes} scenes ({len(instances)} people) to {out}")
    return 0


def cmd_render_gt(args, cfg):
    skeleton, gt_cfg, _, _ = config_objects(cfg)
    store = _read_annotations(args.annotations, skeleton)
    out = Path(args.out)
    _render_store(store, skeleton, gt_cfg, out, args.threads)
    print(f"rendered maps for {len(store.images)} images to {out}")
    return 0


def _load_image(path):
    """A (1, 3, H, W) image: a one-stack MLNT tensor as ``decode`` reads
    its maps, or a normalized PPM."""
    path = Path(path)
    if path.suffix == ".mlnt":
        return _read_one_map(path)[None]
    image = fileio.read_ppm(path).astype(np.float32)
    # Same normalization used to train detection confidences into [0,1].
    image = image / 256.0 - 0.5
    return image.transpose(2, 0, 1)[None]


def cmd_forward(args, cfg):
    skeleton, _, net_cfg, _ = config_objects(cfg)
    graph = network.build_mln(skeleton, net_cfg)
    weights = (network.load_weights(args.weights, graph) if args.weights
               else network.random_weights(graph, seed=args.seed))
    image = _load_image(args.image)
    try:
        joints, limbs = network.forward(graph, weights, image)
    except ValueError as exc:
        if str(exc).startswith("layer "):   # forward names the layer of a weights error
            raise
        raise CliError(f"{args.image}: {exc}") from None
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
            image_id, lpath = _read_map_name(jpath)
            if not lpath.exists():
                raise CliError(f"missing limb maps for {jpath}")
            pairs.append((image_id, jpath, lpath))
        if not pairs:
            raise CliError(f"no *_joints.mlnt files under {root}")
        return pairs
    if not (args.joints and args.limbs):
        raise CliError("provide either --maps DIR or --joints/--limbs files")
    return [(args.image_id, Path(args.joints), Path(args.limbs))]


def _read_one_map(path):
    """The one (C, H, W) stack of the MLNT file at ``path``; CliError naming
    the file when it holds another number of stacks."""
    maps = fileio.read_tensor(path)
    if maps.shape[0] != 1:
        raise CliError(f"{path} must hold exactly one map stack, got shape {maps.shape}")
    return maps[0]


def cmd_decode(args, cfg):
    skeleton, gt_cfg, _, params = config_objects(cfg)
    if args.filters is not None:
        params = replace(params, filters_enabled=args.filters == "on")
    pairs = _decode_pairs(args)

    def one(item):
        image_id, jpath, lpath = item
        joints, limbs = _read_one_map(jpath), _read_one_map(lpath)
        try:
            people = decoder.decode(joints, limbs, skeleton, params,
                                    stride=gt_cfg.output_stride)
        except ValueError as exc:   # decode checks the maps' shapes, dtype and values
            raise CliError(f"{jpath} and {lpath}: {exc}") from None
        return [evalkit.Detection(image_id, person) for person in people]

    with ThreadPoolExecutor(max_workers=args.threads) as pool:
        detections = [d for batch in pool.map(one, pairs) for d in batch]
    _dump_json(args.out, evalkit.write_results(detections))
    print(f"decoded {len(pairs)} map pairs -> {len(detections)} people -> {args.out}")
    return 0


def cmd_eval(args, cfg):
    skeleton, _, _, _ = config_objects(cfg)
    store = _read_annotations(args.annotations, skeleton)
    with open(args.results) as f:
        dets = evalkit.parse_results(f.read(), skeleton)
    result = evalkit.average_precision(
        dets, store.instances,
        constants=cfg.get("oks_constants", evalkit.DEFAULT_OKS_CONSTANTS))
    print(result.to_table())
    if args.out:
        _dump_json(args.out, result.to_dict())
    return 0


def cmd_complexity(args, cfg):
    skeleton, _, net_cfg, _ = config_objects(cfg)
    graph = network.build_mln(skeleton, net_cfg)
    try:
        h, w = (int(v) for v in args.input_dims.split("x"))
    except ValueError:
        raise CliError(f"--input-dims must be HxW (e.g. 368x432), "
                       f"got {args.input_dims!r}") from None
    report = network.complexity_report(graph, (3, h, w))
    print(report.to_table())
    flops = (report.total_flops_mac1 if args.flop_convention == "mac1"
             else report.total_flops_mac2)
    print(f"headline ({args.flop_convention}): {report.total_params:,d} params, "
          f"{flops / 1e9:.1f} GFLOPs at {h}x{w}, {report.model_size_mb:.1f} MB")
    if args.out:
        _dump_json(args.out, report.to_dict())
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


def cmd_overlay(args, cfg):
    """Render the annotated skeletons of one image into a PPM for inspection."""
    skeleton, _, _, _ = config_objects(cfg)
    store = _read_annotations(args.annotations, skeleton)
    if args.image_id not in store.images:
        raise CliError(f"image {args.image_id} is not in {args.annotations}")
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

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", default=None, help="JSON config file")
        p.set_defaults(func=func)
        return p

    p = command("synth", cmd_synth, "generate synthetic scenes + ideal maps")
    p.add_argument("--seed", type=int, default=0, help="scene i uses derive_seed(seed, i)")
    p.add_argument("--threads", type=int, default=1, help="scenes rendered in parallel")
    p.add_argument("--scenes", type=int, default=10)
    p.add_argument("--out", required=True)

    p = command("render-gt", cmd_render_gt, "render ground-truth maps for annotations")
    p.add_argument("--threads", type=int, default=1, help="images rendered in parallel")
    p.add_argument("--annotations", required=True)
    p.add_argument("--out", required=True)

    p = command("forward", cmd_forward, "run the network on one image")
    p.add_argument("--seed", type=int, default=0, help="random-weight seed")
    p.add_argument("--image", required=True, help="PPM (P6) or MLNT tensor")
    p.add_argument("--weights", default=None, help="MLNW file; random init if omitted")
    p.add_argument("--out", required=True)

    p = command("decode", cmd_decode, "decode map tensors into people")
    p.add_argument("--threads", type=int, default=1, help="map pairs decoded in parallel")
    p.add_argument("--maps", default=None, help="directory of *_joints/_limbs.mlnt")
    p.add_argument("--joints", default=None)
    p.add_argument("--limbs", default=None)
    p.add_argument("--image-id", type=int, default=1)
    p.add_argument("--filters", choices=("on", "off"), default=None,
                   help="overrides decode.filters_enabled of --config (default on)")
    p.add_argument("--out", required=True)

    p = command("eval", cmd_eval, "score results against annotations")
    p.add_argument("--results", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--out", default=None)

    p = command("complexity", cmd_complexity, "parameter/FLOP/model-size report")
    p.add_argument("--input-dims", default="368x432")
    p.add_argument("--flop-convention", choices=("mac1", "mac2"), default="mac2")
    p.add_argument("--out", default=None)

    p = command("overlay", cmd_overlay, "draw annotated skeletons into a PPM")
    p.add_argument("--annotations", required=True)
    p.add_argument("--image-id", type=int, default=1)
    p.add_argument("--out", required=True)

    return parser


def _check_counts(args):
    for name, low in (("threads", 1), ("scenes", 0)):
        value = getattr(args, name, low)
        if value < low:
            raise CliError(f"--{name} must be >= {low}, got {value}")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_counts(args)
        return args.func(args, load_config(args.config))
    except (CliError, OSError, ValueError, KeyError, RuntimeError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
