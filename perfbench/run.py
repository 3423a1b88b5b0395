"""Benchmark runner for the mlnpose toolkit.

Run from the root of a checkout:

    python3 perfbench/run.py --workload image_to_people --seed 1 --seconds 25 --trace 0

A single-process closed loop with one client: the next image or scene
batch starts when the previous one has finished. ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` wraps the library's public
functions and prints the per-layer metrics instead (see README.md).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BLAS_THREADS = 2        # = nproc of the 2-core reference machine; never more
SETUPS = 5              # set-up runs before the timed loop
SETUP_EVERY = 5.0       # s of timed units between further set-up runs
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("image_to_people", "scene_to_ap", "crowd_grouping"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for the smoke test; figures are not comparable")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def cache_sizes():
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def environment(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "caches": cache_sizes(),
    }


class Stats:
    """Totals over a group of timed units."""

    def __init__(self):
        self.items = self.failed = 0
        self.latencies, self.score_times, self.aps = [], [], []
        self.elapsed = 0.0

    def add(self, unit):
        self.items += unit.items
        self.failed += unit.failed
        self.latencies += unit.latencies
        if unit.score_s is not None:
            self.score_times.append(unit.score_s)
            self.aps.append(unit.ap)

    @property
    def items_per_s(self):
        return self.items / self.elapsed


def timed_loop(workload, seconds, tracer=None, setup_times=None):
    """Repeat the workload's unit for ``seconds``; returns [untraced stats].
    With a tracer, units alternate untraced and traced, so that drift over
    the run falls on both groups alike; returns [untraced, traced].

    Given ``setup_times``, the set-up runs again between units after every
    SETUP_EVERY seconds of them, and its times are appended. The host's
    speed shifts over seconds to minutes, so set-up runs spread over the
    whole run give a steadier median than runs taken only at its start.
    """
    from workloads import Unit, report_failure

    def mark(item):
        if tracer is not None:
            tracer.item = item

    groups = [Stats()] if tracer is None else [Stats(), Stats()]
    index = 0
    next_setup = SETUP_EVERY
    while True:
        stats = groups[index % len(groups)]
        traced = index % len(groups) == 1
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            unit = workload.run_unit(index, mark)
        except Exception:
            report_failure(f"{workload.name} unit {index}")
            unit = Unit(workload.unit_items, failed=workload.unit_items)
        finally:
            if traced:
                tracer.uninstall()
        mark(-1)
        stats.add(unit)
        stats.elapsed += time.perf_counter() - t0
        index += 1
        done = sum(g.elapsed for g in groups)
        if done >= seconds and index >= len(groups):
            break
        if setup_times is not None and done >= next_setup:
            setup_times.append(timed(workload.setup))
            next_setup = done + SETUP_EVERY
    return groups


def timed(call):
    t0 = time.perf_counter()
    call()
    return time.perf_counter() - t0


def set_up(workload):
    """Run the workload's set-up SETUPS times, then its one-off warm-up;
    returns (set-up times, warm-up seconds, warm-up passed)."""
    times = [timed(workload.setup) for _ in range(SETUPS)]
    t0 = time.perf_counter()
    warm_ok = workload.warm_up()
    return times, time.perf_counter() - t0, warm_ok


def end_to_end(args, setup_times, warm_s, stats):
    lat_ms = [t * 1e3 for t in stats.latencies]
    values = {
        "setup_s": statistics.median(setup_times) + warm_s,
        "items_per_s": stats.items_per_s,
        # Inclusive: with the few items of image_to_people this lies
        # between its two slowest, rather than beyond the slowest.
        "latency_p90_ms": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    warm = f" + {warm_s:.4f} s warm-up forward" if args.workload == "image_to_people" else ""
    print(f"  setup_s         {values['setup_s']:.4f} s  "
          f"(median of {len(setup_times)} set-ups{warm})")
    print(f"  items_per_s     {values['items_per_s']:.4f} 1/s  "
          f"({stats.items} items in {stats.elapsed:.2f} s)")
    print(f"  latency_p50_ms  {statistics.median(lat_ms):.3f} ms  (n={len(lat_ms)})")
    print(f"  latency_p90_ms  {values['latency_p90_ms']:.3f} ms  (n={len(lat_ms)})")
    if stats.score_times:
        print(f"  score_s         {statistics.median(stats.score_times):.4f} s  "
              f"(median of {len(stats.score_times)} batches)")
        print(f"  ap              {stats.aps[0]!r}  (equal on all {len(stats.aps)} "
              f"passes: {len(set(stats.aps)) == 1})")
    print(f"  peak_rss_mb     {values['peak_rss_mb']:.1f} MB")
    return values


def per_layer(args, root, env, workload, tracer, untraced, traced):
    import layers
    from mlnpose import network
    from mlnpose.skeleton import default_skeleton

    graph = network.build_mln(default_skeleton())
    forwards = layers.forward_layers(tracer, graph)
    values = layers.per_layer_metrics(tracer, traced.items, SETUPS, forwards)
    values["trace.untraced_items_per_s"] = untraced.items_per_s
    values["trace.traced_items_per_s"] = traced.items_per_s
    values["trace.overhead_pct"] = 100.0 * (1.0 - traced.items_per_s / untraced.items_per_s)
    table = []
    if args.workload == "image_to_people":
        table = layers.conv_table(forwards, graph, (3,) + workload.hw)
        print(layers.format_conv_table(table))
    for name in sorted(values):
        print(f"  {name:44s} {values[name]:.6g}")
    path = root / "perfbench" / "out" / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"env": env, "per_layer": values, "conv_layers": table,
                                **tracer.to_json()}))
    print(f"  trace written to {path.relative_to(root)}")
    return values


def run(args, root, workdir):
    # Imported here: numpy and mlnpose load only after main() has pinned
    # the BLAS threads and put the checkout's src/ first on the path.
    import numpy as np

    import layers
    from tracer import Tracer
    from workloads import WORKLOADS

    bench = json.loads((root / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    env = environment(np)
    print("env: " + json.dumps(env, sort_keys=True))
    size = "tiny" if args.tiny else "full"
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={size}", flush=True)
    workload = WORKLOADS[args.workload](args.seed, size, workdir, reference)

    if not args.trace:
        setup_times, warm_s, warm_ok = set_up(workload)
        phases = timed_loop(workload, args.seconds, setup_times=setup_times)
        values = end_to_end(args, setup_times, warm_s, phases[0])
    else:
        # Set-up runs traced. In the timed phase traced and untraced units
        # alternate; the untraced ones give the tracing overhead.
        tracer = Tracer()
        layers.add_hooks(tracer)
        tracer.install()
        try:
            _, _, warm_ok = set_up(workload)
        finally:
            tracer.uninstall()
        tracer.phase = "timed"
        phases = timed_loop(workload, args.seconds, tracer)
        values = per_layer(args, root, env, workload, tracer, *phases)
    if not warm_ok:
        print("FAILED warm-up: reference outputs disagree with reference.json")
    attempted = sum(s.items for s in phases)
    failed = sum(s.failed for s in phases)
    correct = warm_ok and failed == 0
    print(f"  error_rate      {failed / max(attempted, 1):.4f}  ({failed} of {attempted} failed)")
    print(f"correct: {'yes' if correct else 'NO'}")

    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(values):
        raise RuntimeError(f"metrics {sorted(set(units) ^ set(values))} disagree with "
                           "BENCHMARK.json")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in units}}


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "mlnpose" / "__init__.py").is_file() or \
            not (root / "BENCHMARK.json").is_file():
        print(f"error: {root} is not a checkout of the repository "
              "(src/mlnpose or BENCHMARK.json missing)", file=sys.stderr)
        return 2
    # Pin BLAS threads before numpy loads; the figures depend on them.
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(root / "src"))
    import mlnpose
    if Path(mlnpose.__file__).resolve().parent != (root / "src" / "mlnpose").resolve():
        print(f"error: imported mlnpose from {mlnpose.__file__}, not this checkout",
              file=sys.stderr)
        return 2

    workdir = root / "perfbench" / "out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
