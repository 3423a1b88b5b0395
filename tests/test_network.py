import hashlib
import io
import math
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from mlnpose import _heap, fileio, network, tensor_ops
from mlnpose.fileio import ChangedFileError, WeightShapeError
from mlnpose.network import (MissingWeightError, NetworkConfig, NetworkGraph, build_mln,
                             complexity_report, dump_activation, forward,
                             load_weights, plan, random_weights, save_weights)
from mlnpose.skeleton import SkeletonDef, default_skeleton
from mlnpose.tensor_ops import LayerSpec, ShapeError, conv2d, layer_param_count, relu

# A small skeleton and narrow config keep forward passes fast in unit
# tests; the full-size model is exercised by the acceptance suite.
SMALL_SKELETON = SkeletonDef(("a", "b", "c"), ((0, 1), (1, 2)))
SMALL_CONFIG = NetworkConfig(block_channels=8, transfer_blocks=1,
                             refine_blocks=1, branch_mid_channels=16,
                             transfer_output_channels=8)


@pytest.fixture(scope="module")
def small_graph():
    return build_mln(SMALL_SKELETON, SMALL_CONFIG)


@pytest.fixture(scope="module")
def small_weights(small_graph):
    return dict(random_weights(small_graph, seed=7))


@pytest.fixture(scope="module")
def default_weights_file(tmp_path_factory):
    """The default graph's seed-0 store (97 MB) saved as an MLNW file."""
    graph = build_mln(default_skeleton())
    path = tmp_path_factory.mktemp("weights") / "default.mlnw"
    save_weights(path, random_weights(graph, seed=0))
    return graph, path


class TestGraphStructure:
    def test_stride(self, small_graph):
        assert small_graph.stride == 8
        # Derived from the graph: each 2x2 pool doubles it.
        two_pools = replace(small_graph, layers=tuple(
            spec for spec in small_graph.layers if spec.name != "pool3"))
        assert two_pools.stride == 4

    def test_default_head_channels(self):
        graph = build_mln(default_skeleton())
        assert graph.layer(graph.joint_output).out_channels == 19
        assert graph.layer(graph.limb_output).out_channels == 38

    def test_unique_names(self, small_graph):
        names = [spec.name for spec in small_graph.layers]
        assert len(names) == len(set(names))

    def test_topological_order(self, small_graph):
        seen = set()
        for spec in small_graph.layers:
            assert all(dep in seen for dep in spec.inputs)
            seen.add(spec.name)

    def test_add_aggregation_builds(self):
        cfg = NetworkConfig(block_channels=8, transfer_blocks=1, refine_blocks=1,
                            branch_mid_channels=16, transfer_output_channels=8,
                            aggregation="add")
        graph = build_mln(SMALL_SKELETON, cfg)
        image = np.zeros((1, 3, 16, 16), dtype=np.float32)
        jm, lm = forward(graph, random_weights(graph, seed=1), image)
        assert jm.shape == (1, 4, 2, 2) and lm.shape == (1, 4, 2, 2)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(aggregation="mean")
        with pytest.raises(ValueError):
            NetworkConfig(transfer_tap="input")

    @pytest.mark.parametrize("field, value", [
        ("block_channels", "x"), ("block_channels", 0), ("branch_mid_channels", 2.0),
        ("transfer_output_channels", True), ("transfer_blocks", -1),
        ("refine_blocks", 1.5)])
    def test_config_rejects_bad_sizes(self, field, value):
        with pytest.raises(ValueError, match=field):
            NetworkConfig(**{field: value})

    def test_config_round_trip(self):
        cfg = NetworkConfig(block_channels=64, aggregation="add")
        assert NetworkConfig.from_config(cfg.to_config()) == cfg

    def test_config_ignores_removed_keys(self):
        old = {"block_channels": 64, "refine_uses_transfer": True}
        assert NetworkConfig.from_config(old) == NetworkConfig(block_channels=64)


class TestForward:
    def test_output_shapes(self, small_graph, small_weights):
        image = np.random.default_rng(0).normal(size=(1, 3, 32, 24)).astype(np.float32)
        jm, lm = forward(small_graph, small_weights, image)
        assert jm.shape == (1, 4, 4, 3)   # 3 joints + background
        assert lm.shape == (1, 4, 4, 3)   # 2 limbs x 2 channels
        assert np.isfinite(jm).all() and np.isfinite(lm).all()

    def test_deterministic(self, small_graph, small_weights):
        image = np.random.default_rng(1).normal(size=(1, 3, 16, 16)).astype(np.float32)
        first = forward(small_graph, small_weights, image)
        second = forward(small_graph, small_weights, image)
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])

    def test_zero_weights_zero_output(self, small_graph):
        image = np.random.default_rng(2).normal(size=(1, 3, 16, 16)).astype(np.float32)
        zeros = {spec.name: (np.zeros(spec.weight_shape, dtype=np.float32),
                             np.zeros(spec.out_channels, dtype=np.float32))
                 for spec in small_graph.conv_layers()}
        jm, lm = forward(small_graph, zeros, image)
        assert (jm == 0).all() and (lm == 0).all()

    def test_batch_dimension(self, small_graph, small_weights):
        rng = np.random.default_rng(3)
        images = rng.normal(size=(2, 3, 16, 16)).astype(np.float32)
        jm, _ = forward(small_graph, small_weights, images)
        single, _ = forward(small_graph, small_weights, images[:1])
        np.testing.assert_allclose(jm[:1], single, atol=1e-5)

    def test_bad_input_shapes(self, small_graph, small_weights):
        with pytest.raises(ShapeError):
            forward(small_graph, small_weights, np.zeros((1, 1, 16, 16), dtype=np.float32))
        with pytest.raises(ShapeError):
            forward(small_graph, small_weights, np.zeros((1, 3, 15, 16), dtype=np.float32))

    def test_missing_weight(self, small_graph, small_weights):
        partial = dict(small_weights)
        partial.pop("conv1_1")
        with pytest.raises(MissingWeightError):
            forward(small_graph, partial, np.zeros((1, 3, 16, 16), dtype=np.float32))

    def test_wrong_weight_shape(self, small_graph, small_weights):
        bad = dict(small_weights)
        bad["conv1_1"] = (np.zeros((64, 3, 5, 5), dtype=np.float32),
                          np.zeros(64, dtype=np.float32))
        with pytest.raises(WeightShapeError):
            forward(small_graph, bad, np.zeros((1, 3, 16, 16), dtype=np.float32))

    @pytest.mark.parametrize("part, shape, message", [
        (0, (4, 24, 3, 3), r"weight shape \(4, 24, 3, 3\) != \(4, 24, 1, 1\)"),
        (1, (5,), r"bias shape \(5,\) != \(4,\)"),
    ], ids=["weights", "bias"])
    def test_store_checked_before_first_conv(self, small_graph, small_weights, monkeypatch,
                                             part, shape, message):
        # A bad last layer is refused before any conv runs.
        calls = []
        monkeypatch.setattr(network, "conv2d", lambda *args, **kwargs: calls.append(1))
        bad = dict(small_weights)
        layer = list(bad["refine_limb_head"])
        layer[part] = np.zeros(shape, dtype=np.float32)
        bad["refine_limb_head"] = tuple(layer)
        with pytest.raises(WeightShapeError, match=f"^layer 'refine_limb_head': {message}$"):
            forward(small_graph, bad, np.zeros((1, 3, 16, 16), dtype=np.float32))
        assert calls == []

    def test_image_checked_before_store(self, small_graph):
        with pytest.raises(ShapeError, match="spatial dims"):
            forward(small_graph, {}, np.zeros((1, 3, 15, 16), dtype=np.float32))

    def test_dump_activation_checks_whole_store(self, small_graph, small_weights):
        # conv1_1 runs before reduce1, but a store without reduce1 does
        # not fit the graph.
        partial = dict(small_weights)
        partial.pop("reduce1")
        with pytest.raises(MissingWeightError, match="no weights for layer 'reduce1'"):
            dump_activation(small_graph, partial, np.zeros((1, 3, 16, 16), dtype=np.float32),
                            "conv1_1")

    def test_caller_image_unchanged(self, small_graph, small_weights):
        # ReLUs and convs run in place on activations only, never on the image.
        image = np.random.default_rng(10).normal(size=(1, 3, 16, 16)).astype(np.float32)
        before = image.copy()
        forward(small_graph, small_weights, image)
        for name in ("conv1_1", "conv1_1_relu", small_graph.joint_output):
            dump_activation(small_graph, small_weights, image, name)
        assert image.tobytes() == before.tobytes()

    def test_relu_of_input_not_in_place(self):
        # A ReLU that is the image's last reader must not rectify it in place.
        graph = NetworkGraph(
            layers=(LayerSpec("input", "input", out_channels=3),
                    LayerSpec("r", "relu", ("input",), out_channels=3),
                    LayerSpec("c", "conv", ("r",), kernel=(1, 1), in_channels=3,
                              out_channels=2)),
            joint_output="c", limb_output="c")
        rng = np.random.default_rng(11)
        weights = {"c": (rng.normal(size=(2, 3, 1, 1)).astype(np.float32),
                         rng.normal(size=2).astype(np.float32))}
        image = rng.normal(size=(1, 3, 4, 5)).astype(np.float32)
        before = image.copy()
        steps = plan(graph, (3, 4, 5))
        assert steps[1].frees == ("input",) and not any(step.in_place for step in steps)
        jm, _ = forward(graph, weights, image)
        np.testing.assert_array_equal(jm, conv2d(relu(before), *weights["c"]))
        np.testing.assert_array_equal(dump_activation(graph, weights, image, "r"),
                                      relu(before))
        assert (before < 0).any() and image.tobytes() == before.tobytes()

    def test_conv_of_input_not_in_place(self, monkeypatch):
        # A 3->3 conv that is the image's last reader must not write its
        # output over the image; the 3->3 conv after it does run in place,
        # here in one-row chunks, with the bits of a fresh output.
        monkeypatch.setattr(tensor_ops, "IM2COL_CHUNK_BYTES", 8 * (27 + 3) * 5)
        graph = NetworkGraph(
            layers=(LayerSpec("input", "input", out_channels=3),
                    LayerSpec("c", "conv", ("input",), kernel=(3, 3), in_channels=3,
                              out_channels=3),
                    LayerSpec("d", "conv", ("c",), kernel=(3, 3), in_channels=3,
                              out_channels=3)),
            joint_output="d", limb_output="d")
        rng = np.random.default_rng(13)
        weights = {name: (rng.normal(size=(3, 3, 3, 3)).astype(np.float32),
                          rng.normal(size=3).astype(np.float32)) for name in "cd"}
        image = rng.normal(size=(1, 3, 6, 5)).astype(np.float32)
        before = image.copy()
        steps = plan(graph, (3, 6, 5))
        assert steps[1].frees == ("input",) and not steps[1].in_place and steps[2].in_place
        jm, _ = forward(graph, weights, image)
        np.testing.assert_array_equal(jm, conv2d(conv2d(before, *weights["c"]), *weights["d"]))
        np.testing.assert_array_equal(dump_activation(graph, weights, image, "c"),
                                      conv2d(before, *weights["c"]))
        assert image.tobytes() == before.tobytes()

    def test_activations_freed_after_last_reader(self, small_graph, small_weights,
                                                 monkeypatch):
        conv = network.conv2d
        convs = small_graph.conv_layers()
        outputs = []          # weakref to each conv output, in call order
        dead_at_last = []

        def recorder(*args, **kwargs):
            if len(outputs) == len(convs) - 1:
                dead_at_last.append(outputs[0]() is None)
            out = conv(*args, **kwargs)
            outputs.append(weakref.ref(out))
            return out

        monkeypatch.setattr(network, "conv2d", recorder)
        image = np.random.default_rng(8).normal(size=(1, 3, 16, 16)).astype(np.float32)
        jm, lm = forward(small_graph, small_weights, image)
        assert convs[0].name == "conv1_1"
        assert convs[-1].name == small_graph.limb_output == "refine_limb_head"
        assert dead_at_last == [True]
        assert outputs[-1]() is lm


class TestPlan:
    @pytest.mark.parametrize("aggregation", ["concat", "add"])
    @pytest.mark.parametrize("tap", ["features", "penultimate"])
    @pytest.mark.parametrize("hw", [(8, 16), (16, 8)])
    def test_matches_every_activation(self, small_graph, small_weights,
                                      aggregation, tap, hw):
        cfg = replace(SMALL_CONFIG, aggregation=aggregation, transfer_tap=tap)
        graph = small_graph if cfg == SMALL_CONFIG else build_mln(SMALL_SKELETON, cfg)
        weights = small_weights if cfg == SMALL_CONFIG else random_weights(graph, seed=7)
        image = np.random.default_rng(9).normal(size=(1, 3, *hw)).astype(np.float32)
        steps = plan(graph, (3, *hw))
        assert [step.spec for step in steps] == list(graph.layers)
        for step in steps:
            act = dump_activation(graph, weights, image, step.spec.name)
            assert act.shape[1:] == step.out_shape, step.spec.name

    @pytest.mark.parametrize("aggregation", ["concat", "add"])
    def test_frees_each_activation_at_its_last_reader(self, aggregation):
        graph = build_mln(SMALL_SKELETON, replace(SMALL_CONFIG, aggregation=aggregation))
        steps = plan(graph, (3, 16, 16))
        freed_at = {}
        for i, step in enumerate(steps):
            for name in step.frees:
                assert name not in freed_at, name
                freed_at[name] = i
        heads = {graph.joint_output, graph.limb_output}
        for i, spec in enumerate(graph.layers):
            readers = [j for j, other in enumerate(graph.layers) if spec.name in other.inputs]
            if spec.name in heads:
                assert spec.name not in freed_at
            else:
                assert freed_at[spec.name] == max(readers, default=i), spec.name

    def test_macs_at_published_input(self):
        steps = plan(build_mln(default_skeleton()), (3, 368, 432))
        convs = {step.spec.name: step.macs for step in steps if step.spec.kind == "conv"}
        assert len(convs) == 92
        assert sum(convs.values()) == 89_937_492_480
        assert convs["refine_joint_b0_c2"] == 9 * 128 * 128 * 46 * 54 == 366_280_704
        assert all(step.macs == 0 for step in steps if step.spec.kind != "conv")

    def test_every_relu_runs_in_place(self):
        # Every ReLU, and each conv with as many outputs as inputs that is
        # the last reader of its input; no other layer.
        steps = plan(build_mln(default_skeleton()), (3, 368, 432))
        relus = [step for step in steps if step.spec.kind == "relu"]
        assert len(relus) == 86 and all(step.in_place for step in relus)
        assert [step.spec.name for step in steps
                if step.in_place and step.spec.kind != "relu"] == [
            "conv1_2", "conv2_2", "conv3_2", "conv3_3", "conv3_4", "conv4_2",
            "joint_conv2", "joint_conv3", "limb_conv2", "limb_conv3"]

    def test_live_bytes_at_published_input(self):
        # The forward at 368x432 holds at most 51 MB: pool1 peaks, holding
        # conv1_2's output (written over conv1_1's) and its own. conv1_1
        # and conv1_2 hold less: their chunks are capped in cells.
        steps = plan(build_mln(default_skeleton()), (3, 368, 432))
        top = max(steps, key=lambda step: step.live_bytes)
        assert top.live_bytes <= 51e6 and top.spec.name == "pool1"

    @staticmethod
    def _check_live_bytes(graph, weights, monkeypatch, read=None):
        """Each tensor_ops call of a forward peaks within 128 KiB above
        the plan's live bytes, plus ``read``[name] for a conv whose
        weights the store reads for it, and so does the whole forward."""
        monkeypatch.setattr(tensor_ops, "IM2COL_CHUNK_BYTES", 64 * 1024)
        read = read or {}
        image = np.random.default_rng(12).standard_normal((1, 3, 64, 80), dtype=np.float32)
        steps = plan(graph, (3, 64, 80))
        ops = [step for step in steps if step.spec.kind not in ("input", "add")]
        peaks = []

        def expected(step):
            return step.live_bytes + read.get(step.spec.name, 0)

        def traced_forward():
            tracemalloc.start()
            try:
                forward(graph, weights, image)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak = traced_forward()
        assert 0 <= peak - max(expected(step) for step in steps) <= 128 * 1024
        for attr in ("conv2d", "relu", "maxpool2", "concat_channels"):
            def traced(*args, call=getattr(network, attr), **kwargs):
                tracemalloc.reset_peak()
                out = call(*args, **kwargs)
                peaks.append(tracemalloc.get_traced_memory()[1])
                return out
            monkeypatch.setattr(network, attr, traced)
        traced_forward()
        assert len(peaks) == len(ops)
        for step, op_peak in zip(ops, peaks):
            untraced = image.nbytes if step.spec.name == "conv1_1" else 0
            assert 0 <= op_peak + untraced - expected(step) <= 128 * 1024, step.spec.name

    def test_live_bytes_match_tracemalloc(self, small_graph, small_weights, monkeypatch):
        # numpy's casting buffers and the plan itself are not counted. The
        # image is made before tracing starts, so it is counted only by
        # the plan, and only until its last reader, conv1_1.
        self._check_live_bytes(small_graph, small_weights, monkeypatch)

    def test_live_bytes_with_loaded_store(self, small_graph, small_weights, monkeypatch,
                                          tmp_path):
        # A store loaded from a file adds the running conv's float32
        # weights and bias, read for that layer alone and freed after it.
        save_weights(tmp_path / "w.mlnw", small_weights)
        store = load_weights(tmp_path / "w.mlnw", small_graph)
        read = {name: 4 * (w.size + b.size) for name, (w, b) in small_weights.items()}
        self._check_live_bytes(small_graph, store, monkeypatch, read)

    def test_live_bytes_with_random_store(self, small_graph, small_weights, monkeypatch):
        # A random store adds the running conv's float32 weights and bias,
        # drawn for that layer alone and freed after it. The draw's float64
        # values are freed before the conv runs, which peaks above them.
        read = {name: 4 * (w.size + b.size) for name, (w, b) in small_weights.items()}
        self._check_live_bytes(small_graph, random_weights(small_graph, seed=7),
                               monkeypatch, read)

    def test_converted_image_freed_after_its_last_reader(self, small_graph, small_weights,
                                                         monkeypatch):
        # A float64 image is converted to float32 inside the forward. The
        # copy (240 KiB here) is counted by tracemalloc, and the forward
        # still peaks within 128 KiB above the plan's live bytes, which
        # free the image after conv1_1.
        monkeypatch.setattr(tensor_ops, "IM2COL_CHUNK_BYTES", 64 * 1024)
        image = np.random.default_rng(12).standard_normal((1, 3, 128, 160))
        steps = plan(small_graph, (3, 128, 160))
        tracemalloc.start()
        try:
            forward(small_graph, small_weights, image)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 <= peak - max(step.live_bytes for step in steps) <= 128 * 1024

    def test_forward_with_loaded_store_at_published_input(self, default_weights_file):
        # A loaded store holds no payload: the forward's peak is the plan's
        # plus at most one layer's float32 weights and bias, read for it.
        graph, path = default_weights_file
        store = load_weights(path, graph)
        image = np.random.default_rng(5).standard_normal((1, 3, 368, 432), dtype=np.float32)
        steps = plan(graph, (3, 368, 432))
        largest = max(4 * (math.prod(s.spec.weight_shape) + s.spec.out_channels)
                      for s in steps if s.spec.kind == "conv")
        tracemalloc.start()
        try:
            forward(graph, store, image)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert largest == 4 * (512 * 512 * 9 + 512)
        assert peak <= max(step.live_bytes for step in steps) + largest


class TestDumpActivation:
    def test_input_layer(self, small_graph, small_weights):
        image = np.random.default_rng(4).normal(size=(1, 3, 16, 16)).astype(np.float32)
        np.testing.assert_array_equal(
            dump_activation(small_graph, small_weights, image, "input"), image)

    def test_head_matches_forward(self, small_graph, small_weights):
        image = np.random.default_rng(5).normal(size=(1, 3, 16, 16)).astype(np.float32)
        jm, _ = forward(small_graph, small_weights, image)
        np.testing.assert_array_equal(
            dump_activation(small_graph, small_weights, image, small_graph.joint_output), jm)

    def test_conv_before_its_relu(self, small_graph, small_weights):
        # The ReLU that follows conv1_1 rectifies its output in place, but
        # only after dump_activation has returned it.
        image = np.random.default_rng(13).normal(size=(1, 3, 16, 16)).astype(np.float32)
        act = dump_activation(small_graph, small_weights, image, "conv1_1")
        assert (act < 0).any()
        np.testing.assert_array_equal(act, conv2d(image, *small_weights["conv1_1"]))

    def test_relu_nonnegative(self, small_graph, small_weights):
        image = np.random.default_rng(6).normal(size=(1, 3, 16, 16)).astype(np.float32)
        for name in ("conv1_1_relu", "reduce2_relu", "joint_conv1_relu"):
            act = dump_activation(small_graph, small_weights, image, name)
            assert (act >= 0).all()

    def test_unknown_layer(self, small_graph, small_weights, monkeypatch):
        calls = []
        monkeypatch.setattr(network, "conv2d", lambda *args, **kwargs: calls.append(1))
        with pytest.raises(KeyError, match="no layer named 'nope'"):
            dump_activation(small_graph, small_weights,
                            np.zeros((1, 3, 16, 16), dtype=np.float32), "nope")
        assert calls == []


class TestWeightStores:
    def test_random_weights_deterministic(self, small_graph):
        a = random_weights(small_graph, seed=3)
        b = random_weights(small_graph, seed=3)
        for name in a:
            np.testing.assert_array_equal(a[name][0], b[name][0])

    def test_random_weights_seed_sensitivity(self, small_graph):
        a = random_weights(small_graph, seed=3)
        b = random_weights(small_graph, seed=4)
        assert any((a[name][0] != b[name][0]).any() for name in a)

    @pytest.mark.parametrize("seed", [0, 11])
    def test_random_weights_drawn_per_lookup_match_one_stream(self, seed):
        # Each layer of the default graph, looked up last to first, is the
        # layer drawn in turn from one default_rng(seed) stream.
        graph = build_mln(default_skeleton())
        rng = np.random.default_rng(seed)
        want = {}
        for spec in graph.conv_layers():
            bound = float(np.sqrt(2.0 / math.prod(spec.weight_shape[1:])))
            w = rng.uniform(-bound, bound, size=spec.weight_shape).astype(np.float32)
            want[spec.name] = hashlib.sha256(w.tobytes()).hexdigest()
        store = random_weights(graph, seed)
        for spec in reversed(graph.conv_layers()):
            w, b = store[spec.name]
            assert w.dtype == np.float32 and w.shape == spec.weight_shape
            assert hashlib.sha256(w.tobytes()).hexdigest() == want[spec.name], spec.name
            assert b.dtype == np.float32 and b.tolist() == [0.0] * spec.out_channels

    def test_random_weights_lookup_holds_one_piece(self):
        # conv4_2's 2.4M weights are drawn in float64 pieces of at most
        # 1 MiB: a lookup peaks at its float32 weights and bias, one piece
        # and 128 KiB of generator and view objects, not at the 18.9 MB
        # float64 draw.
        store = random_weights(build_mln(default_skeleton()), seed=0)
        tracemalloc.start()
        try:
            w, b = store["conv4_2"]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w.shape == (512, 512, 3, 3)
        assert peak <= w.nbytes + b.nbytes + 2 ** 20 + 128 * 1024

    def test_random_weights_draw_only_on_lookup(self, small_graph, monkeypatch):
        looked_up = []
        draw = network.RandomWeights.__getitem__
        monkeypatch.setattr(network.RandomWeights, "__getitem__",
                            lambda store, name: looked_up.append(name) or draw(store, name))
        store = random_weights(small_graph, seed=7)
        names = [spec.name for spec in small_graph.conv_layers()]
        assert list(store) == names and len(store) == len(names)
        assert "conv1_1" in store and "conv1_1_relu" not in store
        assert store.shapes == {spec.name: spec.weight_shape
                                for spec in small_graph.conv_layers()}
        # A store drawn for another graph is refused from the shapes alone.
        with pytest.raises(WeightShapeError, match="layer 'joint_conv1': weight shape"):
            forward(build_mln(default_skeleton()), store,
                    np.zeros((1, 3, 16, 16), dtype=np.float32))
        assert looked_up == []
        store["reduce1"]
        assert looked_up == ["reduce1"]

    def test_save_load_round_trip(self, small_graph, small_weights):
        buf = io.BytesIO()
        save_weights(buf, small_weights)
        buf.seek(0)
        back = load_weights(buf, graph=small_graph)
        for name in small_weights:
            np.testing.assert_array_equal(back[name][0], small_weights[name][0])
            np.testing.assert_array_equal(back[name][1], small_weights[name][1])

    def test_path_loads_file_backed_store(self, small_graph, small_weights, tmp_path):
        path = tmp_path / "w.mlnw"
        save_weights(path, small_weights)
        back = load_weights(path, small_graph)
        assert isinstance(back, fileio.WeightFile)
        image = np.random.default_rng(3).standard_normal((1, 3, 16, 24), dtype=np.float32)
        got = forward(small_graph, back, image)
        want = forward(small_graph, small_weights, image)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    def test_default_store_loads_without_its_payload(self, default_weights_file):
        graph, path = default_weights_file
        tracemalloc.start()
        try:
            store = load_weights(path, graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 97e6 and len(store) == 92
        assert peak < 1 << 20

    @pytest.mark.parametrize("source", ["path", "stream"])
    def test_load_checks_shapes_from_headers(self, small_graph, small_weights, tmp_path,
                                            source):
        bad = dict(small_weights)
        bad["reduce1"] = (np.zeros((8, 512, 3, 3), dtype=np.float32),
                          np.zeros(8, dtype=np.float32))
        path = tmp_path / "w.mlnw"
        save_weights(path, bad)
        with pytest.raises(WeightShapeError, match="layer 'reduce1': weight shape"):
            load_weights(path if source == "path" else io.BytesIO(path.read_bytes()),
                         small_graph)

    def test_forward_names_layer_and_changed_file(self, small_graph, small_weights,
                                                  tmp_path):
        path = tmp_path / "w.mlnw"
        save_weights(path, small_weights)
        back = load_weights(path, small_graph)
        path.unlink()
        image = np.zeros((1, 3, 16, 16), dtype=np.float32)
        with pytest.raises(ChangedFileError) as info:
            forward(small_graph, back, image)
        assert str(info.value) == (f"layer 'conv1_1': weights file {path} was removed "
                                   f"after it was loaded")

    def test_load_validates_missing_layer(self, small_graph, small_weights):
        partial = dict(small_weights)
        partial.pop("reduce1")
        buf = io.BytesIO()
        save_weights(buf, partial)
        buf.seek(0)
        with pytest.raises(MissingWeightError):
            load_weights(buf, graph=small_graph)

    def test_load_validates_shape(self, small_graph, small_weights):
        bad = dict(small_weights)
        bad["reduce1"] = (np.zeros((8, 512, 3, 3), dtype=np.float32),
                          np.zeros(8, dtype=np.float32))
        buf = io.BytesIO()
        save_weights(buf, bad)
        buf.seek(0)
        with pytest.raises(WeightShapeError):
            load_weights(buf, graph=small_graph)


# Run in a fresh process: prints the peak RSS (VmHWM) minus the RSS
# (VmRSS) before the measured step, minus the plan's largest live_bytes
# when a forward is measured. ru_maxrss would not do: Linux carries it
# over from the forked test process across exec.
_RSS_PRELUDE = """
import re, sys
import numpy as np
from mlnpose.network import build_mln, forward, load_weights, plan, random_weights, save_weights
from mlnpose.skeleton import default_skeleton
def status_bytes(key):
    with open("/proc/self/status") as f:
        return 1024 * int(re.search(key + r":\\s+(\\d+) kB", f.read()).group(1))
def rss():
    return status_bytes("VmRSS")
def peak():
    return status_bytes("VmHWM")
graph = build_mln(default_skeleton())
"""

_SAVE_SEED0 = _RSS_PRELUDE + """
before = rss()
save_weights(sys.argv[1], random_weights(graph, seed=0))
print(peak() - before)
"""

_THREE_FORWARDS = _RSS_PRELUDE + """
store = load_weights(sys.argv[1], graph)
image = np.random.default_rng(5).standard_normal((1, 3, 368, 432), dtype=np.float32)
live = max(step.live_bytes for step in plan(graph, image.shape[1:]))
before = rss()
for _ in range(3):
    forward(graph, store, image)
print(peak() - before - live)
"""


def _rss_above(script, path):
    out = subprocess.run([sys.executable, "-c", script, str(path)],
                         capture_output=True, text=True, check=True)
    return int(out.stdout)


@pytest.mark.skipif(not _heap.is_glibc(), reason="release trims glibc's heap")
class TestResidentMemory:
    def test_saving_random_store_holds_one_layer(self, tmp_path):
        # The store draws each layer as it is written, in 1 MiB float64
        # pieces: saving all 97 MB raises the peak by its largest layer's
        # float32 weights and one piece, not by the store or a float64 draw.
        assert _rss_above(_SAVE_SEED0, tmp_path / "w.mlnw") < 30e6

    def test_forwards_hand_back_their_heap(self, default_weights_file):
        # Each forward trims the heap its deep layers freed, so the next
        # one's first activations are not mapped on top of it. The maps
        # are dropped between forwards, as perfbench's loop drops them.
        _, path = default_weights_file
        assert _rss_above(_THREE_FORWARDS, path) <= 12e6


class TestComplexity:
    def test_totals_equal_layer_sums(self, small_graph):
        report = complexity_report(small_graph, (3, 32, 32))
        assert report.total_params == sum(r["params"] for r in report.per_layer)
        assert report.total_flops_mac1 == sum(r["flops_mac1"] for r in report.per_layer)
        assert report.total_flops_mac2 == sum(r["flops_mac2"] for r in report.per_layer)

    def test_params_match_counter(self, small_graph):
        report = complexity_report(small_graph, (3, 32, 32))
        by_name = {r["name"]: r for r in report.per_layer}
        for spec in small_graph.conv_layers():
            assert by_name[spec.name]["params"] == layer_param_count(spec)

    def test_first_layer_values(self, small_graph):
        report = complexity_report(small_graph, (3, 32, 32))
        first = next(r for r in report.per_layer if r["name"] == "conv1_1")
        assert first["params"] == 1_792
        assert first["flops_mac1"] == (27 + 1) * 64 * 32 * 32
        assert first["flops_mac2"] == (2 * 27 + 1) * 64 * 32 * 32

    def test_model_size_formula(self, small_graph):
        report = complexity_report(small_graph, (3, 32, 32))
        assert report.model_size_mb == pytest.approx(report.total_params * 4 / 1e6)

    def test_mac2_doubles_macs(self, small_graph):
        report = complexity_report(small_graph, (3, 32, 32))
        for row in report.per_layer:
            if row["kind"] != "conv":
                continue
            bias_adds = np.prod(row["out_shape"])
            macs = (row["flops_mac2"] - bias_adds) // 2
            assert row["flops_mac1"] == macs + bias_adds

    def test_output_shape_tracking(self, small_graph):
        report = complexity_report(small_graph, (3, 32, 32))
        by_name = {r["name"]: tuple(r["out_shape"]) for r in report.per_layer}
        assert by_name["pool1"] == (64, 16, 16)
        assert by_name[small_graph.joint_output] == (4, 4, 4)

    def test_table_renders(self, small_graph):
        text = complexity_report(small_graph, (3, 32, 32)).to_table()
        assert "TOTAL" in text and "model size" in text

    @pytest.mark.parametrize("shape", [(3, 12, 12), (3, 7, 7), (3, 16, 20), (3, 0, 8),
                                       (1, 16, 16)])
    def test_rejects_what_forward_rejects(self, small_graph, small_weights, shape):
        with pytest.raises(ShapeError) as report_error:
            complexity_report(small_graph, shape)
        with pytest.raises(ShapeError) as forward_error:
            forward(small_graph, small_weights, np.zeros((1, *shape), dtype=np.float32))
        assert str(report_error.value) == str(forward_error.value)
