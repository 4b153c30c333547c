import copy
import dataclasses
import json
import os
import re
import tracemalloc
import weakref

import numpy as np
import pytest

import siggate.training as training
from oracles import (
    allocating_adamw_step, assert_bitwise, copy_values, dataclass_probe_index, dump_text, first_nonfinite_by_loop,
    hand_written_reads, hand_written_registry, MemoLift, one_probe_fd_check, one_probe_losses,
    param_set, per_call_init, per_name_gradients, per_op_layer_forward, subset, vector_positions,
)
from siggate.attention import GATE_ACTIVATIONS, GateConfig, gate_param_count, is_gate_param
from siggate.diagnostics import depth_profile
from siggate import autodiff as ad
from siggate import gps
from siggate.gps import (
    GraphBatch, GraphInstance, LayerNormParams, batch_forward, init_model, model_forward,
)
from siggate.numeric import NonFiniteInputError, SeededRng
from siggate.synthexp import make_toy_task
from siggate.training import (
    LOSSES,
    DivergenceError,
    NonFiniteError,
    ParamSet,
    TrainConfig,
    adamw_step,
    batch_loss,
    cosine_lr,
    evaluate,
    finite_difference_check,
    init_optimizer,
    load_model,
    loss_and_gradients,
    save_model,
    train_toy,
    write_history_csv,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "train_toy_loss.json")


def tiny_model(seed=0, placement="g1", **kw):
    gate = (GateConfig(placement=placement, **kw) if placement != "none"
            else GateConfig(placement="none"))
    return init_model(SeededRng(seed), d_in=4, d=16, n_heads=4, n_layers=2, gate=gate)


def plain_probes(model, pairs, loss):
    """``(at, h) -> training._probe_losses(...)`` over the states of a
    tape-free forward of ``pairs``, and the model's layout as
    ``ParamSet.from_model`` checks it."""
    _, groups = training._summed_loss(model, pairs, loss)
    states = [(graphs, targets, trace.hidden) for _, graphs, targets, trace in groups]
    layout = ParamSet.from_model(model).layout
    return lambda at, h: training._probe_losses(model, layout, states, loss, at, h)


@pytest.fixture
def batch():
    task = make_toy_task(seed=3, n_graphs=4, nodes_per_graph=6)
    return task.train


class TestParamSet:
    def test_registry_is_ordered_and_complete(self):
        model = tiny_model()
        params = ParamSet.from_model(model)
        names = params.layout.names
        assert names[0] == "input.w" and names[-1] == "head.b"
        assert names == ParamSet.from_model(model).layout.names  # deterministic
        total = sum(a.size for _, a in params.items())
        assert params.layout.starts[-1] == params.flat.size == total

    def test_gate_registry_matches_overhead_formula(self):
        model = tiny_model(placement="g1")
        params = ParamSet.from_model(model)
        gate_total = sum(a.size for n, a in params.items() if is_gate_param(n))
        assert gate_total == gate_param_count(16, 4, 4, 2)

    def test_shared_gate_registered_once(self):
        model = tiny_model(placement="g1", sharing="shared")
        params = ParamSet.from_model(model)
        gate_names = [n for n in params.layout.names if is_gate_param(n)]
        assert gate_names == ["layer0.attn.gate.w_g", "layer0.attn.gate.b_g",
                              "layer1.attn.gate.w_g", "layer1.attn.gate.b_g"]

    def test_arrays_are_shared_references(self):
        model = tiny_model()
        params = ParamSet.from_model(model)
        params["head.b"][:] = 9.0
        assert model.b_head[0] == 9.0


def head_slot(name):
    """``(layer, field, k)`` of a head's parameter name: the layer, the stack
    it is a slice of, and the slice (0 for a shared gate)."""
    layer, _, owner, field = name.split(".")
    return int(layer[len("layer"):]), field, 0 if owner == "gate" else int(owner[len("head"):])


def head_names(params):
    return [name for name in params.layout.names if ".attn.head" in name or ".attn.gate." in name]


class TestHeadStackParams:
    """ParamSet entries of attention heads are views of slices of the layer's stacks."""

    @pytest.mark.parametrize("placement, kw", [
        ("g1", {}), ("g3", {"activation": "tanh"}), ("g2", {"sharing": "shared"}),
    ])
    def test_view_gradient_is_slice_of_stack_gradient(self, batch, placement, kw):
        model = tiny_model(seed=40, placement=placement, **kw)
        params = ParamSet.from_model(model)
        _, grads = loss_and_gradients(model, batch[:3])
        lift = MemoLift()
        graphs = GraphBatch.of([g for g, _ in batch[:3]])
        pred, _ = batch_forward(graphs, model, lift=lift)
        targets = np.stack([np.reshape(t, -1) for _, t in batch[:3]])
        ad.backward(ad.div(ad.vsum(ad.square(ad.sub(pred, targets))), 3.0))
        checked = 0
        for i, layer in enumerate(model.layers):
            attn = layer.attn
            for name in attn.stacked_fields():
                stack_grad = lift.grad(getattr(attn, name))
                assert stack_grad.shape == getattr(attn, name).shape
                for k in range(len(stack_grad)):
                    label = "gate" if len(stack_grad) == 1 else f"head{k}"
                    assert np.array_equal(grads[f"layer{i}.attn.{label}.{name}"], stack_grad[k])
                    checked += 1
        gate_heads = 1 if kw.get("sharing") == "shared" else 4
        gate_fields = len(model.layers[0].attn.stacked_fields()) - 3
        assert checked == 2 * (3 * 4 + gate_fields * gate_heads)
        assert len(head_names(params)) == checked

    def test_adamw_update_reaches_the_next_forward(self):
        model = tiny_model(seed=41, placement="g1")
        params = ParamSet.from_model(model)
        graph = make_toy_task(seed=7, n_graphs=2, nodes_per_graph=6).train[0][0]
        before, _ = model_forward(graph, model)
        stack = model.layers[1].attn.w_v.copy()
        grads = param_set({n: np.zeros_like(a) for n, a in params.items()})
        grads["layer1.attn.head2.w_v"][:] = 1.0
        adamw_step(params, grads, init_optimizer(params), 0.1)
        after, _ = model_forward(graph, model)
        assert not np.array_equal(before, after)
        moved = model.layers[1].attn.w_v
        assert np.array_equal(moved[2], stack[2] - 0.1 * 1.0 / (1.0 + 1e-8))
        assert np.array_equal(np.delete(moved, 2, axis=0), np.delete(stack, 2, axis=0))
        assert np.shares_memory(params["layer1.attn.head2.w_v"], moved[2])

    @pytest.mark.parametrize("placement, sharing", [("g1", "per_head"), ("g3", "shared")])
    def test_load_model_keeps_the_view_link(self, tmp_path, placement, sharing):
        path = tmp_path / "model.txt"
        save_model(tiny_model(seed=42, placement=placement, sharing=sharing), path)
        back = load_model(path)
        params = ParamSet.from_model(back)
        graph = make_toy_task(seed=8, n_graphs=2, nodes_per_graph=6).train[0][0]
        before, _ = model_forward(graph, back)
        for name in head_names(params):
            i, field, k = head_slot(name)
            assert np.shares_memory(params[name], getattr(back.layers[i].attn, field)[k])
        params["layer0.attn.head3.w_k"][0, 0] += 1.0
        assert back.layers[0].attn.w_k[3, 0, 0] == params["layer0.attn.head3.w_k"][0, 0]
        assert not np.array_equal(model_forward(graph, back)[0], before)

    @pytest.mark.parametrize("source", ["init_model", "load_model"])
    @pytest.mark.parametrize("sharing", ["per_head", "shared"])
    def test_each_head_entry_writes_through_to_its_slice_alone(self, tmp_path, sharing, source):
        # Writing into a head-named entry changes that slice of its stack and
        # the next forward, and no other value of the model.
        model = tiny_model(seed=43, placement="g3", sharing=sharing)
        if source == "load_model":
            save_model(model, tmp_path / "model.txt")
            model = load_model(tmp_path / "model.txt")
        params = ParamSet.from_model(model)
        graph = make_toy_task(seed=9, n_graphs=2, nodes_per_graph=6).train[0][0]
        before = model_forward(graph, model)[0]
        names = head_names(params)
        assert len(names) == 2 * (3 * 4 + 3 * (1 if sharing == "shared" else 4))
        for name in names:
            i, field, k = head_slot(name)
            stack = getattr(model.layers[i].attn, field)
            want = stack.copy()
            want[k].flat[-1] += 0.25
            values = copy_values(params)
            params[name].flat[-1] += 0.25
            assert np.array_equal(stack, want), name
            assert all(np.array_equal(arr, values[other])
                       for other, arr in params.items() if other != name), name
            assert not np.array_equal(model_forward(graph, model)[0], before), name
            params[name][...] = values[name]
        assert np.array_equal(model_forward(graph, model)[0], before)


class TestLossAndGradients:
    def test_zero_model_zero_targets(self):
        model = tiny_model()
        params = ParamSet.from_model(model)
        for _, arr in params.items():
            arr[:] = 0.0
        task = make_toy_task(seed=1, n_graphs=3, nodes_per_graph=5)
        zero_batch = [(g, 0.0) for g, _ in task.train]
        loss, grads = loss_and_gradients(model, zero_batch, loss="mse")
        assert loss == 0.0
        assert all(np.array_equal(g, np.zeros_like(g)) for _, g in grads.items())

    def test_empty_batch_rejected(self):
        model = tiny_model()
        with pytest.raises(ValueError, match="non-empty"):
            loss_and_gradients(model, [])

    @pytest.mark.parametrize("run", [batch_loss, evaluate])
    def test_plain_passes_reject_an_empty_batch(self, run):
        with pytest.raises(ValueError, match="^batch must be non-empty$"):
            run(tiny_model(), [])

    def test_gradients_match_finite_differences(self, batch):
        model = tiny_model(seed=7)
        params = ParamSet.from_model(model)
        report = finite_difference_check(model, params, batch, h=1e-5, sample=6,
                                         seed=11, loss="mse")
        assert report.max_rel_err <= 1e-5
        assert report.max_param_rel <= 1e-7

    def test_gate_gradients_alive_at_init(self, batch):
        # bias_init 0.5 must leave the gate projections trainable from step one
        model = tiny_model(seed=2, placement="g1")
        params = ParamSet.from_model(model)
        _, grads = loss_and_gradients(model, batch, loss="mse")
        for name in params.layout.names:
            if name.endswith(".w_g"):
                assert np.linalg.norm(grads[name]) > 0.0

    def test_shared_gate_gradient_accumulates_over_heads(self, batch):
        model = tiny_model(seed=2, placement="g1", sharing="shared")
        params = ParamSet.from_model(model)
        _, grads = loss_and_gradients(model, batch, loss="mse")
        assert np.linalg.norm(grads["layer0.attn.gate.w_g"]) > 0.0

    def test_nan_parameter_is_named(self, batch):
        model = tiny_model(seed=3)
        params = ParamSet.from_model(model)
        params["layer1.ffn.w1"][0, 0] = np.nan
        with pytest.raises(NonFiniteError) as err:
            loss_and_gradients(model, batch)
        assert err.value.param_name == "layer1.ffn.w1"

    def test_nan_before_an_attention_layer_is_named(self, batch):
        # the NaN reaches layer 1's attention logits, which the softmax rejects
        model = tiny_model(seed=3)
        params = ParamSet.from_model(model)
        params["layer0.ffn.w1"][0, 0] = np.nan
        with pytest.raises(NonFiniteError, match="largest logit nan") as err:
            loss_and_gradients(model, batch)
        assert err.value.param_name == "layer0.ffn.w1"

    def test_layer_norm_overflow_is_an_error_not_zeros(self, batch, monkeypatch):
        # b2 = 1e308 overflows the variance of layer 0's second layer norm,
        # which used to turn every row into zeros and give a finite loss.
        def poisoned(*args, **kw):
            model = init_model(*args, **kw)
            model.layers[0].ffn.b2[0] = 1e308
            return model

        model = poisoned(SeededRng(3), d_in=4, d=16, n_heads=4, n_layers=2, gate=GateConfig())
        monkeypatch.setattr(training, "init_model", poisoned)
        named = "^layer 0: layer_norm: row 0 has an infinite"
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteInputError, match=named):
                model_forward(batch[0][0], model)
            with pytest.raises(NonFiniteError, match=named):
                loss_and_gradients(model, batch)
            with pytest.raises(DivergenceError) as err:
                train_toy(TrainConfig(epochs=2, n_layers=2, d=16, n_heads=4),
                          make_toy_task(seed=3, n_graphs=4, nodes_per_graph=6))
        assert err.value.epoch == 0
        assert re.match(named, str(err.value.__cause__))

    @pytest.mark.parametrize("path", ["batch_loss", "loss_and_gradients", "train_toy"])
    def test_an_overflowing_logit_names_its_layer_on_every_path(self, batch, path):
        # A g3 gate bias of 1e308 makes layer 0's logits infinite; the
        # tape-free forward, the taped step and training give one text.
        gate = GateConfig(placement="g3", activation="relu", bias_init=1e308)
        model = init_model(SeededRng(3), d_in=4, d=16, n_heads=4, n_layers=2, gate=gate)
        text = "layer 0: row (1, 0, 3) has largest logit inf; softmax undefined"
        with np.errstate(all="ignore"), pytest.raises(Exception) as err:
            if path == "batch_loss":
                batch_loss(model, batch)
            elif path == "loss_and_gradients":
                loss_and_gradients(model, batch)
            else:
                train_toy(TrainConfig(epochs=2, n_layers=2, d=16, n_heads=4, gate=gate),
                          make_toy_task(seed=3, n_graphs=4, nodes_per_graph=6))
        if path == "batch_loss":
            assert err.type is NonFiniteInputError and str(err.value) == text
        elif path == "loss_and_gradients":
            assert err.type is NonFiniteError
            assert str(err.value) == f"{text}; every parameter is finite"
        else:
            assert err.type is DivergenceError and err.value.epoch == 0
            assert str(err.value.__cause__).startswith("layer 0: row ")

    def test_a_probe_that_overflows_names_its_layer(self, batch):
        # The probes start at the layer that reads the array: layer 1 here.
        model = tiny_model(seed=3, placement="g3", activation="relu")
        probe_losses = plain_probes(model, batch, "mse")
        with np.errstate(all="ignore"), pytest.raises(
                NonFiniteInputError,
                match=r"^layer 1: row \(0, 0, 0, 2\) has largest logit inf; softmax undefined$"):
            probe_losses(vector_positions(model, [(model.layers[1].attn.b_g, [0])]), 1e308)


WALK_CASES = [(placement, sharing) for placement in ("none", "g1", "g2", "g3")
              for sharing in ("per_head", "shared")]


def walk_model(placement, sharing, activation="tanh"):
    """Three layers with edge features, a two-wide output and a sum readout."""
    gate = GateConfig(placement=placement, sharing=sharing, activation=activation)
    return init_model(SeededRng(30), d_in=3, d=8, n_heads=2, n_layers=3, gate=gate, d_e=2,
                      out_dim=2, readout="sum")


def aliased_walk_model():
    """:func:`walk_model` for g1 whose layers read some arrays under two names:
    each ln2 is its ln1, and layer 1's W_V of the MPNN is also its W_O and
    layer 2's W_V."""
    model = walk_model("g1", "per_head")
    for layer in model.layers:
        layer.ln2 = LayerNormParams(layer.ln1.scale, layer.ln1.shift)
    model.layers[1].attn.w_o = model.layers[1].mpnn.w_val
    model.layers[2].mpnn.w_val = model.layers[1].mpnn.w_val
    return model


def probe_index(layout):
    """The layout's ``index`` as :func:`oracles.dataclass_probe_index` gives
    it: ``id -> layer`` for every array after the input projection."""
    return {key: carved.layer for key, carved in layout.index.items() if carved.layer >= 0}


class TestParamWalk:
    """The parameters ``model_skeleton`` declares, against the hand-written
    registry and dataclass walk in tests/oracles.py."""

    @pytest.mark.parametrize("placement, sharing", WALK_CASES)
    def test_names_order_and_arrays_match_the_hand_written_registry(self, placement, sharing):
        model = walk_model(placement, sharing)
        want = hand_written_registry(model)
        layout = model.layout
        assert list(layout.names) == list(want)
        assert all(id(arr) in layout.index for arr, _ in hand_written_reads(model).values())
        params = ParamSet.from_model(model)
        assert list(params.layout.names) == list(want)
        assert all(same_array(params[name], arr) for name, arr in want.items())

    @pytest.mark.parametrize("placement, sharing", WALK_CASES)
    def test_probe_index_matches_the_dataclass_walk(self, placement, sharing):
        model = walk_model(placement, sharing)
        want = dataclass_probe_index(model)
        got = probe_index(model.layout)
        assert set(got) == set(want)
        assert got == want
        index = model.layout.index
        assert [(index[id(arr)].layer, index[id(arr)].name)
                for arr in (model.w_in, model.b_in)] == [(-1, "input.w"), (-1, "input.b")]

    def test_an_array_read_under_two_names_cannot_reach_the_check(self):
        # The probe index keeps one layer per array, so a model that reads an
        # array under two names is refused before anything is probed.
        model = aliased_walk_model()
        params = ParamSet.from_model(walk_model("g1", "per_head"))
        off = "^parameter 'layer0.ln2.scale' is off the model's layout"
        with pytest.raises(ValueError, match=off):
            plain_probes(model, walk_batch(), "mse")
        with pytest.raises(ValueError, match=off):
            finite_difference_check(model, params, walk_batch(), sample=1)

    @pytest.mark.parametrize("placement, sharing", WALK_CASES)
    def test_dump_bytes_follow_the_hand_written_order(self, tmp_path, placement, sharing):
        model = walk_model(placement, sharing)
        path = tmp_path / "model.txt"
        save_model(model, path)
        meta = {"d_in": 3, "d": 8, "n_heads": 2, "n_layers": 3, "d_ff": 16, "d_e": 2,
                "out_dim": 2, "readout": "sum", "placement": placement, "sharing": sharing,
                "activation": "tanh", "bias_init": 0.5}
        want = dump_text(meta, hand_written_registry(model))
        assert path.read_bytes() == want.encode()
        save_model(load_model(path), tmp_path / "again.txt")
        assert (tmp_path / "again.txt").read_bytes() == want.encode()


def assert_rel_close(a, b, rel=1e-12):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.max(np.abs(a - b)) <= rel * max(np.max(np.abs(b)), 1e-300)


def same_array(a, b):
    """``a`` and ``b`` are the same array or the same view: one buffer, shape,
    strides and dtype."""
    return a is b or a.__array_interface__ == b.__array_interface__


def assert_same_losses(got, want):
    """Batched ``(f_plus, f_minus)`` probe losses equal the one-probe ones bit for bit."""
    for got_side, want_side in zip(got, want):
        assert [float(x).hex() for x in got_side] == [float(x).hex() for x in want_side]


def mixed_sizes_batch():
    """Graphs of 5, 7, 5, 6 and 7 nodes, one of them with an attention mask."""
    pairs = []
    for seed, n in enumerate((5, 7, 5, 6, 7)):
        pairs.append(make_toy_task(seed=20 + seed, n_graphs=2, nodes_per_graph=n).train[0])
    g, y = pairs[2]
    mask = np.eye(5, dtype=bool)
    mask[:, :2] = True
    pairs[2] = (GraphInstance(n=5, node_features=g.node_features, edges=g.edges,
                              attn_mask=mask), y)
    return pairs


class TestBatchedPass:
    @pytest.mark.parametrize("placement, kw", [
        ("none", {}), ("g1", {}), ("g2", {"activation": "tanh"}),
        ("g3", {"activation": "sigmoid_squared"}), ("g1", {"sharing": "shared"}),
    ])
    @pytest.mark.parametrize("loss", ["mse", "mae"])
    def test_batch_gradients_equal_sum_of_per_graph_tapes(self, placement, kw, loss):
        model = tiny_model(seed=13, placement=placement, **kw)
        params = ParamSet.from_model(model)
        pairs = mixed_sizes_batch()
        loss_all, grads_all = loss_and_gradients(model, pairs, loss=loss)
        per_graph = [loss_and_gradients(model, [pair], loss=loss) for pair in pairs]
        assert loss_all == pytest.approx(np.mean([lv for lv, _ in per_graph]), rel=1e-12)
        for name in params.layout.names:
            summed = sum(grads[name] for _, grads in per_graph) / len(pairs)
            assert_rel_close(grads_all[name], summed)

    def test_one_taped_pass_per_node_count(self, monkeypatch):
        model = tiny_model(seed=14)
        params = ParamSet.from_model(model)
        sizes = []
        real = training.batch_forward

        def counted(graphs, *args, **kw):
            sizes.append((graphs.n, graphs.size))
            return real(graphs, *args, **kw)

        monkeypatch.setattr(training, "batch_forward", counted)
        loss_and_gradients(model, make_toy_task(seed=4, n_graphs=12).train)
        assert sizes == [(8, 9)]
        sizes.clear()
        loss_and_gradients(model, mixed_sizes_batch())
        assert sizes == [(5, 2), (7, 2), (6, 1)]

    def test_twelve_layer_tape_size(self, monkeypatch):
        """Nodes of one 12-layer g1 training tape (9 graphs of 8 nodes),
        counted from the root handed to backward: 217, of which 196 are the
        parameters' leaves and 12 the layers (one node each). A tape of one
        node per op had 625, 429 of them ops."""
        model = init_model(SeededRng(0), d_in=4, d=16, n_heads=4, n_layers=12,
                           gate=GateConfig(placement="g1"))
        roots = []
        real = ad.backward

        def recording(root):
            roots.append(root)
            real(root)

        monkeypatch.setattr(ad, "backward", recording)
        task = make_toy_task(seed=0, n_graphs=12, nodes_per_graph=8)
        assert len(task.train) == 9
        loss_and_gradients(model, task.train)
        seen, ops, stack = set(), 0, list(roots)
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                ops += bool(node.parents)
                stack.extend(parent for parent, _ in node.parents)
        assert len(roots) == 1
        assert len(seen) <= 220
        assert ops <= 24

    def test_evaluate_keeps_graph_order_across_node_counts(self):
        model = tiny_model(seed=15, placement="g3", activation="tanh")
        pairs = mixed_sizes_batch()
        loss, traces = evaluate(model, pairs, loss="mae")
        assert len(traces) == len(pairs)
        expected_loss = 0.0
        for (graph, target), trace in zip(pairs, traces):
            pred, want = model_forward(graph, model)
            expected_loss += float(np.abs(pred - target).sum())
            for h_got, h_want in zip(trace.hidden, want.hidden):
                assert h_got.shape == (graph.n, 16)
                assert_rel_close(h_got, h_want)
            for heads_got, heads_want in zip(trace.head_traces, want.head_traces):
                for ht_got, ht_want in zip(heads_got, heads_want):
                    assert_rel_close(ht_got.attention, ht_want.attention)
                    assert_rel_close(ht_got.gate, ht_want.gate)
                    assert_rel_close(ht_got.output, ht_want.output)
        assert loss == pytest.approx(expected_loss / len(pairs), rel=1e-12)
        assert batch_loss(model, pairs, "mae") == loss
        assert loss_and_gradients(model, pairs, "mae")[0] == loss


def per_op_step(model, pairs, loss, monkeypatch):
    """``loss_and_gradients`` with every layer taped op by op
    (:func:`oracles.per_op_layer_forward`)."""
    monkeypatch.setattr(gps, "gps_layer_forward", per_op_layer_forward)
    try:
        return loss_and_gradients(model, pairs, loss)
    finally:
        monkeypatch.undo()


class TestLayerNode:
    """A taped GPS layer is one node with a closed-form VJP. Its loss and
    every gradient are bitwise those of the layer taped one node per op
    (tests/oracles.py), whose backward sweep sums the terms of each array."""

    @pytest.mark.parametrize("loss", ["mse", "mae"])
    @pytest.mark.parametrize("activation", GATE_ACTIVATIONS)
    @pytest.mark.parametrize("placement, sharing", WALK_CASES)
    def test_gradients_equal_the_per_op_tape_bitwise(self, monkeypatch, placement, sharing,
                                                     activation, loss):
        # Three node counts, one masked graph, edge features and a sum readout.
        model = walk_model(placement, sharing, activation)
        pairs = walk_batch()
        want_loss, want = per_op_step(model, pairs, loss, monkeypatch)
        got_loss, got = loss_and_gradients(model, pairs, loss)
        assert float(got_loss).hex() == float(want_loss).hex()
        assert_bitwise(got.flat, want.flat)

    @pytest.mark.parametrize("placement, sharing", WALK_CASES)
    def test_an_edgeless_batch_equals_the_per_op_tape_bitwise(self, monkeypatch, placement,
                                                             sharing):
        model = walk_model(placement, sharing)
        pairs = [(GraphInstance(n=g.n, node_features=g.node_features, edges=[],
                                edge_features=np.empty((0, 2)), attn_mask=g.attn_mask), y)
                 for g, y in walk_batch()]
        want_loss, want = per_op_step(model, pairs, "mse", monkeypatch)
        got_loss, got = loss_and_gradients(model, pairs, "mse")
        assert float(got_loss).hex() == float(want_loss).hex()
        assert_bitwise(got.flat, want.flat)
        assert not any(np.any(g) for name, g in got.items() if ".mpnn." in name)

    def test_each_scatter_index_is_built_once_per_batch(self, monkeypatch):
        # Per group, three layers scatter six times at dst and three at src, all 8 wide.
        model, pairs = walk_model("g1", "per_head"), walk_batch()
        built = []
        real = ad.flat_index
        monkeypatch.setattr(ad, "flat_index", lambda idx, cols: built.append(cols) or
                            real(idx, cols))
        loss, grads = loss_and_gradients(model, pairs, "mse")
        assert built == [8] * 2 * len(training._graph_groups(pairs))
        monkeypatch.undo()
        want_loss, want = per_op_step(model, pairs, "mse", monkeypatch)
        assert float(loss).hex() == float(want_loss).hex()
        assert_bitwise(grads.flat, want.flat)

    @pytest.mark.parametrize("placement, sharing", WALK_CASES)
    def test_the_taped_forward_is_the_tape_free_forward(self, placement, sharing):
        model = walk_model(placement, sharing, "sigmoid_squared")
        for _, graphs, _ in training._graph_groups(walk_batch()):
            want_pred, want = batch_forward(graphs, model)
            pred, got = batch_forward(graphs, model, lift=MemoLift())
            assert type(pred) is ad.Var
            assert_bitwise(pred.value, want_pred)
            assert len(got) == len(want) == 3
            for h_got, h_want in zip(got.hidden, want.hidden):
                assert_bitwise(h_got, h_want)
            for heads_got, heads_want in zip(got.head_traces, want.head_traces):
                assert len(heads_got) == len(heads_want) == 2
                for ht_got, ht_want in zip(heads_got, heads_want):
                    assert_bitwise(ht_got.attention, ht_want.attention)
                    assert_bitwise(ht_got.output, ht_want.output)
                    if placement == "none":
                        assert ht_got.gate is None and ht_want.gate is None
                    else:
                        assert_bitwise(ht_got.gate, ht_want.gate)

    def test_the_step_builds_only_the_nodes_it_reaches(self, monkeypatch):
        # The README's step: 12 layers of g1 (d = 16, 4 heads), mae, 9 graphs of 8 nodes.
        pairs = make_toy_task(seed=0, n_graphs=12, nodes_per_graph=8).train
        assert len(pairs) == 9 and {g.n for g, _ in pairs} == {8}
        model = init_model(SeededRng(0), d_in=pairs[0][0].d_in, d=16, n_heads=4, n_layers=12,
                           gate=GateConfig(placement="g1"))
        built, roots = [], []
        real_init, real_backward = ad.Var.__init__, ad.backward

        def counting(node, value, parents=(), vjp=None):
            if parents:
                built.append(node)
            real_init(node, value, parents, vjp)

        monkeypatch.setattr(ad.Var, "__init__", counting)
        monkeypatch.setattr(ad, "backward", lambda root: roots.append(root) or real_backward(root))
        loss_and_gradients(model, pairs, "mae")
        reached, stack = {}, list(roots)
        while stack:
            node = stack.pop()
            if id(node) not in reached:
                reached[id(node)] = node
                stack += [parent for parent, _ in node.parents]
        ops = [node for node in reached.values() if node.parents]
        assert len(built) == len(ops) == 21
        assert {id(node) for node in built} == {id(node) for node in ops}

    def test_each_layer_is_one_node_over_its_input_and_arrays(self):
        model = walk_model("g3", "shared")
        graphs = GraphBatch.of([g for g, _ in walk_batch()[:1]])
        lift = MemoLift()
        h = gps.model_embed(graphs, model, lift=lift)
        out, entry = gps.gps_layer_forward(graphs, h, model.layers[0], lift=lift)
        assert entry.hidden is out.value
        # h once, then each array the layer reads once, in carve order
        arrays = [id(c.array) for c in model.layout.index.values() if c.layer == 0]
        assert [parent for parent, _ in out.parents] == [h] + [lift.leaves[a] for a in arrays]
        assert [i for _, i in out.parents] == list(range(len(arrays) + 1))


class TestFiniteDifferenceCheck:
    def test_linear_head_is_exact_for_central_differences(self, batch):
        # loss is quadratic in the readout head, so central differences are
        # exact there; what remains is float64 roundoff in the loss values
        model = tiny_model(seed=5)
        params = ParamSet.from_model(model)
        head_only = subset(params, ["head.w", "head.b"])
        report = finite_difference_check(model, head_only, batch, h=1e-5,
                                         sample=None, loss="mse")
        assert report.max_param_rel <= 1e-10
        assert report.max_rel_err <= 1e-8

    @pytest.mark.parametrize("sample", [0, -3])
    def test_sample_below_one_rejected(self, batch, sample):
        model = tiny_model()
        with pytest.raises(ValueError, match=f"sample must be >= 1 .*got {sample}"):
            finite_difference_check(model, ParamSet.from_model(model), batch, sample=sample)

    def test_h_outside_bounds_rejected(self, batch):
        model = tiny_model()
        params = ParamSet.from_model(model)
        with pytest.raises(ValueError, match="h must lie"):
            finite_difference_check(model, params, batch, h=1e-2)

    @pytest.mark.parametrize("items, message", [
        ({"head.b": np.zeros(1), "foo": np.zeros(3)},
         "^params names 'foo', which is not a parameter of the model$"),
        ({"head.w": np.zeros(3)},
         r"^params gives 'head.w' the shape \(3,\), but the model's has \(16, 1\)$"),
        ({}, "^params is empty: there is no parameter to check$"),
    ], ids=["unknown-name", "other-shape", "empty"])
    def test_a_bad_params_is_rejected_before_the_taped_pass(self, batch, monkeypatch,
                                                            items, message):
        def taped(*args, **kw):
            raise AssertionError("the taped pass ran")

        monkeypatch.setattr(training, "loss_and_gradients", taped)
        with pytest.raises(ValueError, match=message):
            finite_difference_check(tiny_model(), param_set(items), batch, sample=2)

    def test_corrupted_gradient_is_flagged(self, batch, monkeypatch):
        model = tiny_model(seed=6)
        params = ParamSet.from_model(model)
        real = training.loss_and_gradients

        def corrupted(*args, **kw):
            loss, grads = real(*args, **kw)
            grads["layer0.mpnn.w_val"][:] += 1.0
            return loss, grads

        monkeypatch.setattr(training, "loss_and_gradients", corrupted)
        report = finite_difference_check(model, params, batch, sample=3, seed=4)
        assert report.max_rel_err > 1e-2
        assert report.worst_param == "layer0.mpnn.w_val"
        assert report.worst_param_by_norm == "layer0.mpnn.w_val"

    def test_the_first_worst_coordinate_wins_and_a_nan_never_does(self, batch, monkeypatch):
        # Gradients of 1e300 give a relative error of exactly 1.0 at three
        # coordinates; a NaN before them and an infinity after them must not
        # be the worst coordinate, as in the oracle's loop.
        model = tiny_model(seed=6)
        params = ParamSet.from_model(model)
        real = training.loss_and_gradients

        def corrupted(*args, **kw):
            loss, grads = real(*args, **kw)
            grads["layer0.mpnn.w_val"].reshape(-1)[:] = np.nan
            for name in ("layer0.ffn.b1", "layer1.ffn.b1", "layer1.ln2.scale"):
                grads[name].reshape(-1)[:] = 1e300
            grads["head.b"][:] = np.inf
            return loss, grads

        monkeypatch.setattr(training, "loss_and_gradients", corrupted)
        with np.errstate(invalid="ignore", over="ignore"):  # the NaN and 1e300 param_rels
            report = finite_difference_check(model, params, batch[:2], sample=2, seed=4)
            want = one_probe_fd_check(model, params, batch[:2], sample=2, seed=4)
        assert (report.max_rel_err, report.worst_param) == (1.0, "layer0.ffn.b1")
        assert report.worst_param_by_norm == "layer0.mpnn.w_val"  # its param_rel is NaN
        assert report.worst_index == want.worst_index and report.n_checked == want.n_checked
        assert {name: rel.hex() for name, rel in report.param_rel.items()} == {
            name: rel.hex() for name, rel in want.param_rel.items()}  # NaN != NaN

    @pytest.mark.parametrize("placement, kw", [
        ("none", {}), ("g1", {}), ("g2", {"activation": "relu"}),
        ("g3", {"activation": "tanh"}), ("g1", {"sharing": "shared"}),
    ])
    def test_cached_probe_loss_equals_full_forward_bitwise(self, batch, placement, kw):
        model = tiny_model(seed=12, placement=placement, **kw)
        model.readout = "sum"
        mask = np.ones((6, 6), dtype=bool)
        mask[0, 3:] = False
        masked = GraphInstance(n=6, node_features=batch[0][0].node_features,
                               edges=batch[0][0].edges, attn_mask=mask)
        graphs = batch[:2] + [(masked, 0.25)]
        probe_losses = plain_probes(model, graphs, "mae")
        rng = np.random.default_rng(0)
        unmoved = batch_loss(model, graphs, "mae")
        for carved in model.layout.index.values():  # each array the forward reads
            name, arr = carved.name, carved.array
            idxs = rng.choice(arr.size, size=min(5, arr.size), replace=False)
            at = vector_positions(model, [(arr, idxs)])
            got = probe_losses(at, 1e-3)
            assert_same_losses(got, one_probe_losses(model, graphs, "mae", arr, idxs, 1e-3))
            assert all(loss == unmoved for loss in probe_losses(at, 0.0)[0]), name

    def test_cached_probe_over_node_count_groups_is_bitwise(self):
        model = tiny_model(seed=16, placement="g2")
        pairs = mixed_sizes_batch()
        probe_losses = plain_probes(model, pairs, "mse")
        first, last = model.layers
        for arr in (model.w_in, first.mpnn.w_edge, first.attn.w_g, last.attn.w_o,
                    last.ln2.scale, model.w_head):
            where = [1, arr.size - 1]  # in the W_g stack: head 0's and head 3's
            got = probe_losses(vector_positions(model, [(arr, where)]), 1e-3)
            assert_same_losses(got, one_probe_losses(model, pairs, "mse", arr, where, 1e-3))

    @pytest.mark.parametrize("placement, kw", [("g3", {}), ("g1", {"sharing": "shared"})])
    def test_probe_index_covers_every_parameter(self, batch, placement, kw):
        model = tiny_model(seed=17, placement=placement, **kw)
        layout = ParamSet.from_model(model).layout  # as the check's layout is checked
        for name, (arr, k) in hand_written_reads(model).items():  # a head's stack, not its slice
            carved = layout.index[id(arr)]
            layer, first = carved.layer, carved.name
            if name.startswith(("input.", "head.")):
                assert layer == (-1 if name[0] == "i" else 2), name
            else:
                assert layer == int(name[len("layer")]), name
            assert first == (name if k is None else name.replace(f"head{k}.", "head0.")), name

    @pytest.mark.parametrize("sample", [None, 5])
    def test_wide_pieces_equal_the_one_probe_oracle(self, sample):
        # Checks of 1 to 32 coordinates per parameter, every one exhaustive
        # when ``sample`` is None: the stacked norms of pieces that long equal
        # each lone ``np.linalg.norm`` only when each ddot runs at unit stride.
        model = init_model(SeededRng(23), d_in=4, d=4, n_heads=2, n_layers=1, d_ff=8,
                           gate=GateConfig(placement="g2"))
        params = ParamSet.from_model(model)
        pairs = mixed_sizes_batch()[:3]
        report = finite_difference_check(model, params, pairs, sample=sample, seed=11)
        assert {arr.size for _, arr in params.items()} >= {1, 4, 8, 32}
        assert report == one_probe_fd_check(model, params, pairs, sample=sample, seed=11)

    @pytest.mark.parametrize("rels, worst", [
        ({"a": 1e-9, "b": np.nan, "c": 0.5}, "b"),
        ({"a": 1e-9, "b": 0.5, "c": np.nan}, "c"),
        ({"a": np.nan, "b": 0.5, "c": np.nan}, "a"),
        ({"a": 1e-9, "b": 0.5, "c": 0.5}, "b"),
    ], ids=["nan-in-the-middle", "nan-at-the-end", "two-nans", "finite-ties"])
    def test_a_nan_param_rel_is_the_worst_wherever_it_sits(self, rels, worst):
        # A NaN counts as the largest error, so grad-check's ``<= tol`` fails
        # the cell; without one the first largest value is the worst.
        report = training.FdReport(0.0, None, None, 3, rels)
        assert report.worst_param_by_norm == worst
        assert report.max_param_rel is rels[worst]
        assert (report.max_param_rel <= 1e-5) is not np.isnan(rels[worst])

    def test_the_unperturbed_model_runs_once(self, monkeypatch):
        # Outside its probe passes the check runs each layer once per node
        # count, in the taped pass whose hidden states the probes start from.
        model, pairs = walk_model("g2", "per_head"), walk_batch()
        params = ParamSet.from_model(model)
        want = one_probe_fd_check(model, params, pairs, sample=2, seed=7)
        layer_forward, loss_from = gps.gps_layer_forward, training._loss_from
        calls, probing = [], []

        def counted(*args, **kw):
            calls.append(bool(probing))
            return layer_forward(*args, **kw)

        def probe_pass(*args):
            probing.append(True)
            try:
                return loss_from(*args)
            finally:
                probing.pop()

        monkeypatch.setattr(gps, "gps_layer_forward", counted)
        monkeypatch.setattr(training, "_loss_from", probe_pass)
        report = finite_difference_check(model, params, pairs, sample=2, seed=7)
        groups = len(training._graph_groups(pairs))
        assert calls.count(False) == len(model.layers) * groups == 9
        assert calls.count(True) > 0
        assert report == want

    @pytest.mark.parametrize("placement", ["none", "g1", "g2", "g3"])
    def test_the_probe_states_are_the_tape_free_forward_bitwise(self, monkeypatch, placement):
        # The probes start from the taped pass's states of each node count
        # (5 and 7 here), the embedding added: those of a tape-free forward.
        model = walk_model(placement, "per_head")
        pairs = [pair for pair in walk_batch() if pair[0].n != 6]
        seen, loss_from = [], training._loss_from

        def recorded(model, states, *args):
            seen.append(states)
            return loss_from(model, states, *args)

        monkeypatch.setattr(training, "_loss_from", recorded)
        finite_difference_check(model, ParamSet.from_model(model), pairs, sample=1)
        assert seen and all(states is seen[0] for states in seen)  # every pass's
        groups = training._graph_groups(pairs)
        assert [graphs.n for _, graphs, _ in groups] == [5, 7]
        assert len(seen[0]) == 2
        for (_, graphs, targets), (got_graphs, got_targets, states) in zip(groups, seen[0]):
            want = [gps.model_embed(graphs, model)]
            want += [h for h, _ in gps.run_layers(graphs, want[0], model.layers)]
            assert len(states) == len(want) == 4
            for got, state in zip(states, want):
                assert_bitwise(got, state)
            assert_bitwise(got_graphs.node_features, graphs.node_features)
            assert_bitwise(got_targets, targets)

    @pytest.mark.parametrize("placement", ["g1", "g3"])
    @pytest.mark.parametrize("order", ["reversed", "without-layer0"])
    def test_names_in_any_order_or_subset_equal_the_one_probe_oracle(self, placement, order):
        # The check addresses each coordinate by its position in the model's
        # vector, so its names need not follow the layout or start at layer 0.
        model = walk_model(placement, "per_head")
        names = ParamSet.from_model(model).layout.names
        names = (names[::-1] if order == "reversed"
                 else [name for name in names if not name.startswith("layer0.")])
        params, pairs = subset(model.params, names), walk_batch()[:3]
        report = finite_difference_check(model, params, pairs, sample=3, seed=6)
        assert list(report.param_rel) == list(names)
        assert report == one_probe_fd_check(model, params, pairs, sample=3, seed=6)

    def test_report_deterministic_given_seed(self, batch):
        model = tiny_model(seed=8)
        params = ParamSet.from_model(model)
        a = finite_difference_check(model, params, batch, sample=4, seed=9)
        b = finite_difference_check(model, params, batch, sample=4, seed=9)
        assert a == b


def walk_batch():
    """The graphs of :func:`mixed_sizes_batch` (5, 7, 5, 6 and 7 nodes, one
    masked) with three features, two-wide edge features and two-wide targets,
    for :func:`walk_model`."""
    rng = SeededRng(40)
    return [(GraphInstance(n=g.n, node_features=g.node_features[:, :3], edges=g.edges,
                           edge_features=rng.standard_normal((len(g.edges), 2)),
                           attn_mask=g.attn_mask), rng.standard_normal(2))
            for g, _ in mixed_sizes_batch()]


class TestBatchedProbes:
    """``training._probe_losses`` runs all probes of one array the
    forward reads as one pass over a copy axis, from the layer that reads
    it; each loss is the one-probe oracle's ``batch_loss`` bit for bit
    (tests/oracles.py)."""

    @pytest.mark.parametrize("placement, sharing", WALK_CASES)
    def test_every_probe_loss_equals_the_one_probe_oracle(self, placement, sharing):
        model = walk_model(placement, sharing)
        pairs = walk_batch()
        probe_losses = plain_probes(model, pairs, "mse")
        rng = np.random.default_rng(1)
        for carved in model.layout.index.values():  # a stack: both heads' entries
            arr = carved.array
            idxs = np.sort(rng.choice(arr.size, size=min(4, arr.size), replace=False))
            assert_same_losses(probe_losses(vector_positions(model, [(arr, idxs)]), 1e-5),
                               one_probe_losses(model, pairs, "mse", arr, idxs, 1e-5))

    def test_an_exhaustive_head_stack_crosses_chunk_boundaries(self, batch):
        model = init_model(SeededRng(18), d_in=4, d=18, n_heads=3, n_layers=2,
                           gate=GateConfig(placement="g3"))
        arr = model.layers[0].attn.w_q
        # 648 copies, 216 per head: two full chunks and a part of one, with
        # both chunk boundaries inside a head's copies (head 1's and head 2's).
        per_head = 2 * arr[0].size
        assert 2 * training.PROBE_CHUNK < 2 * arr.size < 3 * training.PROBE_CHUNK
        assert [c * training.PROBE_CHUNK // per_head for c in (1, 2)] == [1, 2]
        assert all(c * training.PROBE_CHUNK % per_head for c in (1, 2))
        idxs = np.arange(arr.size)
        probe_losses = plain_probes(model, batch[:1], "mse")
        assert_same_losses(probe_losses(vector_positions(model, [(arr, idxs)]), 1e-5),
                           one_probe_losses(model, batch[:1], "mse", arr, idxs, 1e-5))

    def test_one_call_returns_each_loss_in_the_order_of_its_positions(self):
        # Positions out of carve order, over the embedding, layers 0 and 2, a
        # head stack and the readout: the passes run in slots order, and each
        # loss comes back where its position sits in ``at``.
        model, pairs = walk_model("g3", "per_head"), walk_batch()
        first, last = model.layers[0], model.layers[2]
        probes = [(last.ffn.w1, [3]), (model.w_in, [2, 0]), (model.w_head, [1]),
                  (first.attn.w_k, [40, 5]), (last.ln2.shift, [7]), (model.b_in, [4])]
        at = vector_positions(model, probes)
        shuffle = np.random.default_rng(3).permutation(at.size)
        got = plain_probes(model, pairs, "mse")(at[shuffle], 1e-5)
        want = [one_probe_losses(model, pairs, "mse", arr, idxs, 1e-5) for arr, idxs in probes]
        assert_same_losses(got, [np.array(sum((side[i] for side in want), []))[shuffle]
                                 for i in (0, 1)])

    def test_the_check_makes_one_pass_per_pack(self, batch, monkeypatch):
        # Two g1/per_head layers of four heads, two coordinates per parameter:
        # each layer's 20 head parameters are slices of its Q, K, V, W_g and
        # b_g stacks, and its 16 arrays' 172 copies fill three packs (Q, K, V
        # and W_g hold 64 copies of 1,024 entries, the bound).
        model = tiny_model(seed=21)
        params = ParamSet.from_model(model)
        probed, passes = [], []
        probe, loss_from = training._probe_losses, training._loss_from

        def counted_probe(model, layout, states, loss, at, h):
            probed.append(at)
            return probe(model, layout, states, loss, at, h)

        def counted_pass(model, states, loss, start, lift):
            passes.append((start, lift))
            return loss_from(model, states, loss, start, lift)

        monkeypatch.setattr(training, "_probe_losses", counted_probe)
        monkeypatch.setattr(training, "_loss_from", counted_pass)
        report = finite_difference_check(model, params, batch[:2], sample=2, seed=3)
        assert (len(passes), len(params.layout.names)) == (8, 66)
        assert [start for start, _ in passes] == [-1, 0, 0, 0, 1, 1, 1, 2]
        (at,) = probed  # one call, two positions of each name in the model's vector
        starts = model.layout.starts
        assert np.array_equal(np.searchsorted(starts, at, "right") - 1,
                              np.repeat(np.arange(66), np.minimum(np.diff(starts), 2)))
        monkeypatch.undo()
        assert report == one_probe_fd_check(model, params, batch[:2], sample=2, seed=3)

    @staticmethod
    def recorded_passes(monkeypatch):
        """Per probe pass (``training._loss_from`` call), the copy stacks its
        ``lift`` gives, by the name of the array's first parameter."""
        passes = []
        loss_from = training._loss_from

        def recording(model, states, loss, start, lift):
            passes.append({c.name: lift(c.array) for c in model.layout.index.values()
                           if lift(c.array) is not c.array})
            return loss_from(model, states, loss, start, lift)

        monkeypatch.setattr(training, "_loss_from", recording)
        return passes

    @pytest.mark.parametrize("placement, sharing", WALK_CASES)
    def test_one_pack_of_every_array_a_layer_reads_is_bitwise(self, monkeypatch,
                                                              placement, sharing):
        # Two coordinates of each array: the MPNN with edge features, the
        # Q/K/V and gate stacks, W_O, the FFN and both layer norms. Each layer
        # reads under 1,024 entries, so its 32 copies fit one pack.
        model = walk_model(placement, sharing)
        pairs = walk_batch()
        probe_losses = plain_probes(model, pairs, "mse")
        passes = self.recorded_passes(monkeypatch)
        rng = np.random.default_rng(2)
        for layer in range(3):
            read = {c.name: c.array for c in model.layout.index.values() if c.layer == layer}
            probes = [(arr, np.sort(rng.choice(arr.size, size=min(2, arr.size), replace=False)))
                      for arr in read.values()]
            got = probe_losses(vector_positions(model, probes), 1e-5)
            stacks = passes.pop()
            assert not passes
            assert list(stacks) == list(read)
            assert len(read) == {"none": 14, "g1": 16, "g2": 16, "g3": 17}[placement]
            copies = 2 * sum(len(idxs) for _, idxs in probes)
            assert all(stack.shape[0] == copies for stack in stacks.values())
            want = [one_probe_losses(model, pairs, "mse", arr, idxs, 1e-5)
                    for arr, idxs in probes]
            assert_same_losses(got, [sum((side[i] for side in want), []) for i in (0, 1)])

    def test_an_array_over_a_chunk_runs_beside_a_pack(self, batch, monkeypatch):
        # W_Q's 648 copies take three passes of their own; the b_g stack's
        # and ln1's copies before and after it share one pass.
        model = init_model(SeededRng(18), d_in=4, d=18, n_heads=3, n_layers=2,
                           gate=GateConfig(placement="g3"))
        layer = model.layers[0]
        probes = [(layer.attn.b_g, [0, 2]), (layer.attn.w_q, np.arange(layer.attn.w_q.size)),
                  (layer.ln1.scale, [1, 17]), (layer.ln1.shift, [5])]
        probe_losses = plain_probes(model, batch[:1], "mse")
        passes = self.recorded_passes(monkeypatch)
        got = probe_losses(vector_positions(model, probes), 1e-5)
        assert [sorted(stacks) for stacks in passes] == [["layer0.attn.head0.w_q"]] * 3 + [
            ["layer0.attn.head0.b_g", "layer0.ln1.scale", "layer0.ln1.shift"]]
        assert [next(iter(stacks.values())).shape[0] for stacks in passes] == [256, 256, 136, 10]
        want = [one_probe_losses(model, batch[:1], "mse", arr, idxs, 1e-5)
                for arr, idxs in probes]
        assert_same_losses(got, [sum((side[i] for side in want), []) for i in (0, 1)])

    @pytest.mark.parametrize("placement, sample", [("g1", None), ("g3", None), ("g2", 3)])
    def test_every_pass_keeps_within_the_chunk_and_the_entry_bound(self, batch, monkeypatch,
                                                                   placement, sample):
        model = tiny_model(seed=22, placement=placement)
        params = ParamSet.from_model(model)
        passes = self.recorded_passes(monkeypatch)
        finite_difference_check(model, params, batch[:1], sample=sample)
        packs = [stacks for stacks in passes if len(stacks) > 1]
        assert packs
        for stacks in passes:
            copies = {stack.shape[0] for stack in stacks.values()}
            assert len(copies) == 1 and max(copies) <= training.PROBE_CHUNK
        for stacks in packs:
            entries = sum(stack[0].size for stack in stacks.values())
            assert next(iter(stacks.values())).shape[0] * entries <= training.PACK_ENTRIES

    @pytest.mark.parametrize("placement, kw", [("g3", {}), ("g2", {"sharing": "shared"})])
    def test_the_check_never_writes_into_the_model(self, batch, placement, kw):
        model = tiny_model(seed=19, placement=placement, **kw)
        params = ParamSet.from_model(model)
        want = one_probe_fd_check(model, params, batch[:2], sample=3, seed=5)
        before = copy_values(params)
        stacks = [getattr(layer.attn, f) for layer in model.layers
                  for f in layer.attn.stacked_fields()]
        for arr in stacks + [arr for _, arr in params.items()]:
            arr.setflags(write=False)
        assert finite_difference_check(model, params, batch[:2], sample=3, seed=5) == want
        assert all(np.array_equal(arr, before[name]) for name, arr in params.items())


class TestTapeFreeForwards:
    """A forward without a tape records nothing: it builds no ``Var``."""

    @pytest.mark.parametrize("placement, activation", [("none", "sigmoid")] + [
        (placement, activation) for placement in ("g1", "g2", "g3")
        for activation in GATE_ACTIVATIONS])
    def test_no_var_is_built(self, monkeypatch, placement, activation):
        model = walk_model(placement, "per_head", activation)
        pairs = walk_batch()
        built = []
        real = ad.Var.__init__

        def counting(node, *args, **kw):
            built.append(node)
            real(node, *args, **kw)

        monkeypatch.setattr(ad.Var, "__init__", counting)
        batch_loss(model, pairs)
        evaluate(model, pairs)
        plain_probes(model, pairs, "mse")(
            vector_positions(model, [(model.layers[0].attn.w_q, [0, 5])]), 1e-5)
        assert built == []
        loss_and_gradients(model, pairs)  # the count sees a taped pass
        assert built


    def test_a_branch_back_dies_as_the_branch_returns(self, monkeypatch):
        # Tape-free, the MPNN's back (which holds its E x 2d gather) is gone before the
        # attention runs, and the attention's before the layer norms; taped, the layer keeps both.
        model, pairs = walk_model("g1", "per_head"), walk_batch()
        graphs = GraphBatch.of([g for g, _ in pairs if g.n == pairs[0][0].n])
        real_mpnn, real_mhsa, real_ln = gps.mpnn_forward, gps.siggate_mhsa, ad.layer_norm_vjp
        refs, seen = {}, []

        def mpnn(*args):
            out, back = real_mpnn(*args)
            refs["mpnn"] = weakref.ref(back)
            return out, back

        def mhsa(*args, **kw):
            seen.append(refs["mpnn"]() is not None)
            out, traces, back = real_mhsa(*args, **kw)
            refs["attn"] = weakref.ref(back)
            return out, traces, back

        def layer_norm(*args):
            seen.append((refs["mpnn"]() is not None, refs["attn"]() is not None))
            return real_ln(*args)

        monkeypatch.setattr(gps, "mpnn_forward", mpnn)
        monkeypatch.setattr(gps, "siggate_mhsa", mhsa)
        monkeypatch.setattr(ad, "layer_norm_vjp", layer_norm)
        for lift in (ad.no_tape, MemoLift()):
            seen.clear()
            h = gps.model_embed(graphs, model, lift=lift)
            gps.gps_layer_forward(graphs, h, model.layers[0], lift=lift)
            kept = lift is not ad.no_tape
            assert seen == [kept, (kept, kept), (kept, kept)]


IN_PLACE_CASES = [("none", "sigmoid"), ("g1", "sigmoid"), ("g2", "relu"),
                  ("g3", "sigmoid_squared"), ("g3", "tanh")]


class TestInPlaceSteps:
    """Some steps of the forward write over arrays it has just made and will
    not read again: the MPNN gate over its pre-activation, the sigmoid's own
    temporaries, the scaled attention scores. None may write an array a
    caller holds: an input, a parameter, a cached hidden state, or a trace
    an earlier forward returned."""

    @pytest.mark.parametrize("placement, activation", IN_PLACE_CASES)
    def test_forwards_leave_their_inputs_bitwise(self, monkeypatch, placement, activation):
        model = walk_model(placement, "per_head", activation)
        pairs = walk_batch()
        graphs = GraphBatch.of([g for g, _ in pairs if g.n == pairs[0][0].n])
        h = gps.model_embed(graphs, model)
        held = [model.params.flat, h, graphs.node_features, graphs.edge_features]
        held += [a for g, _ in pairs for a in (g.node_features, g.edge_features)]
        before = [a.copy() for a in held]
        gps.gps_layer_forward(graphs, h, model.layers[0])
        batch_forward(graphs, model)
        loss_and_gradients(model, pairs)
        cached, loss_from = [], training._loss_from

        def recorded(model, states, *args):
            if not cached:  # before the first pass: the states every pass starts from
                cached.extend((a, a.copy()) for _, _, hidden in states for a in hidden)
            return loss_from(model, states, *args)

        monkeypatch.setattr(training, "_loss_from", recorded)
        layer = model.layers[1]
        plain_probes(model, pairs, "mse")(vector_positions(
            model, [(layer.mpnn.w_edge, [0, 7]), (layer.attn.w_q, [1, 9])]), 1e-5)
        assert cached
        for got, want in zip(held + [a for a, _ in cached], before + [c for _, c in cached]):
            assert_bitwise(got, want)

    @pytest.mark.parametrize("placement, activation", IN_PLACE_CASES)
    def test_a_returned_trace_outlives_later_forwards(self, placement, activation):
        model = walk_model(placement, "per_head", activation)
        pairs = walk_batch()
        _, trace = model_forward(pairs[0][0], model)
        arrays = [*trace.hidden, *(a for heads in trace.head_traces for ht in heads
                                   for a in (ht.attention, ht.gate, ht.output) if a is not None)]
        before = [a.copy() for a in arrays]
        depth_profile(trace)  # what diagnose reads of it
        others = [(GraphInstance(n=g.n, node_features=-g.node_features, edges=g.edges,
                                 edge_features=g.edge_features, attn_mask=g.attn_mask), y)
                  for g, y in pairs]  # every graph again, with other values at each size
        for g, _ in others:
            model_forward(g, model)
        loss_and_gradients(model, others)
        batch_loss(model, others)
        for got, want in zip(arrays, before):
            assert_bitwise(got, want)


class TestAdamW:
    def test_zero_gradients_leave_params_unchanged(self):
        model = tiny_model(seed=10)
        params = ParamSet.from_model(model)
        before = copy_values(params)
        zeros = param_set({n: np.zeros_like(a) for n, a in params.items()})
        state = init_optimizer(params, weight_decay=0.0)
        adamw_step(params, zeros, state, lr_t=1e-3)
        for name, arr in params.items():
            assert np.array_equal(arr, before[name])

    def test_first_step_magnitude_with_unit_gradient(self):
        # one step, g = 1: bias correction gives m_hat = v_hat = 1, so the
        # update is lr / (1 + eps)
        params = param_set({"w": np.zeros((2, 2))})
        ones = param_set({"w": np.ones((2, 2))})
        state = init_optimizer(params)
        adamw_step(params, ones, state, lr_t=1e-3)
        expected = -1e-3 / (1.0 + training.ADAM_EPS)
        assert np.allclose(params["w"], expected, rtol=1e-12)

    def test_decoupled_decay_is_pure_shrink_without_gradients(self):
        params = param_set({"w": np.full((3,), 2.0)})
        zeros = param_set({"w": np.zeros(3)})
        state = init_optimizer(params, weight_decay=0.1)
        for _ in range(4):
            adamw_step(params, zeros, state, lr_t=1e-2)
        assert np.allclose(params["w"], 2.0 * (1.0 - 1e-2 * 0.1) ** 4, rtol=1e-14)

    def test_zero_weight_decay_reduces_to_adam(self):
        rng = SeededRng(55)
        shapes = {"a": (3, 2), "b": (4,)}
        params = param_set({n: rng.standard_normal(s) for n, s in shapes.items()})
        reference = copy_values(params)
        state = init_optimizer(params, weight_decay=0.0)
        # independent textbook Adam trajectory
        m = {n: np.zeros(s) for n, s in shapes.items()}
        v = {n: np.zeros(s) for n, s in shapes.items()}
        lr, b1, b2, eps = 1e-3, training.ADAM_BETA1, training.ADAM_BETA2, training.ADAM_EPS
        for t in range(1, 11):
            grads = {n: rng.standard_normal(s) for n, s in shapes.items()}
            adamw_step(params, param_set(grads), state, lr_t=lr)
            for n in shapes:
                m[n] = b1 * m[n] + (1 - b1) * grads[n]
                v[n] = b2 * v[n] + (1 - b2) * grads[n] ** 2
                mhat = m[n] / (1 - b1**t)
                vhat = v[n] / (1 - b2**t)
                reference[n] = reference[n] - lr * mhat / (np.sqrt(vhat) + eps)
        for n in shapes:
            assert np.allclose(params[n], reference[n], atol=1e-15)


    @staticmethod
    def _per_array_step(params, grads, m, v, t, lr_t, weight_decay):
        """AdamW array by array: the reference for the flat-vector step."""
        b1, b2, eps = 0.9, 0.999, 1e-8
        bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        for name, p in params.items():
            g = grads[name]
            p *= 1.0 - lr_t * weight_decay
            m[name] *= b1
            m[name] += (1.0 - b1) * g
            v[name] *= b2
            v[name] += (1.0 - b2) * (g * g)
            p -= lr_t * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)

    @pytest.mark.parametrize("sharing", ["per_head", "shared"])
    def test_flat_step_equals_per_array_loop_bitwise(self, sharing):
        model = tiny_model(seed=42, placement="g3", sharing=sharing)
        params = ParamSet.from_model(model)
        reference = param_set(copy_values(params))
        m = {n: np.zeros_like(a) for n, a in params.items()}
        v = {n: np.zeros_like(a) for n, a in params.items()}
        state = init_optimizer(params, weight_decay=1e-2)
        assert state.m.shape == state.v.shape == (params.flat.size,)
        rng = SeededRng(43)
        for t in range(1, 11):
            grads = param_set({n: rng.standard_normal(a.shape) for n, a in params.items()})
            lr_t = cosine_lr(t - 1, 10, 1e-2)
            adamw_step(params, grads, state, lr_t)
            self._per_array_step(reference, grads, m, v, t, lr_t, 1e-2)
            for name, arr in params.items():
                assert np.array_equal(arr, reference[name]), name
        assert np.array_equal(state.m, np.concatenate([m[n].ravel() for n in params.layout.names]))
        assert np.array_equal(state.v, np.concatenate([v[n].ravel() for n in params.layout.names]))
        gate = "gate" if sharing == "shared" else "head0"
        for i, layer in enumerate(model.layers):  # the updates live in the stacks
            attn = layer.attn
            for k in range(len(attn.w_q)):
                assert np.array_equal(attn.w_q[k], reference[f"layer{i}.attn.head{k}.w_q"])
            for name in ("w_g", "w_g2", "b_g"):
                assert np.array_equal(getattr(attn, name)[0],
                                      reference[f"layer{i}.attn.{gate}.{name}"])

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
    def test_scratch_steps_equal_the_allocating_formula_bitwise(self, weight_decay):
        model = tiny_model(seed=45, placement="g1")
        params = ParamSet.from_model(model)
        flat, m, v = params.flat.copy(), np.zeros(params.flat.size), np.zeros(params.flat.size)
        state = init_optimizer(params, weight_decay=weight_decay)
        rng = SeededRng(46)
        for t in range(1, 7):
            g = rng.standard_normal((flat.size,)) * 10.0 ** (6.0 * rng.uniform((flat.size,)) - 3.0)
            g[::17] = 0.0
            grads = ParamSet(params.layout, g)
            lr_t = cosine_lr(t - 1, 6, 3e-3)
            adamw_step(params, grads, state, lr_t)
            allocating_adamw_step(flat, g, m, v, t, lr_t, weight_decay)
            assert_bitwise(params.flat, flat)
            assert_bitwise(state.m, m)
            assert_bitwise(state.v, v)
        assert state.step == 6

    def test_a_step_allocates_no_parameter_sized_vector(self):
        params = ParamSet.from_model(tiny_model(seed=47, placement="g3"))
        grads = param_set({n: np.ones_like(a) for n, a in params.items()})
        state = init_optimizer(params, weight_decay=1e-2)
        adamw_step(params, grads, state, 1e-3)  # any lazy set-up happens here
        tracemalloc.start()
        try:
            adamw_step(params, grads, state, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < params.flat.nbytes, (peak, params.flat.nbytes)

    def test_rejects_a_param_set_of_another_size(self):
        params = ParamSet.from_model(tiny_model(seed=44))
        state = init_optimizer(params)
        bigger = param_set({**dict(params.items()), "extra": np.zeros(3)})
        zeros = param_set({n: np.zeros_like(a) for n, a in bigger.items()})
        for other in (bigger, subset(params, params.layout.names[1:])):
            with pytest.raises(ValueError, match="optimizer state"):
                adamw_step(other, zeros, state, lr_t=1e-3)
        assert state.step == 0
        assert not state.m.any() and not state.v.any()


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100, 3e-3) == 3e-3
        assert cosine_lr(100, 100, 3e-3) == pytest.approx(0.0, abs=1e-18)
        assert cosine_lr(50, 100, 3e-3) == pytest.approx(1.5e-3, rel=1e-12)

    def test_step_out_of_range(self):
        with pytest.raises(ValueError):
            cosine_lr(5, 4, 1e-3)


class TestTrainToy:
    def test_zero_lr_freezes_the_loss(self):
        cfg = TrainConfig(lr=0.0, weight_decay=0.0, epochs=4, seed=0, loss="mse",
                          n_layers=1, d=8, n_heads=2, gate=GateConfig(placement="g1"))
        task = make_toy_task(seed=0, n_graphs=4, nodes_per_graph=5)
        history = train_toy(cfg, task)
        assert len(set(history.losses)) == 1

    def test_same_seed_is_bitwise_identical(self):
        cfg = TrainConfig(lr=1e-3, epochs=5, seed=4, n_layers=1, d=8, n_heads=2,
                          gate=GateConfig(placement="g1"))
        task = make_toy_task(seed=4, n_graphs=4, nodes_per_graph=5)
        h1 = train_toy(cfg, task)
        h2 = train_toy(cfg, task)
        assert h1.losses == h2.losses
        for name, arr in h1.params.items():
            assert np.array_equal(arr, h2.params[name])

    def test_divergence_reports_epoch(self):
        cfg = TrainConfig(lr=1e-3, epochs=3, seed=0, loss="mse",
                          n_layers=1, d=8, n_heads=2, gate=GateConfig(placement="none"))
        task = make_toy_task(seed=0, n_graphs=3, nodes_per_graph=4)  # 2 train, 1 test
        exploded = type(task)(train=[(g, 1e7) for g, _ in task.train],
                              test=task.test, seed=task.seed)
        with pytest.raises(DivergenceError) as err:
            train_toy(cfg, exploded)
        assert err.value.epoch == 0

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_empty_split_rejected_before_any_epoch(self, monkeypatch, split):
        cfg = TrainConfig(lr=1e-3, epochs=3, n_layers=1, d=8, n_heads=2)
        task = make_toy_task(seed=0, n_graphs=4, nodes_per_graph=4)
        empty = type(task)(**{"train": task.train, "test": task.test, split: [],
                              "seed": task.seed})

        def no_epoch(*args, **kwargs):
            raise AssertionError("an epoch ran")

        monkeypatch.setattr(training, "loss_and_gradients", no_epoch)
        counts = (f"0 train and {len(task.test)}" if split == "train"
                  else f"{len(task.train)} train and 0")
        with pytest.raises(ValueError, match=f"needs graphs in both splits; the task has "
                                             f"{counts} test graphs"):
            train_toy(cfg, empty)

    def test_history_csv_format(self, tmp_path):
        cfg = TrainConfig(lr=1e-3, epochs=3, seed=1, n_layers=1, d=8, n_heads=2,
                          gate=GateConfig(placement="none"))
        task = make_toy_task(seed=1, n_graphs=3, nodes_per_graph=4)
        history = train_toy(cfg, task)
        path = tmp_path / "history.csv"
        write_history_csv(history, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,loss,lr"
        assert len(lines) == 4
        epoch, loss, lr = lines[1].split(",")
        assert epoch == "0"
        assert float(loss) == history.losses[0]
        assert float(lr) == history.lrs[0]

    def test_default_task_converges_below_golden_threshold(self):
        with open(GOLDEN, "r", encoding="utf-8") as fh:
            golden = json.load(fh)
        cfg = TrainConfig(
            lr=golden["lr"], weight_decay=golden["weight_decay"],
            epochs=golden["epochs"], seed=golden["seed"], loss=golden["loss"],
            n_layers=golden["n_layers"], d=golden["d"], n_heads=golden["n_heads"],
            gate=GateConfig(placement="g1"),
        )
        task = make_toy_task(seed=golden["task_seed"], n_graphs=golden["n_graphs"],
                             nodes_per_graph=golden["nodes_per_graph"])
        history = train_toy(cfg, task)
        assert history.final_train_loss <= golden["threshold"]


class TestModelSerialization:
    @pytest.mark.parametrize("placement,sharing", [
        ("none", "per_head"), ("g1", "per_head"), ("g1", "shared"),
        ("g3", "per_head"), ("g3", "shared"),
    ])
    def test_round_trip_is_bit_exact(self, tmp_path, placement, sharing):
        model = tiny_model(seed=20, placement=placement,
                           **({"sharing": sharing} if placement != "none" else {}))
        path = tmp_path / "model.txt"
        save_model(model, path)
        back = load_model(path)
        p0 = ParamSet.from_model(model)
        p1 = ParamSet.from_model(back)
        assert p0.layout.names == p1.layout.names
        for name, arr in p0.items():
            assert np.array_equal(arr, p1[name]), name
        task = make_toy_task(seed=5, n_graphs=2, nodes_per_graph=5)
        g = task.train[0][0]
        pred0, _ = model_forward(g, model)
        pred1, _ = model_forward(g, back)
        assert np.array_equal(pred0, pred1)

    def test_shared_gate_stays_aliased_after_load(self, tmp_path):
        model = tiny_model(seed=21, placement="g1", sharing="shared")
        path = tmp_path / "model.txt"
        save_model(model, path)
        back = load_model(path)
        # every head reads the one gate: a stack of a single slice
        for layer in back.layers:
            assert layer.attn.w_g.shape == (1, 16, 4) and layer.attn.b_g.shape == (1, 4)
        names = [n for n in ParamSet.from_model(back).layout.names if is_gate_param(n)]
        assert names == ["layer0.attn.gate.w_g", "layer0.attn.gate.b_g",
                         "layer1.attn.gate.w_g", "layer1.attn.gate.b_g"]

    def test_missing_parameter_rejected(self, tmp_path):
        model = tiny_model(seed=22)
        path = tmp_path / "model.txt"
        save_model(model, path)
        text = path.read_text().splitlines()
        # drop one parameter block (header + rows)
        idx = next(i for i, ln in enumerate(text) if ln.startswith("head.w "))
        del text[idx:idx + 1 + 16]
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ValueError, match="missing parameter"):
            load_model(path)

    @pytest.mark.parametrize("line, message", [
        ("# n_layers = 0", "n_layers must be >= 1, got 0"),
        ("# n_heads = 3", "d=16 is not divisible by n_heads=3"),
        ("# readout = max", "readout must be one of"),
        ("# d = 16000", "it describes a model larger than the 66 records"),
        ("# n_layers = 1000000", "it describes a model larger than the 66 records"),
        ("# bias_init = nan", "bias_init must be finite, got nan"),
    ])
    def test_metadata_no_model_can_be_built_from_names_the_file(self, tmp_path, line, message):
        path = tmp_path / "model.txt"
        save_model(tiny_model(seed=24), path)
        key = line.split("=")[0]
        path.write_text("\n".join(line if ln.startswith(key) else ln
                                  for ln in path.read_text().splitlines()) + "\n")
        with pytest.raises(ValueError, match=(f"^model dump {re.escape(str(path))} has "
                                              f"malformed metadata: .*{re.escape(message)}")):
            load_model(path)

    def test_blank_lines_between_records_and_comments_are_skipped(self, tmp_path):
        model = tiny_model(seed=26)
        path = tmp_path / "model.txt"
        save_model(model, path)
        text = path.read_text().replace("\ninput.b ", "\n\n   \n# a note\ninput.b ")
        path.write_text("\n" + text + "\n\n")
        back = load_model(path)
        assert np.array_equal(ParamSet.from_model(back).flat, ParamSet.from_model(model).flat)

    def test_a_readout_set_after_init_round_trips(self, tmp_path):
        # The dump writes the readout the model runs, not the one it was built with.
        model = init_model(SeededRng(25), d_in=4, d=16, n_heads=4, n_layers=1,
                           gate=GateConfig(placement="g1"))
        model.readout = "sum"
        g = make_toy_task(seed=5, n_graphs=2, nodes_per_graph=5).train[0][0]
        path = tmp_path / "model.txt"
        save_model(model, path)
        back = load_model(path)
        assert back.readout == "sum"
        assert_bitwise(model_forward(g, back)[0], model_forward(g, model)[0])

    def test_loss_round_trips_through_batch_loss(self, tmp_path):
        model = tiny_model(seed=23)
        task = make_toy_task(seed=6, n_graphs=3, nodes_per_graph=5)
        before = batch_loss(model, task.train, "mae")
        path = tmp_path / "model.txt"
        save_model(model, path)
        after = batch_loss(load_model(path), task.train, "mae")
        assert before == after


def storage_model(source, placement, sharing, tmp_path):
    """:func:`walk_model`, or the model its dump loads back as."""
    model = walk_model(placement, sharing)
    if source == "load_model":
        save_model(model, tmp_path / "model.txt")
        model = load_model(tmp_path / "model.txt")
    return model


def arrays_in(value):
    """Every array ``value`` holds through lists, tuples, dicts and the
    instance attributes of dataclasses."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    elif dataclasses.is_dataclass(value):
        value = list(vars(value).values())
    if isinstance(value, (list, tuple)):
        return [arr for item in value for arr in arrays_in(item)]
    return []


def slots(params):
    """``(name, start, stop)`` of each entry's slice of the set's vector, in order."""
    start = 0
    for name, arr in params.items():
        yield name, start, start + arr.size
        start += arr.size


NAN_CASES = [("g1", "per_head", "input.w"), ("g3", "per_head", "layer1.attn.head1.w_k"),
             ("g2", "shared", "layer0.attn.gate.w_g"), ("g1", "shared", "head.b")]


class TestParamStorage:
    """A model built by ``init_model`` or ``load_model`` holds its parameters
    in one vector in dump order, and gradients come back as one vector laid
    out the same way."""

    @pytest.mark.parametrize("source", ["init_model", "load_model"])
    @pytest.mark.parametrize("placement, sharing", WALK_CASES)
    def test_each_entry_is_its_slice_of_the_buffer(self, tmp_path, source, placement, sharing):
        params = ParamSet.from_model(storage_model(source, placement, sharing, tmp_path))
        flat = params.flat
        assert flat is not None and flat.size == params.layout.starts[-1]
        for name, start, stop in slots(params):
            entry = params[name]
            assert same_array(entry, flat[start:stop].reshape(entry.shape)), name
            before = flat.copy()
            entry += 1.0
            assert np.flatnonzero(flat != before).tolist() == list(range(start, stop)), name
            flat[...] = before

    @pytest.mark.parametrize("source", ["init_model", "load_model"])
    @pytest.mark.parametrize("placement, sharing", WALK_CASES)
    def test_each_gradient_entry_is_its_slice_of_the_gradient_vector(self, tmp_path, source,
                                                                    placement, sharing):
        model = storage_model(source, placement, sharing, tmp_path)
        params = ParamSet.from_model(model)
        _, grads = loss_and_gradients(model, walk_batch())
        assert grads.layout.names == params.layout.names
        assert grads.flat.shape == (params.flat.size,)
        assert not np.shares_memory(grads.flat, params.flat)
        for name, start, stop in slots(grads):
            assert same_array(grads[name], grads.flat[start:stop].reshape(params[name].shape))

    @pytest.mark.parametrize("edges", [True, False], ids=["edges", "edgeless"])
    @pytest.mark.parametrize("placement, sharing", WALK_CASES)
    def test_flat_gradients_equal_the_per_name_assembly_bitwise(self, placement, sharing,
                                                               edges):
        # Without edges the MPNN gives w_edge and w_val exact zero terms, so
        # their slots hold zeros.
        model = walk_model(placement, sharing)
        params = ParamSet.from_model(model)
        pairs = walk_batch()
        if not edges:
            pairs = [(GraphInstance(n=g.n, node_features=g.node_features, edges=[],
                                    edge_features=np.empty((0, 2)), attn_mask=g.attn_mask), y)
                     for g, y in pairs]
        _, grads = loss_and_gradients(model, pairs)
        want = per_name_gradients(model, params, pairs)
        assert list(grads.layout.names) == list(want)
        for name, g in grads.items():
            assert_bitwise(g, want[name])
            if not edges and ".mpnn." in name:
                assert not np.any(g), name

    def test_a_hand_assembled_model_runs_the_forward_only(self):
        built = walk_model("g1", "per_head")
        model = type(built)(w_in=built.w_in, b_in=built.b_in, layers=built.layers,
                            w_head=built.w_head, b_head=built.b_head, readout=built.readout)
        assert model.layout is None
        pairs = walk_batch()
        assert batch_loss(model, pairs) == batch_loss(built, pairs)
        off = ("^the model has no layout: a model has one only as init_model or load_model "
               "built it$")
        with pytest.raises(ValueError, match=off):
            ParamSet.from_model(model)
        with pytest.raises(ValueError, match=off):
            loss_and_gradients(model, pairs)

    @pytest.mark.parametrize("change, name", [
        ("swap", "layer0.ffn.b2"), ("copy", "layer1.ffn.w1"), ("alias", "layer0.ln2.scale"),
        ("append", "head.w"), ("pop", "layer2.attn.head0.w_q"), ("deepcopy", "input.w"),
    ])
    def test_a_swapped_or_aliased_array_is_off_the_layout(self, change, name):
        model = aliased_walk_model() if change == "alias" else walk_model("g1", "per_head")
        first, second = model.layers[0].ffn, model.layers[1].ffn
        if change == "swap":  # both arrays stay in the model's vector
            first.b2, second.b2 = second.b2, first.b2
        elif change == "copy":
            second.w1 = second.w1.copy()
        elif change == "append":  # the arrays after the last layer are displaced
            model.layers.append(model.layers[0])
        elif change == "pop":
            model.layers.pop()
        elif change == "deepcopy":  # its layout is a copy keyed by the original arrays
            model = copy.deepcopy(model)
        with pytest.raises(ValueError, match=f"^parameter {re.escape(repr(name))} is off the "
                                             f"model's layout"):
            ParamSet.from_model(model)

    def test_gradients_refuse_an_array_swapped_after_from_model(self):
        model = walk_model("g2", "shared")
        params = ParamSet.from_model(model)
        model.layers[1].mpnn.w_val = model.layers[1].mpnn.w_val.copy()
        with pytest.raises(ValueError, match="^parameter 'layer1.mpnn.w_val' is off the "
                                             "model's layout"):
            loss_and_gradients(model, walk_batch())

    def test_gradients_refuse_a_layer_that_reads_another_parameters_array(self):
        # The replaced array gets no gradient; it must not come back as zeros.
        model = init_model(SeededRng(1), d_in=4, d=8, n_heads=2, n_layers=3, gate=GateConfig())
        pairs = make_toy_task(0, n_graphs=6, nodes_per_graph=5).train
        edgeless = [(GraphInstance(n=g.n, node_features=g.node_features, edges=[]), y)
                    for g, y in pairs]
        _, grads = loss_and_gradients(model, edgeless)  # MPNN off the tape: zeros, no error
        assert not any(np.any(g) for name, g in grads.items() if ".mpnn." in name)
        model.layers[2].mpnn.w_val = model.layers[1].mpnn.w_val
        for model, batch, name in ((model, pairs, "layer2.mpnn.w_val"),
                                   (aliased_walk_model(), walk_batch(), "layer0.ln2.scale")):
            with pytest.raises(ValueError, match=f"^parameter {re.escape(repr(name))} is off "
                                                 f"the model's layout"):
                loss_and_gradients(model, batch)

    def test_a_training_step_walks_no_parameters(self, monkeypatch):
        model = walk_model("g3", "per_head")
        params = ParamSet.from_model(model)
        state = init_optimizer(params, weight_decay=1e-2)

        def no_walk(value, out):
            raise AssertionError("a training step walked the parameters")

        monkeypatch.setattr(gps, "_arrays_held", no_walk)
        for _ in range(2):
            _, grads = loss_and_gradients(model, walk_batch())
            adamw_step(params, grads, state, 1e-3)
        assert state.step == 2

    def test_a_gradient_check_and_a_load_walk_no_parameters(self, monkeypatch, tmp_path):
        # The check's cache takes the layout its taped pass used, and a load
        # fills the skeleton it has just built.
        model = walk_model("g2", "shared")
        params = ParamSet.from_model(model)
        want = one_probe_fd_check(model, params, walk_batch(), sample=2, seed=3)
        save_model(model, tmp_path / "model.txt")

        def no_walk(value, out):
            raise AssertionError("the parameters were walked")

        monkeypatch.setattr(gps, "_arrays_held", no_walk)
        assert finite_difference_check(model, params, walk_batch(), sample=2, seed=3) == want
        back = load_model(tmp_path / "model.txt")
        assert batch_loss(back, walk_batch()) == batch_loss(model, walk_batch())

    def test_a_layout_is_frozen(self):
        layout = walk_model("g3", "per_head").layout
        for name in ("names", "shapes", "starts", "index", "slots", "header"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(layout, name, getattr(layout, name))
        with pytest.raises(ValueError, match="read-only"):
            layout.slots[0] = 0
        _, grads = loss_and_gradients(walk_model("g3", "per_head"), walk_batch())
        for held in (ParamSet.from_model(walk_model("g1", "shared")), grads):
            with pytest.raises(AttributeError):
                held.extra = None  # a set holds its layout, its vector and nothing else

    @pytest.mark.parametrize("placement, sharing", WALK_CASES)
    def test_gradients_share_the_models_layout_and_hold_no_model_array(self, placement,
                                                                      sharing):
        model = walk_model(placement, sharing)
        _, grads = loss_and_gradients(model, walk_batch())
        assert grads.layout is model.layout
        assert not hasattr(grads, "__dict__")
        slots = {name for cls in type(grads).__mro__ for name in getattr(cls, "__slots__", ())}
        assert slots == {"layout", "flat", "states"}
        held = arrays_in([grads.flat, grads.states])
        assert len(held) > 1 + 3 * len(model.layers)
        model_arrays = [model.params.flat] + [c.array for c in model.layout.index.values()]
        assert not any(np.shares_memory(a, b) for a in held for b in model_arrays)

    def test_adamw_rejects_gradients_laid_out_differently(self):
        model = walk_model("g1", "per_head")
        params = ParamSet.from_model(model)
        state = init_optimizer(params)
        _, grads = loss_and_gradients(model, walk_batch())
        renamed = param_set({("x" if name == "head.b" else name): arr
                             for name, arr in grads.items()})
        reshaped = param_set({name: (arr.reshape(-1) if name == "head.w" else arr)
                              for name, arr in grads.items()})
        for other in (renamed, reshaped):
            assert other.flat.size == params.flat.size
            with pytest.raises(ValueError,
                               match="^the gradients are not laid out like the parameters$"):
                adamw_step(params, other, state, lr_t=1e-3)
        assert state.step == 0
        adamw_step(params, grads, state, lr_t=1e-3)
        assert state.step == 1

    def test_a_dict_set_packs_copies_into_its_own_vector(self):
        a, b = np.arange(6.0).reshape(2, 3), np.array([7.0])
        params = param_set({"a": a, "b": b})
        assert params.flat.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0]
        assert same_array(params["a"], params.flat[:6].reshape(2, 3))
        a[0, 0] = 9.0
        params["b"][0] = 3.0
        assert params["a"][0, 0] == 0.0 and params.flat[6] == 3.0
        subset(params, ["b"])["b"][0] = 5.0
        assert params["b"][0] == 3.0

    def test_adamw_moves_the_model_buffer_in_place(self):
        model = tiny_model(seed=45, placement="g3")
        params = ParamSet.from_model(model)
        flat = params.flat
        before = flat.copy()
        ones = param_set({n: np.ones_like(a) for n, a in params.items()})
        adamw_step(params, ones, init_optimizer(params), 1e-3)
        assert params.flat is flat
        assert np.array_equal(flat, before - 1e-3 * 1.0 / (1.0 + 1e-8))
        assert np.array_equal(model.layers[1].attn.w_g2.reshape(-1),
                              np.concatenate([params[f"layer1.attn.head{k}.w_g2"].reshape(-1)
                                              for k in range(4)]))

    @pytest.mark.parametrize("placement, sharing, name", NAN_CASES)
    def test_a_nan_parameter_is_named_as_by_the_per_array_loop(self, placement, sharing, name):
        model = walk_model(placement, sharing)
        params = ParamSet.from_model(model)
        params[name].reshape(-1)[0] = np.nan  # the first value of the entry
        assert params.first_nonfinite() == first_nonfinite_by_loop(params) == name
        with pytest.raises(NonFiniteError) as err:
            loss_and_gradients(model, walk_batch())
        assert err.value.param_name == name

    def test_a_nan_outside_the_checked_subset_is_named(self):
        # the checked subset holds copies, so the offender is named from the model's layout
        model = walk_model("g1", "per_head")
        params = ParamSet.from_model(model)
        params["layer0.attn.head0.w_q"][0, 0] = np.nan
        with pytest.raises(NonFiniteError) as err:
            loss_and_gradients(model, walk_batch())
        assert err.value.param_name == "layer0.attn.head0.w_q"
        with pytest.raises(NonFiniteError, match="first non-finite parameter: "
                                                 "layer0.attn.head0.w_q$") as err:
            finite_difference_check(model, subset(params, ["head.w"]), walk_batch(), sample=1)
        assert err.value.param_name == "layer0.attn.head0.w_q"

    @pytest.mark.parametrize("placement, sharing, name", NAN_CASES)
    def test_a_nan_gradient_is_named_as_by_the_per_array_loop(self, monkeypatch, placement,
                                                             sharing, name):
        model = walk_model(placement, sharing)
        params = ParamSet.from_model(model)
        _, grads = loss_and_gradients(model, walk_batch())
        grads[name].reshape(-1)[0] = np.inf
        assert grads.first_nonfinite() == first_nonfinite_by_loop(grads) == name
        stack, k = hand_written_reads(model)[name]
        first = (k or 0) * params[name].size

        real_backward = ad.backward

        def poisoned(root):  # the stack's leaf gets a NaN at the entry's first value
            real_backward(root)
            nodes, seen = [root], set()
            while nodes:
                node = nodes.pop()
                if id(node) not in seen:
                    seen.add(id(node))
                    nodes.extend(parent for parent, _ in node.parents)
                    if node.value is stack:
                        node.grad = np.array(node.grad)
                        node.grad.reshape(-1)[first] = np.nan

        monkeypatch.setattr(ad, "backward", poisoned)
        with pytest.raises(NonFiniteError, match=f"^non-finite gradient for parameter "
                                                 f"{re.escape(repr(name))}$") as err:
            loss_and_gradients(model, walk_batch())
        assert err.value.param_name == name

    @pytest.mark.parametrize("gate_weight_std", [None, 0.0, 0.25])
    @pytest.mark.parametrize("placement, sharing", WALK_CASES)
    def test_init_equals_the_per_call_oracle_bitwise(self, placement, sharing, gate_weight_std):
        gate = GateConfig(placement=placement, sharing=sharing, bias_init=-0.3)
        for dims in (dict(d_in=3, d=8, n_heads=2, n_layers=3, d_e=2, out_dim=2),
                     dict(d_in=3, d=5, n_heads=1, n_layers=2, d_ff=7)):  # odd block sizes
            model = init_model(SeededRng(31), gate=gate, gate_weight_std=gate_weight_std, **dims)
            want = per_call_init(SeededRng(31), gate=gate, gate_weight_std=gate_weight_std,
                                 **dims)
            params = ParamSet.from_model(model)
            assert list(params.layout.names) == list(want)
            for name, arr in params.items():
                assert_bitwise(arr, want[name])


class TestStorageWorkCount:
    """Loading a model draws nothing, init draws in one pass, and a
    gradient's finiteness is one check of the whole vector."""

    @pytest.fixture
    def draws(self, monkeypatch):
        counts = dict.fromkeys(("standard_normal", "normal_blocks", "uniform"), 0)
        for entry in counts:
            def counted(self, *args, _real=getattr(SeededRng, entry), _entry=entry):
                counts[_entry] += 1
                return _real(self, *args)

            monkeypatch.setattr(SeededRng, entry, counted)
        return counts

    @pytest.mark.parametrize("placement, sharing", WALK_CASES)
    def test_init_draws_once_and_load_draws_nothing(self, draws, tmp_path, placement, sharing):
        model = walk_model(placement, sharing)
        assert draws == {"standard_normal": 0, "normal_blocks": 1, "uniform": 0}
        save_model(model, tmp_path / "model.txt")
        draws.update(dict.fromkeys(draws, 0))
        load_model(tmp_path / "model.txt")
        assert draws == dict.fromkeys(draws, 0)

    def test_gradients_are_checked_by_one_isfinite(self, monkeypatch):
        model = init_model(SeededRng(0), d_in=4, d=16, n_heads=4, n_layers=12,
                           gate=GateConfig(placement="g1"))
        params = ParamSet.from_model(model)
        calls = []
        real_backward, real_isfinite = ad.backward, np.isfinite

        def backward(root):
            real_backward(root)
            calls.append("backward")

        def isfinite(x, *args, **kw):
            calls.append(np.shape(x))
            return real_isfinite(x, *args, **kw)

        monkeypatch.setattr(ad, "backward", backward)
        monkeypatch.setattr(np, "isfinite", isfinite)
        loss_and_gradients(model, make_toy_task(seed=0, n_graphs=12).train)
        assert calls[calls.index("backward") + 1:] == [(params.flat.size,)]


def _dump_without(path, key):
    """``path``, holding a dump of :func:`tiny_model` without its ``key`` metadata line."""
    save_model(tiny_model(), path)
    path.write_text("".join(line for line in path.read_text().splitlines(keepends=True)
                            if not line.startswith(f"# {key} =")))
    return path


# Rejections that no other test reaches: each raise statement's type and text.
@pytest.mark.parametrize("make, error, message", [
    pytest.param(lambda tmp: batch_loss(tiny_model(), make_toy_task(seed=0, n_graphs=2).train,
                                        loss="huber"),
                 ValueError, f"loss must be one of {LOSSES}, got 'huber'", id="batch-loss"),
    pytest.param(lambda tmp: TrainConfig(epochs=0), ValueError, "epochs must be >= 1, got 0",
                 id="epochs"),
    pytest.param(lambda tmp: TrainConfig(loss="huber"), ValueError,
                 f"loss must be one of {LOSSES}, got 'huber'", id="config-loss"),
    pytest.param(lambda tmp: load_model(_dump_without(tmp / "model.txt", "d_ff")), ValueError,
                 "model dump {tmp}/model.txt is missing metadata key 'd_ff'", id="metadata-key"),
])
def test_each_rejection_gives_its_type_and_text(tmp_path, make, error, message):
    message = message.format(tmp=tmp_path)
    with pytest.raises(error) as info:
        make(tmp_path)
    assert type(info.value) is error and str(info.value) == message
