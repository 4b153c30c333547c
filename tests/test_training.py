import json
import os

import numpy as np
import pytest

import siggate.training as training
from siggate.attention import GateConfig, gate_param_count
from siggate import autodiff as ad
from siggate.gps import GraphBatch, GraphInstance, batch_forward, init_model, model_forward
from siggate.numeric import SeededRng
from siggate.synthexp import make_toy_task
from siggate.training import (
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
    is_gate_param,
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


@pytest.fixture
def batch():
    task = make_toy_task(seed=3, n_graphs=4, nodes_per_graph=6)
    return task.train


class TestParamSet:
    def test_registry_is_ordered_and_complete(self):
        model = tiny_model()
        params = ParamSet.from_model(model)
        names = params.names
        assert names[0] == "input.w" and names[-1] == "head.b"
        assert names == ParamSet.from_model(model).names  # deterministic
        total = sum(a.size for _, a in params.items())
        assert params.total_count() == total

    def test_gate_registry_matches_overhead_formula(self):
        model = tiny_model(placement="g1")
        params = ParamSet.from_model(model)
        gate_total = sum(a.size for n, a in params.items() if is_gate_param(n))
        assert gate_total == gate_param_count(16, 4, 4, 2)

    def test_shared_gate_registered_once(self):
        model = tiny_model(placement="g1", sharing="shared")
        params = ParamSet.from_model(model)
        gate_names = [n for n in params.names if is_gate_param(n)]
        assert gate_names == ["layer0.attn.gate.w_g", "layer0.attn.gate.b_g",
                              "layer1.attn.gate.w_g", "layer1.attn.gate.b_g"]

    def test_arrays_are_shared_references(self):
        model = tiny_model()
        params = ParamSet.from_model(model)
        params["head.b"][:] = 9.0
        assert model.b_head[0] == 9.0


class TestHeadStackParams:
    """ParamSet entries of attention heads are views into the layer's stacks."""

    @pytest.mark.parametrize("placement, kw", [
        ("g1", {}), ("g3", {"activation": "tanh"}), ("g2", {"sharing": "shared"}),
    ])
    def test_view_gradient_is_slice_of_stack_gradient(self, batch, placement, kw):
        model = tiny_model(seed=40, placement=placement, **kw)
        params = ParamSet.from_model(model)
        _, grads = loss_and_gradients(model, params, batch[:3])
        lifter = training._Lifter(model)
        graphs = GraphBatch.of([g for g, _ in batch[:3]])
        pred, _ = batch_forward(graphs, model, lift=lifter)
        targets = np.stack([np.reshape(t, -1) for _, t in batch[:3]])
        ad.backward(ad.div(ad.vsum(ad.square(ad.sub(pred, targets))), 3.0))
        checked = 0
        for i, layer in enumerate(model.layers):
            attn = layer.attn
            for name in attn.stacked_fields():
                stack_grad = lifter.grad(getattr(attn, name))
                assert stack_grad.shape == getattr(attn, name).shape
                for k, head in enumerate(attn.heads):
                    index = k if len(stack_grad) > 1 else 0
                    assert np.array_equal(lifter.grad(getattr(head, name)), stack_grad[index])
                    label = "gate" if len(stack_grad) == 1 else f"head{k}"
                    assert np.array_equal(grads[f"layer{i}.attn.{label}.{name}"],
                                          stack_grad[index])
                    checked += 1
        assert checked == 2 * 4 * len(model.layers[0].attn.stacked_fields())

    def test_adamw_update_reaches_the_next_forward(self):
        model = tiny_model(seed=41, placement="g1")
        params = ParamSet.from_model(model)
        graph = make_toy_task(seed=7, n_graphs=2, nodes_per_graph=6).train[0][0]
        before, _ = model_forward(graph, model)
        stack = model.layers[1].attn.w_v.copy()
        grads = ParamSet({n: np.zeros_like(a) for n, a in params.items()})
        grads["layer1.attn.head2.w_v"][:] = 1.0
        adamw_step(params, grads, init_optimizer(params), 0.1)
        after, _ = model_forward(graph, model)
        assert not np.array_equal(before, after)
        moved = model.layers[1].attn.w_v
        assert np.array_equal(moved[2], stack[2] - 0.1 * 1.0 / (1.0 + 1e-8))
        assert np.array_equal(np.delete(moved, 2, axis=0), np.delete(stack, 2, axis=0))
        assert params["layer1.attn.head2.w_v"].base is moved

    @pytest.mark.parametrize("placement, sharing", [("g1", "per_head"), ("g3", "shared")])
    def test_load_model_keeps_the_view_link(self, tmp_path, placement, sharing):
        path = tmp_path / "model.txt"
        save_model(tiny_model(seed=42, placement=placement, sharing=sharing), path)
        back = load_model(path)
        params = ParamSet.from_model(back)
        graph = make_toy_task(seed=8, n_graphs=2, nodes_per_graph=6).train[0][0]
        before, _ = model_forward(graph, back)
        for layer in back.layers:
            attn = layer.attn
            for name in attn.stacked_fields():
                assert all(getattr(h, name).base is getattr(attn, name) for h in attn.heads)
        params["layer0.attn.head3.w_k"][0, 0] += 1.0
        assert back.layers[0].attn.w_k[3, 0, 0] == params["layer0.attn.head3.w_k"][0, 0]
        assert not np.array_equal(model_forward(graph, back)[0], before)


class TestLossAndGradients:
    def test_zero_model_zero_targets(self):
        model = tiny_model()
        params = ParamSet.from_model(model)
        for _, arr in params.items():
            arr[:] = 0.0
        task = make_toy_task(seed=1, n_graphs=3, nodes_per_graph=5)
        zero_batch = [(g, 0.0) for g, _ in task.train]
        loss, grads = loss_and_gradients(model, params, zero_batch, loss="mse")
        assert loss == 0.0
        assert all(np.array_equal(g, np.zeros_like(g)) for _, g in grads.items())

    def test_empty_batch_rejected(self):
        model = tiny_model()
        with pytest.raises(ValueError, match="non-empty"):
            loss_and_gradients(model, ParamSet.from_model(model), [])

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
        _, grads = loss_and_gradients(model, params, batch, loss="mse")
        for name in params.names:
            if name.endswith(".w_g"):
                assert np.linalg.norm(grads[name]) > 0.0

    def test_shared_gate_gradient_accumulates_over_heads(self, batch):
        model = tiny_model(seed=2, placement="g1", sharing="shared")
        params = ParamSet.from_model(model)
        _, grads = loss_and_gradients(model, params, batch, loss="mse")
        assert np.linalg.norm(grads["layer0.attn.gate.w_g"]) > 0.0

    def test_nan_parameter_is_named(self, batch):
        model = tiny_model(seed=3)
        params = ParamSet.from_model(model)
        params["layer1.ffn.w1"][0, 0] = np.nan
        with pytest.raises(NonFiniteError) as err:
            loss_and_gradients(model, params, batch)
        assert err.value.param_name == "layer1.ffn.w1"

    def test_nan_before_an_attention_layer_is_named(self, batch):
        # the NaN reaches layer 1's attention logits, which the softmax rejects
        model = tiny_model(seed=3)
        params = ParamSet.from_model(model)
        params["layer0.ffn.w1"][0, 0] = np.nan
        with pytest.raises(NonFiniteError, match="largest logit nan") as err:
            loss_and_gradients(model, params, batch)
        assert err.value.param_name == "layer0.ffn.w1"


def assert_rel_close(a, b, rel=1e-12):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.max(np.abs(a - b)) <= rel * max(np.max(np.abs(b)), 1e-300)


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
        loss_all, grads_all = loss_and_gradients(model, params, pairs, loss=loss)
        per_graph = [loss_and_gradients(model, params, [pair], loss=loss) for pair in pairs]
        assert loss_all == pytest.approx(np.mean([lv for lv, _ in per_graph]), rel=1e-12)
        for name in params.names:
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
        loss_and_gradients(model, params, make_toy_task(seed=4, n_graphs=12).train)
        assert sizes == [(8, 9)]
        sizes.clear()
        loss_and_gradients(model, params, mixed_sizes_batch())
        assert sizes == [(5, 2), (7, 2), (6, 1)]

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


class TestFiniteDifferenceCheck:
    def test_linear_head_is_exact_for_central_differences(self, batch):
        # loss is quadratic in the readout head, so central differences are
        # exact there; what remains is float64 roundoff in the loss values
        model = tiny_model(seed=5)
        params = ParamSet.from_model(model)
        head_only = params.subset(["head.w", "head.b"])
        report = finite_difference_check(model, head_only, batch, h=1e-5,
                                         sample=None, loss="mse")
        assert report.max_param_rel <= 1e-10
        assert report.max_rel_err <= 1e-8

    def test_h_outside_bounds_rejected(self, batch):
        model = tiny_model()
        params = ParamSet.from_model(model)
        with pytest.raises(ValueError, match="h must lie"):
            finite_difference_check(model, params, batch, h=1e-2)

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
        cache = training._PlainForwardCache(model, graphs, "mae")
        rng = np.random.default_rng(0)
        for name, arr in ParamSet.from_model(model).items():
            probe = cache.probe(arr)
            for j in rng.choice(arr.size, size=min(3, arr.size), replace=False):
                loc = np.unravel_index(int(j), arr.shape)
                old = arr[loc]
                arr[loc] = old + 1e-3
                assert probe() == batch_loss(model, graphs, "mae"), name
                arr[loc] = old
            assert probe() == batch_loss(model, graphs, "mae"), name

    def test_cached_probe_over_node_count_groups_is_bitwise(self):
        model = tiny_model(seed=16, placement="g2")
        pairs = mixed_sizes_batch()
        cache = training._PlainForwardCache(model, pairs, "mse")
        params = ParamSet.from_model(model)
        for name in ("layer0.mpnn.w_edge", "layer0.attn.head2.w_g", "layer1.attn.w_o",
                     "layer1.ln2.scale", "head.w"):
            arr = params[name]
            probe = cache.probe(arr)
            old = arr.flat[1]
            arr.flat[1] = old + 1e-3
            assert probe() == batch_loss(model, pairs, "mse"), name
            arr.flat[1] = old

    @pytest.mark.parametrize("placement, kw", [("g3", {}), ("g1", {"sharing": "shared"})])
    def test_probe_index_covers_every_parameter_after_the_input(self, batch, placement, kw):
        model = tiny_model(seed=17, placement=placement, **kw)
        cache = training._PlainForwardCache(model, batch[:2], "mse")
        branch = {"w_o": "w_o", "mpnn": "mpnn", "ffn": "combine", "ln1": "combine",
                  "ln2": "combine"}
        for name, arr in ParamSet.from_model(model).items():
            if name.startswith("input."):
                assert id(arr) not in cache.index, name
                continue
            index, branches = cache.index[id(arr)]
            if name.startswith("head."):
                assert (index, branches) == (2, frozenset()), name
                continue
            part = name.split(".")[1] if ".attn." not in name else name.split(".")[2]
            assert index == int(name[len("layer")]), name
            assert branches == {branch.get(part, "heads")}, name

    def test_report_deterministic_given_seed(self, batch):
        model = tiny_model(seed=8)
        params = ParamSet.from_model(model)
        a = finite_difference_check(model, params, batch, sample=4, seed=9)
        b = finite_difference_check(model, params, batch, sample=4, seed=9)
        assert a == b


class TestAdamW:
    def test_zero_gradients_leave_params_unchanged(self):
        model = tiny_model(seed=10)
        params = ParamSet.from_model(model)
        before = params.copy_values()
        zeros = ParamSet({n: np.zeros_like(a) for n, a in params.items()})
        state = init_optimizer(params, weight_decay=0.0)
        adamw_step(params, zeros, state, lr_t=1e-3)
        for name, arr in params.items():
            assert np.array_equal(arr, before[name])

    def test_first_step_magnitude_with_unit_gradient(self):
        # one step, g = 1: bias correction gives m_hat = v_hat = 1, so the
        # update is lr / (1 + eps)
        params = ParamSet({"w": np.zeros((2, 2))})
        ones = ParamSet({"w": np.ones((2, 2))})
        state = init_optimizer(params)
        adamw_step(params, ones, state, lr_t=1e-3)
        expected = -1e-3 / (1.0 + state.eps)
        assert np.allclose(params["w"], expected, rtol=1e-12)

    def test_decoupled_decay_is_pure_shrink_without_gradients(self):
        params = ParamSet({"w": np.full((3,), 2.0)})
        zeros = ParamSet({"w": np.zeros(3)})
        state = init_optimizer(params, weight_decay=0.1)
        for _ in range(4):
            adamw_step(params, zeros, state, lr_t=1e-2)
        assert np.allclose(params["w"], 2.0 * (1.0 - 1e-2 * 0.1) ** 4, rtol=1e-14)

    def test_zero_weight_decay_reduces_to_adam(self):
        rng = SeededRng(55)
        shapes = {"a": (3, 2), "b": (4,)}
        params = ParamSet({n: rng.standard_normal(s) for n, s in shapes.items()})
        reference = params.copy_values()
        state = init_optimizer(params, weight_decay=0.0)
        # independent textbook Adam trajectory
        m = {n: np.zeros(s) for n, s in shapes.items()}
        v = {n: np.zeros(s) for n, s in shapes.items()}
        lr, b1, b2, eps = 1e-3, state.beta1, state.beta2, state.eps
        for t in range(1, 11):
            grads = {n: rng.standard_normal(s) for n, s in shapes.items()}
            adamw_step(params, ParamSet(grads), state, lr_t=lr)
            for n in shapes:
                m[n] = b1 * m[n] + (1 - b1) * grads[n]
                v[n] = b2 * v[n] + (1 - b2) * grads[n] ** 2
                mhat = m[n] / (1 - b1**t)
                vhat = v[n] / (1 - b2**t)
                reference[n] = reference[n] - lr * mhat / (np.sqrt(vhat) + eps)
        for n in shapes:
            assert np.allclose(params[n], reference[n], atol=1e-15)


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
        task = make_toy_task(seed=0, n_graphs=2, nodes_per_graph=4)
        exploded = type(task)(train=[(g, 1e7) for g, _ in task.train],
                              test=task.test, seed=task.seed)
        with pytest.raises(DivergenceError) as err:
            train_toy(cfg, exploded)
        assert err.value.epoch == 0

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
        assert p0.names == p1.names
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
        heads = back.layers[0].attn.heads
        assert all(h.w_g is heads[0].w_g for h in heads)

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

    def test_loss_round_trips_through_batch_loss(self, tmp_path):
        model = tiny_model(seed=23)
        task = make_toy_task(seed=6, n_graphs=3, nodes_per_graph=5)
        before = batch_loss(model, task.train, "mae")
        path = tmp_path / "model.txt"
        save_model(model, path)
        after = batch_loss(load_model(path), task.train, "mae")
        assert before == after
