import copy

import numpy as np
import pytest

from oracles import GATE_ACTIVATIONS as ACTIVATION_ORACLES, head_by_head_init, head_forward
from siggate.attention import (
    GATE_ACTIVATIONS,
    GateConfig,
    MhsaParams,
    gate_param_count,
    gated_head_forward,
    init_mhsa_params,
    siggate_mhsa,
)
from siggate.numeric import SeededRng, ShapeError, gaussian_matrix


# The two public entry points check their input alike and name the problem.
BOTH_ENTRIES = pytest.mark.parametrize("entry", [siggate_mhsa, gated_head_forward],
                                       ids=lambda entry: entry.__name__)


def make_head(rng, d, d_k, gated=True, g3=False):
    """One head's plain arrays by field name."""
    std = 1.0 / np.sqrt(d)
    head = {name: gaussian_matrix(rng, d, d_k, std) for name in ("w_q", "w_k", "w_v")}
    if gated:
        head["w_g"] = gaussian_matrix(rng, d, d_k, std)
        if g3:
            head["w_g2"] = gaussian_matrix(rng, d, d_k, std)
            head["b_g"] = np.array([0.5])
        else:
            head["b_g"] = np.full(d_k, 0.5)
    return head


GATE_FIELDS = ("w_g", "w_g2", "b_g")


def stack_heads(heads, cfg, w_o=None):
    """The layer whose head k holds ``heads[k]``'s arrays, each field the
    placement reads stacked over the heads (a shared gate from head 0); W_O
    defaults to the identity."""
    read = MhsaParams(None, None, None, None, cfg).stacked_fields()
    shared = cfg.sharing == "shared"
    stacks = {name: np.stack([head[name] for head in
                              (heads[:1] if shared and name in GATE_FIELDS else heads)])
              for name in read}
    if w_o is None:
        w_o = np.eye(len(heads) * heads[0]["w_q"].shape[1])
    return MhsaParams(w_o=w_o, gate=cfg, **stacks)


def head_layer(params, k):
    """Head k of ``params`` alone: a layer of K = 1 built from the slices
    ``stack[k:k+1]`` (``[0:1]`` of a shared gate) and head k's rows of W_O."""
    d_k = params.w_q.shape[-1]
    shared = params.gate.sharing == "shared"
    stacks = {}
    for name in params.stacked_fields():
        j = 0 if shared and name in GATE_FIELDS else k
        stacks[name] = getattr(params, name)[j:j + 1]
    return MhsaParams(w_o=params.w_o[k * d_k:(k + 1) * d_k], gate=params.gate, **stacks)


def run_head(h, head, placement="none", activation="sigmoid", mask=None, **kwargs):
    """One head's output and :class:`HeadTrace`, run as a layer of K = 1
    (the layer stacks copies of the head's arrays)."""
    cfg = GateConfig(placement=placement, activation=activation)
    layer = stack_heads([head], cfg)
    out, traces, _ = gated_head_forward(h, layer, mask, **kwargs)
    assert out.shape[0] == 1 and len(traces) == 1
    return out[0], traces[0]


class TestSdpa:
    """Placement ``none`` is plain scaled dot-product attention."""

    def test_single_node_forced_attention(self):
        rng = SeededRng(0)
        head = make_head(rng, 4, 2, gated=False)
        h = gaussian_matrix(rng, 1, 4, 1.0)
        y, trace = run_head(h, head)
        assert np.array_equal(trace.attention, [[1.0]])
        assert y.shape == (1, 2)

    def test_zero_values_give_zero_output(self):
        rng = SeededRng(1)
        head = make_head(rng, 4, 2, gated=False)
        head["w_v"] = np.zeros((4, 2))
        h = gaussian_matrix(rng, 5, 4, 1.0)
        y, _ = run_head(h, head)
        assert np.array_equal(y, np.zeros((5, 2)))

    def test_two_node_scalar_hand_computation(self):
        # d = d_k = 1: everything reduces to scalar arithmetic done by hand
        h = np.array([[1.0], [2.0]])
        head = {"w_q": np.array([[0.3]]), "w_k": np.array([[-0.7]]),
                "w_v": np.array([[1.1]])}
        y, trace = run_head(h, head)
        q = h * 0.3
        k = h * -0.7
        v = h * 1.1
        logits = q @ k.T / 1.0
        expected_attn = np.exp(logits - logits.max(axis=1, keepdims=True))
        expected_attn /= expected_attn.sum(axis=1, keepdims=True)
        assert np.allclose(trace.attention, expected_attn, atol=1e-15)
        assert np.allclose(y, expected_attn @ v, atol=1e-15)

    def test_rows_are_stochastic(self):
        rng = SeededRng(2)
        head = make_head(rng, 8, 4, gated=False)
        h = gaussian_matrix(rng, 6, 8, 1.0)
        _, trace = run_head(h, head)
        assert np.max(np.abs(trace.attention.sum(axis=1) - 1.0)) <= 1e-12


class TestComputeGate:
    """The g1 gate values ``act(H W_g + b_g)``, read from the head's trace."""

    def test_zero_weights_bias_half_sigmoid(self):
        rng = SeededRng(3)
        head = make_head(rng, 4, 3)
        head["w_g"] = np.zeros((4, 3))
        h = gaussian_matrix(rng, 5, 4, 1.0)
        _, trace = run_head(h, head, "g1")
        assert np.allclose(trace.gate, 0.6224593312018546, atol=1e-12)

    def test_zero_bias_gives_half(self):
        rng = SeededRng(4)
        head = make_head(rng, 4, 3)
        head["w_g"] = np.zeros((4, 3))
        head["b_g"] = np.zeros(3)
        h = gaussian_matrix(rng, 5, 4, 1.0)
        _, trace = run_head(h, head, "g1")
        assert np.allclose(trace.gate, 0.5, atol=0)

    def test_identity_projection_gates_by_the_activation_of_the_input(self):
        rng = SeededRng(5)
        head = make_head(rng, 4, 4)
        head["w_g"] = np.eye(4)
        head["b_g"] = np.zeros(4)
        h = gaussian_matrix(rng, 5, 4, 1.0)
        for activation in GATE_ACTIVATIONS:
            _, trace = run_head(h, head, "g1", activation)
            assert np.array_equal(trace.gate, ACTIVATION_ORACLES[activation](h))


class TestGatedHeadForward:
    """One head, run as a K = 1 layer, against the op-by-op oracle."""

    def setup_method(self):
        rng = SeededRng(6)
        self.h = gaussian_matrix(rng, 6, 8, 1.0)
        self.head = make_head(rng, 8, 4)
        self.head_g3 = make_head(SeededRng(8481052455677510368), 8, 4, g3=True)

    def test_placement_none_equals_sdpa(self):
        out, trace = run_head(self.h, self.head, "none")
        y, attn, _ = head_forward(self.h, self.head, "none")
        assert np.array_equal(out, y)
        assert np.array_equal(trace.attention, attn)
        assert trace.gate is None

    def test_g1_saturated_gate_is_bitwise_ungated(self):
        # W_g = 0 and b_g = 40: every gate is sigmoid(40), which is 1.0 in float64.
        head = dict(self.head, w_g=np.zeros((8, 4)), b_g=np.full(4, 40.0))
        out, trace = run_head(self.h, head, "g1")
        y, _ = run_head(self.h, self.head, "none")
        assert np.all(trace.gate == 1.0)
        assert np.array_equal(out, y)

    def test_g1_closed_relu_gate_kills_output(self):
        head = dict(self.head, w_g=np.zeros((8, 4)), b_g=np.full(4, -1.0))
        out, _ = run_head(self.h, head, "g1", "relu")
        assert np.array_equal(out, np.zeros((6, 4)))

    def test_g1_matches_numeric_composition(self):
        out, trace = run_head(self.h, self.head, "g1")
        y, attn, gate = head_forward(self.h, self.head, "g1")
        assert np.array_equal(out, y)
        assert np.array_equal(trace.attention, attn)
        assert np.array_equal(trace.gate, gate)

    def test_g2_matches_numeric_composition(self):
        out, trace = run_head(self.h, self.head, "g2")
        y, _, gate = head_forward(self.h, self.head, "g2")
        assert np.array_equal(out, y)
        assert np.array_equal(trace.gate, gate)

    def test_g3_matches_numeric_composition(self):
        head = self.head_g3
        out, trace = run_head(self.h, head, "g3")
        y, attn, gate = head_forward(self.h, head, "g3")
        assert trace.gate.shape == (6, 6)
        assert np.array_equal(out, y)
        assert np.array_equal(trace.attention, attn)
        assert np.array_equal(trace.gate, gate)

    @pytest.mark.parametrize("placement", ["none", "g1", "g2", "g3"])
    @pytest.mark.parametrize("activation", GATE_ACTIVATIONS)
    def test_every_cell_equals_the_oracle_bitwise(self, placement, activation):
        head = self.head_g3 if placement == "g3" else self.head
        mask = np.ones((6, 6), dtype=bool)
        mask[0, 3:] = mask[4, :2] = False
        for m in (None, mask):
            out, trace = run_head(self.h, head, placement, activation, m)
            y, attn, gate = head_forward(self.h, head, placement, activation, m)
            assert np.array_equal(out, y)
            assert np.array_equal(trace.attention, attn)
            assert (trace.gate is None) == (gate is None)
            assert gate is None or np.array_equal(trace.gate, gate)

    @BOTH_ENTRIES
    def test_g3_requires_second_projection(self, entry):
        cfg = GateConfig(placement="g3")
        head = self.head_g3
        params = MhsaParams(*(head[name][None] for name in ("w_q", "w_k", "w_v")),
                            np.eye(4, 8), cfg, w_g=head["w_g"][None], b_g=head["b_g"][None])
        with pytest.raises(ValueError, match="^placement 'g3' needs w_g2$"):
            entry(self.h, params)

    def test_attention_rows_stochastic_for_all_placements(self):
        for placement, head in (("none", self.head), ("g1", self.head),
                                ("g2", self.head), ("g3", self.head_g3)):
            _, trace = run_head(self.h, head, placement)
            assert np.max(np.abs(trace.attention.sum(axis=1) - 1.0)) <= 1e-12

    def test_sigmoid_gate_strictly_inside_unit_interval(self):
        _, trace = run_head(self.h, self.head, "g1")
        assert np.all(trace.gate > 0.0) and np.all(trace.gate < 1.0)

    def test_g1_never_amplifies_ungated_output(self):
        out, _ = run_head(self.h, self.head, "g1")
        y, _ = run_head(self.h, self.head, "none")
        assert np.all(np.abs(out) <= np.abs(y) + 1e-15)


class TestSiggateMhsa:
    def test_single_head_identity_projection(self):
        rng = SeededRng(10)
        params = init_mhsa_params(rng, 6, 1, GateConfig(placement="none"))
        params.w_o = np.eye(6)
        h = gaussian_matrix(rng, 5, 6, 1.0)
        out, traces, _ = siggate_mhsa(h, params)
        y, _, _ = head_forward(h, {name: getattr(params, name)[0]
                                   for name in ("w_q", "w_k", "w_v")}, "none")
        assert np.array_equal(out, y)
        assert len(traces) == 1

    def test_shared_equals_per_head_with_duplicated_params(self):
        rng = SeededRng(11)
        shared = init_mhsa_params(rng, 8, 4, GateConfig(placement="g1", sharing="shared"))
        # the same stacks, with the shared gate repeated for each of the 4 heads
        per_head = MhsaParams(shared.w_q, shared.w_k, shared.w_v, shared.w_o,
                              GateConfig(placement="g1", sharing="per_head"),
                              w_g=np.repeat(shared.w_g, 4, axis=0),
                              b_g=np.repeat(shared.b_g, 4, axis=0))
        h = gaussian_matrix(rng, 7, 8, 1.0)
        out_shared, _, _ = siggate_mhsa(h, shared)
        out_per, _, _ = siggate_mhsa(h, per_head)
        assert np.array_equal(out_shared, out_per)

    def test_permutation_equivariance(self):
        rng = SeededRng(12)
        params = init_mhsa_params(rng, 8, 2, GateConfig(placement="g1"))
        h = gaussian_matrix(rng, 9, 8, 1.0)
        out, _, _ = siggate_mhsa(h, params)
        perm = np.argsort(SeededRng(13).uniform((9,)))
        out_perm, _, _ = siggate_mhsa(h[perm], params)
        assert np.max(np.abs(out_perm - out[perm])) <= 1e-10

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ValueError, match="not divisible"):
            init_mhsa_params(SeededRng(0), 10, 4, GateConfig(placement="none"))

    @BOTH_ENTRIES
    def test_inconsistent_heads_rejected(self, entry):
        rng = SeededRng(14)
        params = init_mhsa_params(rng, 8, 2, GateConfig(placement="none"))
        params.w_k = np.zeros((2, 8, 3))
        with pytest.raises(ShapeError,
                           match=r"^w_k has shape \(2, 8, 3\), expected \(2, 8, 4\)$"):
            entry(gaussian_matrix(rng, 4, 8, 1.0), params)

    @BOTH_ENTRIES
    def test_wrong_input_width_rejected(self, entry):
        rng = SeededRng(15)
        params = init_mhsa_params(rng, 8, 2, GateConfig(placement="none"))
        with pytest.raises(ShapeError, match="heads expect 8"):
            entry(gaussian_matrix(rng, 4, 6, 1.0), params)

    @BOTH_ENTRIES
    def test_shared_flag_with_private_arrays_rejected(self, entry):
        rng = SeededRng(16)
        # a shared config whose w_g holds a gate per head fails the shape check
        params = init_mhsa_params(rng, 8, 2, GateConfig(placement="g1", sharing="shared"))
        params.w_g = np.repeat(params.w_g, 2, axis=0)
        with pytest.raises(ShapeError,
                           match=r"^w_g has shape \(2, 8, 4\), expected \(1, 8, 4\)$"):
            entry(gaussian_matrix(rng, 4, 8, 1.0), params)

    @pytest.mark.parametrize("rows, n_graphs", [(5, 2), (4, 0)])
    @BOTH_ENTRIES
    def test_rows_that_do_not_split_into_the_graphs_rejected(self, rows, n_graphs, entry):
        params = init_mhsa_params(SeededRng(18), 8, 2, GateConfig(placement="g1"))
        with pytest.raises(ShapeError, match=rf"^{rows} rows do not split into {n_graphs} "
                                             rf"graphs of equal size$"):
            entry(gaussian_matrix(SeededRng(19), rows, 8, 1.0), params, n_graphs=n_graphs)

    def test_mask_propagates(self):
        rng = SeededRng(17)
        params = init_mhsa_params(rng, 8, 2, GateConfig(placement="g1"))
        h = gaussian_matrix(rng, 5, 8, 1.0)
        mask = np.eye(5, dtype=bool)
        _, traces, _ = siggate_mhsa(h, params, mask)
        for t in traces:
            assert np.array_equal(t.attention, np.eye(5))


class TestGateParamCount:
    def test_reference_scale_configurations(self):
        assert gate_param_count(256, 32, 8, 5) == 328_960
        assert gate_param_count(64, 8, 8, 10) == 41_600

    def test_degenerate_counts(self):
        assert gate_param_count(16, 4, 0, 3) == 0
        assert gate_param_count(16, 4, 4, 0) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="n_heads"):
            gate_param_count(16, 4, -1, 3)


CELLS = [("none", "sigmoid", "per_head"), ("none", "sigmoid", "shared")] + [
    (placement, activation, "per_head")
    for placement in ("g1", "g2", "g3") for activation in GATE_ACTIVATIONS
] + [(placement, "sigmoid", "shared") for placement in ("g1", "g2", "g3")]


def stacked_layer(seed, placement, activation="sigmoid", sharing="per_head", d=8, heads=4):
    cfg = GateConfig(placement=placement, activation=activation, sharing=sharing)
    return init_mhsa_params(SeededRng(seed), d, heads, cfg)


class TestHeadStack:
    """A layer holds its heads' projections as stacks; head k is slice k."""

    @pytest.mark.parametrize("placement, activation, sharing", CELLS)
    def test_stacked_pass_equals_loop_over_heads_bitwise(self, placement, activation,
                                                         sharing):
        params = stacked_layer(30, placement, activation, sharing)
        rng = SeededRng(31)
        n = 5
        mask = np.ones((3 * n, n), dtype=bool)
        mask[1, 3:] = False
        mask[n + 4, :2] = False  # the second graph's last node
        inputs = [(gaussian_matrix(rng, n, 8, 1.0), None, 1),
                  (gaussian_matrix(rng, n, 8, 1.0), mask[:n], 1),
                  (gaussian_matrix(rng, 3 * n, 8, 1.0), mask, 3)]
        for h, m, n_graphs in inputs:
            out, traces, _ = gated_head_forward(h, params, m, n_graphs=n_graphs)
            assert out.shape == (4, len(h), 2) and len(traces) == 4
            for k in range(4):
                (out_k,), (trace_k,), _ = gated_head_forward(h, head_layer(params, k), m,
                                                          n_graphs=n_graphs)
                assert np.array_equal(out[k], out_k)
                assert np.array_equal(traces[k].output, trace_k.output)
                assert np.array_equal(traces[k].attention, trace_k.attention)
                if placement == "none":
                    assert traces[k].gate is None and trace_k.gate is None
                else:
                    assert np.array_equal(traces[k].gate, trace_k.gate)

    @pytest.mark.parametrize("placement, sharing, gate_heads", [
        ("none", "per_head", 0), ("g1", "per_head", 4), ("g1", "shared", 1),
        ("g3", "per_head", 4), ("g3", "shared", 1),
    ])
    def test_heads_view_slices_of_the_stacks(self, placement, sharing, gate_heads):
        # The stacks have the documented shapes, and a layer of one head built
        # from slices of them reads the stacks' memory: a write into slice k
        # reaches head k's K = 1 layer and no other head's.
        params = stacked_layer(32, placement, sharing=sharing)
        assert params.w_q.shape == params.w_k.shape == params.w_v.shape == (4, 8, 2)
        if not gate_heads:
            assert params.w_g is None and params.w_g2 is None and params.b_g is None
        else:
            assert params.w_g.shape == (gate_heads, 8, 2)
            assert params.b_g.shape == (gate_heads, 1 if placement == "g3" else 2)
            assert (params.w_g2 is None) == (placement != "g3")
        h = gaussian_matrix(SeededRng(33), 5, 8, 1.0)
        for name in params.stacked_fields():
            stack = getattr(params, name)
            k = 1 if len(stack) > 1 else 0
            layers = [head_layer(params, j) for j in range(4)]
            assert all(np.shares_memory(getattr(layers[j], name), stack) for j in range(4))
            before = [siggate_mhsa(h, layer)[0] for layer in layers]
            old = stack[k].flat[0]
            stack[k].flat[0] = old + 0.5
            after = [siggate_mhsa(h, layer)[0] for layer in layers]
            stack[k].flat[0] = old
            readers = {1} if len(stack) > 1 else {0, 1, 2, 3}
            for j in range(4):
                assert np.array_equal(before[j], after[j]) == (j not in readers), (name, j)

    def test_init_keeps_the_per_head_draw_order(self):
        for placement in ("none", "g1", "g2", "g3"):
            for sharing in ("per_head", "shared"):
                for gate_std in (None, 0.0, 0.3):
                    cfg = GateConfig(placement=placement, sharing=sharing, bias_init=-0.25)
                    params = init_mhsa_params(SeededRng(33), 8, 2, cfg,
                                              gate_weight_std=gate_std)
                    heads, w_o = head_by_head_init(SeededRng(33), 8, 2, cfg, gate_std)
                    want = stack_heads(heads, cfg, w_o)
                    for name in ("w_q", "w_k", "w_v", "w_o", "w_g", "w_g2", "b_g"):
                        a, b = getattr(params, name), getattr(want, name)
                        assert (a is None) == (b is None)
                        assert a is None or np.array_equal(a, b)

    def test_construction_adopts_existing_stacks(self):
        # An ungated layer built from a gated layer's stacks holds those same
        # arrays, and equals the gated layer under a saturated gate (W_g = 0,
        # b_g = 40: sigmoid(40) is 1.0 in float64).
        gated = init_mhsa_params(SeededRng(34), 8, 4, GateConfig(placement="g1", bias_init=40.0),
                                 gate_weight_std=0.0)
        ungated = MhsaParams(gated.w_q, gated.w_k, gated.w_v, gated.w_o,
                             GateConfig(placement="none"))
        for name in ("w_q", "w_k", "w_v", "w_o"):
            assert getattr(ungated, name) is getattr(gated, name)
        assert ungated.w_g is None
        h = gaussian_matrix(SeededRng(35), 5, 8, 1.0)
        out_ones, traces, _ = siggate_mhsa(h, gated)
        assert all(np.all(t.gate == 1.0) for t in traces)
        assert np.array_equal(out_ones, siggate_mhsa(h, ungated)[0])

    def test_construction_copies_other_arrays_without_touching_the_heads(self):
        # Stacking plain per-head arrays copies them: a write into the stack
        # leaves the heads' own arrays as they were, and the stacked layer
        # equals the heads run one by one.
        rng = SeededRng(36)
        heads = [make_head(rng, 8, 4) for _ in range(2)]
        originals = [{name: arr.copy() for name, arr in head.items()} for head in heads]
        params = stack_heads(heads, GateConfig(placement="g1"))
        params.w_q[0, 0, 0] += 1.0
        params.w_g[1, 0, 0] += 1.0
        for head, original in zip(heads, originals):
            assert all(np.array_equal(head[name], original[name]) for name in head)
        params.w_q[0, 0, 0] -= 1.0
        params.w_g[1, 0, 0] -= 1.0
        h = gaussian_matrix(rng, 5, 8, 1.0)
        out, _, _ = siggate_mhsa(h, params)
        loop = [run_head(h, head, "g1")[0] for head in heads]
        assert np.array_equal(out, np.concatenate(loop, axis=1) @ np.eye(8))

    def test_deepcopy_restacks(self):
        # A deep copy holds stacks of its own with the same values and forward.
        params = stacked_layer(37, "g3", sharing="shared")
        twin = copy.deepcopy(params)
        for name in params.stacked_fields() + ("w_o",):
            assert not np.shares_memory(getattr(twin, name), getattr(params, name))
            assert np.array_equal(getattr(twin, name), getattr(params, name))
        h = gaussian_matrix(SeededRng(38), 5, 8, 1.0)
        assert np.array_equal(siggate_mhsa(h, twin)[0], siggate_mhsa(h, params)[0])

    @pytest.mark.parametrize("placement, name", [
        ("g1", "w_q"), ("g1", "w_k"), ("g1", "w_v"), ("g1", "w_g"), ("g1", "b_g"),
        ("g3", "w_g2"),
    ])
    @BOTH_ENTRIES
    def test_replaced_head_field_rejected(self, placement, name, entry):
        # A field replaced by a stack without head 2 no longer agrees with the
        # layer's other stacks; the error names the field (W_O's row count
        # when the field is w_q, whose stack sets the head count).
        params = stacked_layer(39, placement)
        stack = getattr(params, name)
        setattr(params, name, np.delete(stack, 2, axis=0))
        message = (r"^w_o has 8 input rows but heads concatenate to 6$" if name == "w_q"
                   else rf"^{name} has shape \(3, .*\), expected \(4, ")
        with pytest.raises(ShapeError, match=message):
            entry(gaussian_matrix(SeededRng(40), 5, 8, 1.0), params)

    @BOTH_ENTRIES
    def test_replaced_stack_rejected(self, entry):
        params = stacked_layer(41, "g2")
        params.w_v = np.zeros((4, 8, 3))
        with pytest.raises(ShapeError,
                           match=r"^w_v has shape \(4, 8, 3\), expected \(4, 8, 2\)$"):
            entry(gaussian_matrix(SeededRng(42), 5, 8, 1.0), params)


class TestStackValidation:
    """``gated_head_forward``, and so ``siggate_mhsa``, checks the stacks
    against one shape table."""

    @pytest.mark.parametrize("placement, name", [
        ("g1", "w_g"), ("g1", "b_g"), ("g2", "b_g"), ("g3", "w_g2"),
    ])
    @BOTH_ENTRIES
    def test_missing_stack_for_the_placement_rejected(self, placement, name, entry):
        params = stacked_layer(43, placement)
        setattr(params, name, None)
        with pytest.raises(ValueError, match=rf"^placement '{placement}' needs {name}$"):
            entry(gaussian_matrix(SeededRng(44), 5, 8, 1.0), params)

    @pytest.mark.parametrize("placement, name", [("none", "w_g"), ("g1", "w_g2")])
    @BOTH_ENTRIES
    def test_stack_the_placement_does_not_read_rejected(self, placement, name, entry):
        params = stacked_layer(45, placement)
        setattr(params, name, np.zeros((4, 8, 2)))
        with pytest.raises(ValueError, match=rf"placement '{placement}' does not read {name}"):
            entry(gaussian_matrix(SeededRng(46), 5, 8, 1.0), params)

    @BOTH_ENTRIES
    def test_w_o_row_count_rejected(self, entry):
        params = stacked_layer(47, "g1")
        params.w_o = np.eye(6, 8)
        with pytest.raises(ShapeError, match="^w_o has 6 input rows but heads concatenate to 8$"):
            entry(gaussian_matrix(SeededRng(48), 5, 8, 1.0), params)

    @pytest.mark.parametrize("rows, n_graphs, shape, want", [
        (5, 1, (3, 3), (5, 5)), (10, 2, (10, 10), (10, 5)), (10, 2, (5, 5), (10, 5)),
    ])
    @BOTH_ENTRIES
    def test_mask_shape_rejected(self, rows, n_graphs, shape, want, entry):
        # The error names the mask the caller passed and the N x n one the rows take.
        params = stacked_layer(51, "g1", heads=2)
        with pytest.raises(ShapeError, match=rf"^mask has shape \({shape[0]}, {shape[1]}\), "
                                             rf"expected \({want[0]}, {want[1]}\)$"):
            entry(gaussian_matrix(SeededRng(52), rows, 8, 1.0), params,
                  np.ones(shape, dtype=bool), n_graphs=n_graphs)

    @BOTH_ENTRIES
    def test_a_placement_set_after_construction_is_checked(self, entry):
        # GateConfig checks its placement when built; a g1 layer's stacks also
        # fit a name assigned afterwards, so the pass checks it again.
        params = stacked_layer(53, "g1")
        params.gate.placement = "g4"
        with pytest.raises(ValueError, match="^unknown placement 'g4'$"):
            entry(gaussian_matrix(SeededRng(54), 5, 8, 1.0), params)

    @pytest.mark.parametrize("shape", [(8, 2), (0, 8, 2)])
    @BOTH_ENTRIES
    def test_w_q_without_a_head_axis_or_a_head_rejected(self, shape, entry):
        params = stacked_layer(49, "none")
        params.w_q = np.zeros(shape)
        with pytest.raises(ShapeError, match="^w_q must stack at least one head"):
            entry(gaussian_matrix(SeededRng(50), 5, 8, 1.0), params)
