import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from oracles import per_cell_rank_experiment
from siggate import synthexp
from siggate.gps import GraphInstance
from siggate.numeric import NonFiniteInputError, SeededRng
from siggate.synthexp import (
    RankExpConfig,
    calibrate_gate,
    make_toy_task,
    run_rank_experiment,
    run_robustness_sweep,
    toy_label,
    triangle_count,
    write_aggregate_csv,
    write_seed_csv,
)

MINI = RankExpConfig(n=8, d=16, n_heads=4, d_k=4, seeds=(0, 1))


class TestCalibrateGate:
    def test_zero_std_is_degenerate_constant_gate(self):
        cal = calibrate_gate(0.5, 0.0)
        assert cal.scale == 0.0
        assert cal.bias == 0.0
        assert cal.attained_std == 0.0

    def test_symmetric_mean_keeps_zero_bias(self):
        cal = calibrate_gate(0.5, 0.1)
        assert abs(cal.bias) <= 1e-9
        assert cal.scale > 0.0
        assert cal.attained_std == pytest.approx(0.1, abs=1e-9)

    def test_default_targets_attained(self):
        cal = calibrate_gate(0.58, 0.19)
        assert cal.attained_mean == pytest.approx(0.58, abs=1e-9)
        assert cal.attained_std == pytest.approx(0.19, abs=1e-9)

    def test_monte_carlo_agrees_with_quadrature(self):
        # independent check of the quadrature moments by brute-force sampling
        cal = calibrate_gate(0.58, 0.19)
        z = SeededRng(123).standard_normal((1_000_000,))
        g = 1.0 / (1.0 + np.exp(-(cal.scale * z + cal.bias)))
        assert g.mean() == pytest.approx(0.58, abs=2e-3)
        assert g.std() == pytest.approx(0.19, abs=2e-3)

    def test_infeasible_std_names_feasible_range(self):
        with pytest.raises(ValueError, match=r"feasible range is \[0, 0.4935"):
            calibrate_gate(0.58, 0.6)

    def test_mean_bounds_enforced(self):
        with pytest.raises(ValueError, match="target mean"):
            calibrate_gate(1.2, 0.1)

    @pytest.mark.parametrize("std", [math.nan, math.inf, -math.inf])
    def test_non_finite_std_names_feasible_range(self, std):
        with pytest.raises(ValueError, match=r"target std .* feasible range is \[0, 0.4935"):
            calibrate_gate(0.58, std)

    @pytest.mark.parametrize("mean, std", [(0.58, 0.48), (0.58, 0.4935), (0.9, 0.299)])
    def test_singular_jacobian_names_the_targets(self, mean, std):
        with pytest.raises(ValueError, match=rf"^calibrate_gate: targets \(mean {mean}, std "
                                             rf"{std}\) make the moment Jacobian singular"):
            calibrate_gate(mean, std)

    @pytest.mark.parametrize("mean, std, residual, limit", [
        (0.58, 0.47, "0.00382", "0.493559"), (0.58, 0.49, "0.0118", "0.493559"),
        (0.1, 0.2999, "0.00472", "0.3"),
    ])
    def test_newton_that_ends_off_the_targets_raises(self, monkeypatch, mean, std, residual,
                                                     limit):
        # Feasible, but Newton stalls off the targets: the first line search whose 60
        # halvings all fail to lower the residual ends it.
        evaluations = []
        real = synthexp._gate_moments
        monkeypatch.setattr(synthexp, "_gate_moments",
                            lambda *args: evaluations.append(args) or real(*args))
        with pytest.raises(ValueError, match=rf"^calibrate_gate: targets \(mean {mean}, std "
                                             rf"{std}\) are missed by a moment residual of "
                                             rf"{residual} > 1e-12 \(the std's Bernoulli limit "
                                             rf"is {limit}\)$"):
            calibrate_gate(mean, std)
        assert len(evaluations) < 2 * 61  # a search takes at most 61: there is no second stall

    @pytest.mark.parametrize("mean, std, scale, bias", [
        (0.58, 0.19, "0x1.d0c49f5d73d93p-1", "0x1.84b8e7b117d86p-2"),
        (0.5, 0.1, "0x1.aa746c253d3e9p-2", "0x1.4bbb43d03a653p-62"),
        (0.3, 0.15, "0x1.92285af9f8d59p-1", "-0x1.eaa591bb01af4p-1"),
        (0.5, 0.499, "0x1.1446cf1468bc0p+5", "-0x1.ca1002e3deff6p-44"),
    ])
    def test_reachable_targets_keep_their_calibration(self, mean, std, scale, bias):
        cal = calibrate_gate(mean, std)
        assert (cal.scale, cal.bias) == (float.fromhex(scale), float.fromhex(bias))
        assert abs(cal.attained_mean - mean) <= 1.2e-16
        assert abs(cal.attained_std ** 2 - std ** 2) <= 1e-12

    def test_deterministic(self):
        a = calibrate_gate(0.3, 0.15)
        b = calibrate_gate(0.3, 0.15)
        assert (a.scale, a.bias) == (b.scale, b.bias)

    def test_the_quadrature_rule_is_computed_once_and_read_only(self, monkeypatch):
        calls, hermgauss = [], np.polynomial.hermite.hermgauss
        monkeypatch.setattr(np.polynomial.hermite, "hermgauss",
                            lambda order: calls.append(order) or hermgauss(order))
        synthexp._gauss_hermite.cache_clear()
        try:
            assert calibrate_gate(0.58, 0.19) == calibrate_gate(0.58, 0.19)
            assert calls == [96]
            for a in synthexp._gauss_hermite():
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 0.0
        finally:
            synthexp._gauss_hermite.cache_clear()


class TestRankExperiment:
    def test_miniature_sranks_match_svd_recomputation(self):
        # The per-head outputs and gates come from the per-cell oracle, which
        # draws the same arrays; their stable ranks are recomputed by SVD.
        result = run_rank_experiment(MINI)
        by_seed = {}
        for item in per_cell_rank_experiment(MINI)[4]:
            for key, mat in (("ungated", item["y"]), ("gated", item["y"] * item["gate"])):
                s = np.linalg.svd(mat, compute_uv=False)
                by_seed.setdefault((item["seed"], key), []).append(float(np.sum(s**2) / s[0] ** 2))
        assert [res.seed for res in result.per_seed] == list(MINI.seeds)
        for res in result.per_seed:
            assert res.srank_ungated == pytest.approx(
                np.mean(by_seed[(res.seed, "ungated")]), rel=1e-9)
            assert res.srank_gated == pytest.approx(
                np.mean(by_seed[(res.seed, "gated")]), rel=1e-9)

    def test_constant_half_gate_gives_exactly_zero_gain(self):
        # A zero target std calibrates to scale 0 and bias 0, so every gate is
        # exactly 0.5; halving is exact in floating point and the stable rank
        # is scale-free, so gating changes no stable rank by a single bit.
        cfg = RankExpConfig(n=8, d=16, n_heads=4, d_k=4, seeds=(0,), rho=0.0,
                            target_gate_mean=0.5, target_gate_std=0.0)
        result = run_rank_experiment(cfg)
        assert (result.calibration.scale, result.calibration.bias) == (0.0, 0.0)
        assert (result.attained_gate_mean, result.attained_gate_std) == (0.5, 0.0)
        assert result.per_seed[0].relative_gain == 0.0

    def test_deterministic_given_config(self):
        a = run_rank_experiment(MINI)
        b = run_rank_experiment(MINI)
        assert [(s.srank_ungated, s.srank_gated) for s in a.per_seed] == \
            [(s.srank_ungated, s.srank_gated) for s in b.per_seed]
        assert a.attained_gate_mean == b.attained_gate_mean

    def test_uniform_attention_limit_collapses_ungated_rank(self):
        cfg = RankExpConfig(n=16, d=32, n_heads=4, d_k=8, seeds=(0,), c=1e-6, rho=0.0)
        result = run_rank_experiment(cfg)
        res = result.per_seed[0]
        assert res.srank_ungated < 1.2  # near rank-1 collapse
        assert res.srank_gated > res.srank_ungated

    def test_config_validation(self):
        with pytest.raises(ValueError, match="d_k"):
            RankExpConfig(n=8, d=16, n_heads=3, d_k=4)
        with pytest.raises(ValueError, match="rho"):
            RankExpConfig(rho=1.0)
        with pytest.raises(ValueError, match="c must be positive"):
            RankExpConfig(c=0.0)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_non_finite_c_rejected(self, c):
        with pytest.raises(ValueError, match=f"c must be positive and finite, got {c}"):
            RankExpConfig(c=c)

    def test_mask_keeps_diagonal(self):
        cfg = RankExpConfig(n=8, d=16, n_heads=4, d_k=4, seeds=(0,), rho=0.95)
        result = run_rank_experiment(cfg)  # survives extreme sparsity
        assert result.per_seed[0].srank_ungated >= 1.0


class TestRobustnessSweep:
    def test_nine_cells_with_expected_ids(self):
        cells = run_robustness_sweep(MINI)
        ids = [c.config_id for c in cells]
        assert ids == ["c_0.5", "c_1", "c_1.5", "c_2", "c_3",
                       "rho_0.05", "rho_0.2", "rho_0.4", "rho_0.6"]
        c_cell = cells[0]
        assert c_cell.rho == MINI.rho
        rho_cell = cells[5]
        assert rho_cell.c == 1.0

    def test_csv_outputs(self, tmp_path):
        cells = run_robustness_sweep(MINI, c_values=(1.0,), rho_values=())
        seed_path = tmp_path / "seeds.csv"
        agg_path = tmp_path / "agg.csv"
        write_seed_csv(seed_path, cells)
        write_aggregate_csv(agg_path, cells)
        seed_lines = seed_path.read_text().strip().splitlines()
        assert seed_lines[0] == "config_id,c,rho,seed,srank_ungated,srank_gated,rel_gain"
        assert len(seed_lines) == 1 + len(MINI.seeds)
        first = seed_lines[1].split(",")
        res = cells[0].result.per_seed[0]
        assert float(first[4]) == res.srank_ungated
        assert float(first[6]) == res.relative_gain
        agg_lines = agg_path.read_text().strip().splitlines()
        assert len(agg_lines) == 2
        assert float(agg_lines[1].split(",")[7]) == cells[0].result.mean_gain


def _result_key(result):
    """Every number of a RankExpResult."""
    key = [result.calibration.scale, result.calibration.bias,
           result.calibration.attained_mean, result.calibration.attained_std,
           result.attained_gate_mean, result.attained_gate_std]
    key += [(s.seed, s.srank_ungated, s.srank_gated) for s in result.per_seed]
    return key


def _oracle_key(cfg):
    cal, per_seed, gate_mean, gate_std, _ = per_cell_rank_experiment(cfg)
    return [cal.scale, cal.bias, cal.attained_mean, cal.attained_std,
            gate_mean, gate_std] + per_seed


SHARED_PASS_CONFIGS = {
    "mini": MINI,
    "rho_0": RankExpConfig(n=8, d=16, n_heads=4, d_k=4, seeds=(0, 3), rho=0.0),
    "rho_0.95": RankExpConfig(n=8, d=16, n_heads=4, d_k=4, seeds=(1,), rho=0.95),
    "tiny_c": RankExpConfig(n=16, d=32, n_heads=4, d_k=8, seeds=(0,), c=1e-6, rho=0.0),
    # 5 heads x 7 sweep pairs x 2 outputs = 70: a full stack of 64, then one of 6
    "five_heads": RankExpConfig(n=8, d=20, n_heads=5, d_k=4, seeds=(0, 2)),
    # rows wider than numeric._SHORT_ROW take their maxima row by row
    "long_rows": RankExpConfig(n=40, d=32, n_heads=4, d_k=8, seeds=(0,)),
}


class TestSharedSeedPass:
    """One pass per seed for every (c, rho) against the per-cell loop, bit for bit."""

    @pytest.mark.parametrize("name", sorted(SHARED_PASS_CONFIGS))
    def test_sweep_cells_equal_per_cell_oracle(self, name):
        base = SHARED_PASS_CONFIGS[name]
        cells = run_robustness_sweep(base, c_values=(0.5, 1.0, 3.0),
                                     rho_values=(0.0, 0.05, 0.6, 0.95))
        assert len(cells) == 7
        for cell in cells:
            want = replace(base, c=cell.c, rho=cell.rho)
            assert cell.result.config == want
            assert _result_key(cell.result) == _oracle_key(want), cell.config_id

    @pytest.mark.parametrize("name", sorted(SHARED_PASS_CONFIGS))
    @pytest.mark.parametrize("constant_gate", [None, 0.5, 0.3])
    def test_rank_experiment_equals_per_cell_oracle(self, name, constant_gate):
        # None keeps the calibrated gate; a number is the mean of a constant
        # gate, calibrated from a zero target std (scale 0).
        cfg = SHARED_PASS_CONFIGS[name]
        if constant_gate is not None:
            cfg = replace(cfg, target_gate_mean=constant_gate, target_gate_std=0.0)
        result = run_rank_experiment(cfg)
        assert result.config == cfg
        assert _result_key(result) == _oracle_key(cfg)

    def test_duplicate_pairs_give_equal_cells_with_their_own_ids(self):
        # c_1 and rho_0.2 are both (c = 1, rho = 0.2); c_1 also appears twice
        cells = run_robustness_sweep(MINI, c_values=(1.0, 2.0, 1.0), rho_values=(0.2, 0.4))
        assert [c.config_id for c in cells] == ["c_1", "c_2", "c_1", "rho_0.2", "rho_0.4"]
        same = [cells[0], cells[2], cells[3]]
        assert len({id(c.result) for c in same}) == 3
        assert len({id(c.result.per_seed) for c in same}) == 3
        for cell in same:
            assert (cell.c, cell.rho) == (1.0, 0.2)
            assert cell.result.config == replace(MINI, c=1.0, rho=0.2)
            assert _result_key(cell.result) == _result_key(cells[0].result)
        assert _result_key(cells[1].result) != _result_key(cells[0].result)

    def test_process_pool_map_matches_builtin(self):
        serial = run_robustness_sweep(MINI)
        with ProcessPoolExecutor(max_workers=2,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            pooled = run_robustness_sweep(MINI, map_fn=pool.map)
            single = run_rank_experiment(MINI, map_fn=pool.map)
        assert [c.config_id for c in pooled] == [c.config_id for c in serial]
        for a, b in zip(pooled, serial):
            assert _result_key(a.result) == _result_key(b.result)
        assert _result_key(single) == _result_key(run_rank_experiment(MINI))

    def test_map_fn_maps_over_seeds(self):
        items = []

        def recording_map(fn, jobs):
            jobs = list(jobs)
            items.extend(jobs)
            return map(fn, jobs)

        run_robustness_sweep(MINI, map_fn=recording_map)
        assert [job[2] for job in items] == list(MINI.seeds)


class TestWorkCount:
    """The sweep draws each seed once and calibrates once, whatever its cell count."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"normal": 0, "calibrate": 0}
        draw, calibrate = SeededRng.standard_normal, synthexp.calibrate_gate

        def counted_draw(self, shape=()):
            counts["normal"] += 1
            return draw(self, shape)

        def counted_calibrate(*args, **kwargs):
            counts["calibrate"] += 1
            return calibrate(*args, **kwargs)

        monkeypatch.setattr(SeededRng, "standard_normal", counted_draw)
        monkeypatch.setattr(synthexp, "calibrate_gate", counted_calibrate)
        return counts

    def test_sweep_draws_as_much_as_one_experiment(self, counts):
        run_rank_experiment(MINI)
        single = dict(counts)
        assert single == {"normal": len(MINI.seeds) * (1 + 4 * MINI.n_heads), "calibrate": 1}
        counts.update(normal=0, calibrate=0)
        cells = run_robustness_sweep(MINI)
        assert len(cells) == 9
        assert counts == single

    def test_empty_sweep_draws_nothing(self, counts):
        assert run_robustness_sweep(MINI, c_values=(), rho_values=()) == []
        assert counts == {"normal": 0, "calibrate": 0}

    def test_invalid_sweep_value_rejected_before_any_draw(self, counts):
        for c_values, rho_values, bad in [((0.5, math.nan), (0.2,), "c_nan"),
                                          ((0.5,), (0.2, math.inf), "rho_inf"),
                                          ((math.inf,), (), "c_inf")]:
            with pytest.raises(ValueError, match=f"^sweep cell {bad}: "):
                run_robustness_sweep(MINI, c_values=c_values, rho_values=rho_values)
        assert counts == {"normal": 0, "calibrate": 0}


class TestStackedStableRanks:
    """Each seed's head outputs reach stable_rank in one stack: heads x distinct
    (c, rho) pairs x (y, y * gate) matrices."""

    @pytest.fixture
    def shapes(self, monkeypatch):
        shapes = []
        stable_rank = synthexp.stable_rank

        def recorded(m):
            shapes.append(np.shape(m))
            return stable_rank(m)

        monkeypatch.setattr(synthexp, "stable_rank", recorded)
        return shapes

    def test_default_sweep_seed_takes_one_call(self, shapes):
        # 8 heads x 8 distinct (c, rho) pairs x (y, y * gate) = 128 outputs
        run_robustness_sweep(RankExpConfig(seeds=(0,)))
        assert shapes == [(128, 64, 32)]

    def test_default_experiment_seed_takes_one_call(self, shapes):
        run_rank_experiment(RankExpConfig(seeds=(0, 1)))
        assert shapes == [(16, 64, 32)] * 2

    def test_five_heads_seed_takes_one_call(self, shapes):
        # 5 heads x 7 distinct pairs (of 12 cells) x 2 = 70 outputs
        run_robustness_sweep(SHARED_PASS_CONFIGS["five_heads"], c_values=(0.5, 1.0, 3.0),
                             rho_values=(0.0, 0.05, 0.6, 0.95))
        assert shapes == [(70, 8, 4)] * 2


class TestStackedSoftmax:
    """Each seed takes one softmax per distinct (c, rho) pair, over the stack of
    every head's logits at once, with one mask that every head reads."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        row_softmax = synthexp.row_softmax

        def recorded(logits, mask=None, out=None):
            calls.append((np.shape(logits), np.shape(mask)))
            return row_softmax(logits, mask, out=out)

        monkeypatch.setattr(synthexp, "row_softmax", recorded)
        return calls

    def test_default_sweep_seed_takes_one_call_per_pair(self, calls):
        # 9 cells, 8 distinct (c, rho) pairs; 8 heads of 64 x 64 logits, one 64 x 64 mask
        run_robustness_sweep(RankExpConfig(seeds=(0,)))
        assert calls == [((8, 64, 64), (64, 64))] * 8

    def test_default_experiment_seed_takes_one_call(self, calls):
        run_rank_experiment(RankExpConfig(seeds=(0, 1)))
        assert calls == [((8, 64, 64), (64, 64))] * 2

    def test_five_heads_seed_takes_one_call_per_pair(self, calls):
        # 7 distinct pairs (of 12 cells) per seed, 2 seeds; 5 heads of 8 x 8 logits
        run_robustness_sweep(SHARED_PASS_CONFIGS["five_heads"], c_values=(0.5, 1.0, 3.0),
                             rho_values=(0.0, 0.05, 0.6, 0.95))
        assert calls == [((5, 8, 8), (8, 8))] * 14

    @pytest.mark.parametrize("n", [16, 40])
    def test_an_overflow_in_one_head_names_its_cell_and_its_row_in_that_head(
            self, monkeypatch, n):
        # Head 2 alone gets w_q = big e_0 e_0^T and w_k = e_0 e_0^T, so its scores
        # are big * h_i0 * h_j0 and each row's largest is big * m_i (see below).
        # big puts only the largest m_i past the float maximum, and only at c = 3.
        cfg = RankExpConfig(n=n, d=32, n_heads=4, d_k=8, rho=0.0, seeds=(0,))
        draws = []
        gaussian_matrix = synthexp.gaussian_matrix

        def patched(rng, rows, cols, std):
            m = gaussian_matrix(rng, rows, cols, std)  # every draw is still made
            draws.append(m)
            if len(draws) in (10, 11):  # hidden, then 4 draws per head: head 2's w_q, w_k
                m = np.zeros_like(m)
                h = draws[0][:, 0]
                top = np.where(h > 0, h * h.max(), -h * -h.min())
                first, second = np.sort(top)[::-1][:2]
                m[0, 0] = (np.finfo(float).max / (3.0 * np.sqrt(first * second))
                           if len(draws) == 10 else 1.0)
            return m

        monkeypatch.setattr(synthexp, "gaussian_matrix", patched)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteInputError) as err:
            run_robustness_sweep(cfg, c_values=(0.5, 1.0, 3.0), rho_values=(0.0,))
        h = draws[0][:, 0]
        row = int(np.argmax(np.where(h > 0, h * h.max(), -h * -h.min())))
        assert str(err.value) == (f"rank study cell c=3 rho=0: row (2, {row}) has largest logit "
                                  "inf; softmax undefined")


class TestToyTask:
    def test_triangle_count_brute_force_oracle(self):
        # independent recount over all node triples with a different adjacency
        task = make_toy_task(seed=11, n_graphs=6, nodes_per_graph=7)
        for g, _ in task.train + task.test:
            adjacency = np.zeros((g.n, g.n), dtype=bool)
            for a, b in g.edges:
                adjacency[a, b] = True
            count = 0
            for i in range(g.n):
                for j in range(g.n):
                    for k in range(g.n):
                        if i < j < k and adjacency[i, j] and adjacency[j, k] \
                                and adjacency[i, k]:
                            count += 1
            assert triangle_count(g.n, g.edges) == count

    def test_labels_recomputable_exactly(self):
        task = make_toy_task(seed=12, n_graphs=5, nodes_per_graph=6)
        for g, label in task.train + task.test:
            expected = 0.25 * triangle_count(g.n, g.edges) + g.node_features.sum() / g.n
            assert label == expected

    def test_edgeless_graph_label_is_feature_term(self):
        g = GraphInstance(n=3, node_features=np.arange(6.0).reshape(3, 2), edges=[])
        assert toy_label(g) == pytest.approx(15.0 / 3.0)

    def test_same_seed_bitwise_identical(self):
        a = make_toy_task(seed=13, n_graphs=4, nodes_per_graph=5)
        b = make_toy_task(seed=13, n_graphs=4, nodes_per_graph=5)
        for (ga, la), (gb, lb) in zip(a.train + a.test, b.train + b.test):
            assert la == lb
            assert np.array_equal(ga.node_features, gb.node_features)
            assert ga.edges == gb.edges

    def test_split_sizes(self):
        task = make_toy_task(seed=14, n_graphs=8, nodes_per_graph=5)
        assert len(task.train) == 6
        assert len(task.test) == 2

    def test_two_graphs_split_one_and_one_in_draw_order(self):
        pair = make_toy_task(seed=14, n_graphs=2, nodes_per_graph=5)
        assert (len(pair.train), len(pair.test)) == (1, 1)
        more = make_toy_task(seed=14, n_graphs=4, nodes_per_graph=5)
        for (got, label), (want, want_label) in zip(pair.train + pair.test, more.train):
            assert label == want_label and got.edges == want.edges
            assert np.array_equal(got.node_features, want.node_features)
        for n_graphs in range(3, 30):
            task = make_toy_task(seed=14, n_graphs=n_graphs, nodes_per_graph=2)
            assert len(task.train) == max(1, round(0.75 * n_graphs)), n_graphs

    def test_edges_are_symmetric(self):
        task = make_toy_task(seed=15, n_graphs=3, nodes_per_graph=6)
        for g, _ in task.train:
            pairs = set(g.edges)
            assert all((b, a) in pairs for a, b in pairs)


# Rejections that no other test reaches: each raise statement's type and text.
@pytest.mark.parametrize("make, error, message", [
    pytest.param(lambda: RankExpConfig(seeds=()), ValueError, "at least one seed required",
                 id="no-seeds"),
    pytest.param(lambda: make_toy_task(seed=0, n_graphs=1), ValueError,
                 "need at least 2 graphs and 1 node per graph", id="one-graph"),
])
def test_each_rejection_gives_its_type_and_text(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error and str(info.value) == message
