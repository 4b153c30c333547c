import pytest

from siggate.cli import main
from siggate.config import ConfigError, RunConfig, parse_config_text
from siggate.gps import init_model, model_forward, write_graph
from siggate.numeric import SeededRng
from siggate.attention import GateConfig
from siggate.diagnostics import depth_profile, gate_stats, trace_gate_values
from siggate.synthexp import make_toy_task
from siggate.training import save_model

FAST_RANK = """
experiment.n = 16
experiment.d = 32
experiment.heads = 4
experiment.d_k = 8
experiment.seeds = 0, 1
"""

TINY_TRAIN = """
model.layers = 1
model.d = 8
model.heads = 2
training.epochs = 3
task.n_graphs = 6
task.nodes = 5
"""


def run_cli(*argv):
    return main(list(argv))


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestConfigParsing:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg["experiment.n"] == 64
        assert cfg["experiment.seeds"] == (0, 1, 2, 3, 4)
        assert cfg["model.placement"] == "g1"
        # the five-point lr protocol is the default sweep grid
        assert cfg["training.lrs"] == (5e-4, 1e-3, 2e-3, 3e-3, 5e-3)

    def test_overrides_and_lists(self):
        cfg = parse_config_text("experiment.seeds = 3,4 , 5\ntraining.lr = 2e-3\n")
        assert cfg["experiment.seeds"] == (3, 4, 5)
        assert cfg["training.lr"] == 2e-3

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# a comment\n\nmodel.d = 32\n")
        assert cfg["model.d"] == 32

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match=r"cfg:3: unknown configuration key"):
            parse_config_text("# ok\nmodel.d = 8\nmodel.dd = 8\n", source="cfg")

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError, match=r"cfg:1: expected 'key = value'"):
            parse_config_text("model.d 8\n", source="cfg")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config_text("model.d = 8\nmodel.d = 9\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError, match=r"cfg:2: bad value"):
            parse_config_text("model.d = 8\ntraining.lr = fast\n", source="cfg")

    def test_bad_choice_rejected(self):
        with pytest.raises(ConfigError, match="expected one of"):
            parse_config_text("model.placement = g4\n")

    def test_render_round_trip_is_lossless(self):
        cfg = parse_config_text(FAST_RANK + "experiment.robustness = true\n")
        again = parse_config_text(cfg.render())
        assert cfg.as_dict() == again.as_dict()


class TestRankExpCommand:
    def test_default_band_pass_and_outputs(self, tmp_path):
        # the full default configuration must clear its own acceptance bands
        out = tmp_path / "out"
        code = run_cli("rank-exp", "--out", str(out))
        assert code == 0
        seeds = (out / "rank_seeds.csv").read_text().strip().splitlines()
        assert seeds[0] == "config_id,c,rho,seed,srank_ungated,srank_gated,rel_gain"
        assert len(seeds) == 6  # header + 5 seeds
        assert (out / "rank_aggregate.csv").exists()
        assert (out / "resolved_config.txt").exists()

    def test_miniature_config_still_writes_outputs(self, tmp_path):
        # small dimensions fall outside the default-size gain bands (exit 1)
        # but the data products are written all the same
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FAST_RANK)
        out = tmp_path / "out"
        code = run_cli("rank-exp", "--config", str(cfg), "--out", str(out))
        assert code in (0, 1)
        seeds = (out / "rank_seeds.csv").read_text().strip().splitlines()
        assert len(seeds) == 3  # header + 2 seeds

    def test_single_seed_single_row(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("experiment.seeds = 0\n")
        out = tmp_path / "out"
        assert run_cli("rank-exp", "--config", str(cfg), "--out", str(out)) == 0
        assert len((out / "rank_seeds.csv").read_text().strip().splitlines()) == 2
        # gains are printed in signed +x.xx% form
        import re

        assert re.search(r"[+-]\d+\.\d{2}%", capsys.readouterr().out)

    def test_seed_override(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FAST_RANK)
        out = tmp_path / "out"
        code = run_cli("rank-exp", "--config", str(cfg), "--out", str(out),
                       "--seed-override", "7")
        assert code in (0, 1)
        rows = (out / "rank_seeds.csv").read_text().strip().splitlines()
        assert len(rows) == 2
        assert rows[1].split(",")[3] == "7"

    def test_band_failure_exits_one(self, tmp_path):
        # a near-constant gate cannot move the stable rank by 5..9%
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FAST_RANK + "experiment.target_gate_std = 0.01\n")
        out = tmp_path / "out"
        assert run_cli("rank-exp", "--config", str(cfg), "--out", str(out)) == 1

    def test_malformed_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("experiment.n 16\n")
        assert run_cli("rank-exp", "--config", str(cfg), "--out", str(tmp_path)) == 2
        assert "expected 'key = value'" in capsys.readouterr().err

    def test_missing_config_exits_two(self, tmp_path):
        assert run_cli("rank-exp", "--config", str(tmp_path / "nope.txt"),
                       "--out", str(tmp_path)) == 2

    def test_rerun_is_bitwise_identical(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FAST_RANK + "experiment.robustness = true\n"
                       "experiment.c_sweep = 0.5, 1.0\n"
                       "experiment.rho_sweep = 0.2\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli("rank-exp", "--config", str(cfg), "--out", str(out1))
        run_cli("rank-exp", "--config", str(cfg), "--out", str(out2))
        for name in ("rank_seeds.csv", "rank_aggregate.csv",
                     "robustness_seeds.csv", "robustness_aggregate.csv",
                     "resolved_config.txt"):
            assert read(out1 / name) == read(out2 / name), name

    def test_rerun_from_echoed_config_reproduces_outputs(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FAST_RANK)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli("rank-exp", "--config", str(cfg), "--out", str(out1))
        run_cli("rank-exp", "--config", str(out1 / "resolved_config.txt"),
                "--out", str(out2))
        assert read(out1 / "rank_seeds.csv") == read(out2 / "rank_seeds.csv")

    def test_parallel_matches_serial(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FAST_RANK)
        out1, out2 = tmp_path / "serial", tmp_path / "par"
        run_cli("rank-exp", "--config", str(cfg), "--out", str(out1))
        run_cli("rank-exp", "--config", str(cfg), "--out", str(out2),
                "--parallel", "2")
        assert read(out1 / "rank_seeds.csv") == read(out2 / "rank_seeds.csv")


class TestGradCheckCommand:
    def test_sampled_run_passes(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("gradcheck.exhaustive = false\ngradcheck.samples = 5\n"
                       "gradcheck.placements = none, g1\n"
                       "gradcheck.activations = sigmoid\n")
        out = tmp_path / "out"
        assert run_cli("grad-check", "--config", str(cfg), "--out", str(out)) == 0
        report = (out / "gradcheck_report.csv").read_text().strip().splitlines()
        assert len(report) == 3  # header + none + g1/sigmoid
        assert report[1].endswith("pass")


class TestTrainingCommands:
    def test_ablate_matrix_shape(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(TINY_TRAIN)
        out = tmp_path / "out"
        assert run_cli("ablate", "--config", str(cfg), "--out", str(out)) == 0
        rows = (out / "ablation.csv").read_text().strip().splitlines()
        # header + collapsed ungated row + 3 placements x 2 sharings x 4 activations
        assert len(rows) == 1 + 1 + 24
        assert rows[1].startswith("none,-,-")

    def test_ablate_cell_matches_standalone_run(self, tmp_path):
        from siggate.training import TrainConfig, train_toy

        cfg = tmp_path / "cfg.txt"
        cfg.write_text(TINY_TRAIN)
        out = tmp_path / "out"
        run_cli("ablate", "--config", str(cfg), "--out", str(out))
        rows = (out / "ablation.csv").read_text().strip().splitlines()
        cell = next(r for r in rows if r.startswith("g1,per_head,sigmoid"))
        recorded = float(cell.split(",")[4])
        task = make_toy_task(seed=0, n_graphs=6, nodes_per_graph=5, feature_dim=4)
        history = train_toy(
            TrainConfig(lr=1e-3, weight_decay=1e-5, epochs=3, seed=0, loss="mae",
                        n_layers=1, d=8, n_heads=2, gate=GateConfig(placement="g1")),
            task,
        )
        assert recorded == history.final_train_loss

    def test_lr_sweep_rows_and_ranges(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(TINY_TRAIN + "training.lrs = 0.0, 1e-3\n")
        out = tmp_path / "out"
        assert run_cli("lr-sweep", "--config", str(cfg), "--out", str(out)) == 0
        rows = (out / "lr_sweep.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 4  # 2 models x 2 lrs
        summary = (out / "lr_sweep_summary.csv").read_text().strip().splitlines()
        assert summary[0] == "model,n_completed,loss_min,loss_max,range"
        gated = summary[1].split(",")
        assert gated[0] == "gated" and gated[1] == "2"
        lo, hi, rng_ = float(gated[2]), float(gated[3]), float(gated[4])
        assert rng_ == pytest.approx(hi - lo, abs=1e-15)

    def test_lr_zero_cell_keeps_initial_loss(self, tmp_path):
        from siggate.training import TrainConfig, train_toy

        cfg = tmp_path / "cfg.txt"
        cfg.write_text(TINY_TRAIN + "training.lrs = 0.0\n")
        out = tmp_path / "out"
        run_cli("lr-sweep", "--config", str(cfg), "--out", str(out))
        rows = (out / "lr_sweep.csv").read_text().strip().splitlines()
        gated_row = next(r for r in rows if r.startswith("gated,0,"))
        final_train = float(gated_row.split(",")[3])
        task = make_toy_task(seed=0, n_graphs=6, nodes_per_graph=5, feature_dim=4)
        history = train_toy(
            TrainConfig(lr=0.0, weight_decay=1e-5, epochs=3, seed=0, loss="mae",
                        n_layers=1, d=8, n_heads=2, gate=GateConfig(placement="g1")),
            task,
        )
        assert final_train == history.losses[0]


class TestDiagnoseCommand:
    def test_round_trip_matches_in_memory(self, tmp_path):
        model = init_model(SeededRng(5), d_in=4, d=16, n_heads=4, n_layers=2,
                           gate=GateConfig())
        task = make_toy_task(seed=1, n_graphs=2, nodes_per_graph=6)
        graph = task.train[0][0]
        model_path = tmp_path / "model.txt"
        graph_path = tmp_path / "graph.txt"
        save_model(model, model_path)
        write_graph(graph, graph_path)
        out = tmp_path / "out"
        assert run_cli("diagnose", "--model", str(model_path),
                       "--graph", str(graph_path), "--out", str(out)) == 0
        rows = (out / "diagnostics.csv").read_text().strip().splitlines()
        _, trace = model_forward(graph, model)
        profile = depth_profile(trace)
        per_layer = gate_stats(trace_gate_values(trace), "per_layer")
        cells = rows[1].split(",")
        assert float(cells[1]) == profile.mad[0]
        assert float(cells[2]) == profile.entropy[0]
        assert float(cells[3]) == per_layer[0].mean
        assert (out / "diagnostics.json").exists()

    def test_bad_model_file_exits_two(self, tmp_path):
        bad = tmp_path / "model.txt"
        bad.write_text("# siggate-model\nnot a parameter line\n")
        graph = tmp_path / "graph.txt"
        task = make_toy_task(seed=1, n_graphs=2, nodes_per_graph=4)
        write_graph(task.train[0][0], graph)
        assert run_cli("diagnose", "--model", str(bad), "--graph", str(graph),
                       "--out", str(tmp_path)) == 2


    def test_non_finite_graph_exits_two(self, tmp_path, capsys):
        model = init_model(SeededRng(5), d_in=2, d=8, n_heads=2, n_layers=1,
                           gate=GateConfig())
        model_path = tmp_path / "model.txt"
        save_model(model, model_path)
        graph = tmp_path / "graph.txt"
        graph.write_text("2 2 0\n1.0 nan\n0.5 0.5\n1\n0 1\n")
        assert run_cli("diagnose", "--model", str(model_path), "--graph", str(graph),
                       "--out", str(tmp_path / "out")) == 2
        assert "node row 0 has a non-finite value" in capsys.readouterr().err
        assert not (tmp_path / "out" / "diagnostics.csv").exists()


class TestParamCountCommand:
    def test_reference_scale_gate_counts(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("model.d = 256\nmodel.heads = 8\nmodel.layers = 5\n")
        assert run_cli("param-count", "--config", str(cfg), "--out", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "gate params: 328960" in out

        cfg.write_text("model.d = 64\nmodel.heads = 8\nmodel.layers = 10\n")
        run_cli("param-count", "--config", str(cfg), "--out", str(tmp_path))
        assert "gate params: 41600" in capsys.readouterr().out

    @pytest.mark.parametrize("sharing", ["per_head", "shared"])
    @pytest.mark.parametrize("placement", ["g1", "g2", "g3"])
    def test_gate_count_is_what_the_gate_adds(self, tmp_path, capsys, placement, sharing):
        def counts(placement):
            cfg = tmp_path / f"{placement}.txt"
            cfg.write_text(f"model.placement = {placement}\nmodel.sharing = {sharing}\n")
            assert run_cli("param-count", "--config", str(cfg), "--out", str(tmp_path)) == 0
            lines = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
            return int(lines["total params"]), int(lines["gate params"]), lines["gate fraction"]

        total, gate, fraction = counts(placement)
        ungated, no_gate, _ = counts("none")
        assert no_gate == 0
        assert gate == total - ungated > 0
        assert fraction == f"{gate / total:.4%}"

    def test_zero_layers_warns(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("model.layers = 0\n")
        assert run_cli("param-count", "--config", str(cfg), "--out", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "warning" in out
        assert "gate params: 0" in out

    @pytest.mark.parametrize("heads", [0, -2])
    def test_non_positive_heads_exit_two(self, tmp_path, capsys, heads):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"model.heads = {heads}\n")
        assert run_cli("param-count", "--config", str(cfg), "--out", str(tmp_path)) == 2
        assert f"model.heads must be >= 1, got {heads}" in capsys.readouterr().err

    def test_usage_error_exits_two(self):
        assert run_cli("no-such-command") == 2
