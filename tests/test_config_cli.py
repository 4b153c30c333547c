import warnings

import pytest

import siggate.cli as cli
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

    def test_cli_builders_give_the_api_defaults(self, monkeypatch):
        # config.SCHEMA restates these defaults; a drift on either side fails here.
        from inspect import signature

        from siggate.gps import model_skeleton
        from siggate.synthexp import RankExpConfig
        from siggate.training import TrainConfig, finite_difference_check

        def defaults(fn):
            return {name: p.default for name, p in signature(fn).parameters.items()
                    if p.default is not p.empty}

        cfg = RunConfig()
        assert cli._gate_config(cfg) == GateConfig()
        assert cli._train_config(cfg, cli._gate_config(cfg)) == TrainConfig()
        assert cli._rank_config(cfg) == RankExpConfig()
        assert cfg["model.out_dim"] == defaults(model_skeleton)["out_dim"]
        check_kwargs, task_kwargs = {}, {}
        monkeypatch.setattr(cli, "finite_difference_check",
                            lambda *args, **kw: check_kwargs.update(kw))
        cli._gradcheck_one(("none", "-", cfg))
        fd = defaults(finite_difference_check)
        assert (check_kwargs["h"], check_kwargs["seed"]) == (fd["h"], fd["seed"])
        assert cfg["gradcheck.samples"] == fd["sample"]  # the sampled check's count
        monkeypatch.setattr(cli, "make_toy_task", lambda **kw: task_kwargs.update(kw))
        cli._task(cfg)
        assert {k: task_kwargs[k] for k in defaults(make_toy_task)} == defaults(make_toy_task)

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

    def test_uncalibratable_gate_target_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FAST_RANK + "experiment.target_gate_std = 0.47\n")
        out = tmp_path / "out"
        assert run_cli("rank-exp", "--config", str(cfg), "--out", str(out)) == 2
        assert capsys.readouterr() == ("", "error: calibrate_gate: targets (mean 0.58, std "
                                           "0.47) are missed by a moment residual of 0.00382 "
                                           "> 1e-12 (the std's Bernoulli limit is 0.493559)\n")
        assert list(out.iterdir()) == []

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

    @pytest.mark.parametrize("setting, message", [
        ("experiment.c = nan", "error: c must be positive and finite, got nan"),
        ("experiment.c = inf", "error: c must be positive and finite, got inf"),
        ("experiment.target_gate_std = nan", "error: target std nan infeasible at mean 0.58"),
        ("experiment.robustness = true\nexperiment.c_sweep = 0.5, nan",
         "error: sweep cell c_nan: c must be positive and finite, got nan"),
        ("experiment.robustness = true\nexperiment.rho_sweep = 0.2, nan",
         "error: sweep cell rho_nan: rho must lie in [0, 1), got nan"),
    ])
    def test_non_finite_setting_exits_two(self, tmp_path, capsys, setting, message):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FAST_RANK + setting + "\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("rank-exp", "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not (out / "robustness_seeds.csv").exists()

    @pytest.mark.parametrize("setting, message", [
        ("experiment.heads = -8\nexperiment.d_k = -32", "error: n_heads must be >= 1, got -8"),
        ("experiment.d = -256\nexperiment.d_k = -32", "error: d must be >= 1, got -256"),
    ], ids=["heads", "d"])
    def test_non_positive_size_exits_two(self, tmp_path, capsys, setting, message):
        # Both pass the d_k * n_heads == d check; neither may reach the seed loop.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(setting + "\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli("rank-exp", "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err == message + "\n"
        assert list(out.iterdir()) == []

    def test_each_seed_is_drawn_once_for_the_default_and_the_sweep(self, tmp_path,
                                                                    monkeypatch):
        import siggate.synthexp as synthexp

        seeds = []
        real = synthexp._run_seed

        def counted(args):
            seeds.append(args[2])
            return real(args)

        monkeypatch.setattr(synthexp, "_run_seed", counted)
        cfg = tmp_path / "cfg.txt"
        for robustness in ("false", "true"):
            cfg.write_text(FAST_RANK + f"experiment.robustness = {robustness}\n")
            run_cli("rank-exp", "--config", str(cfg), "--out", str(tmp_path / robustness))
            assert seeds == [0, 1]
            seeds.clear()
        for name in ("rank_seeds.csv", "rank_aggregate.csv"):  # the sweep moves no default value
            assert read(tmp_path / "false" / name) == read(tmp_path / "true" / name), name

    def test_parallel_matches_serial(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FAST_RANK)
        out1, out2 = tmp_path / "serial", tmp_path / "par"
        run_cli("rank-exp", "--config", str(cfg), "--out", str(out1))
        run_cli("rank-exp", "--config", str(cfg), "--out", str(out2),
                "--parallel", "2")
        assert read(out1 / "rank_seeds.csv") == read(out2 / "rank_seeds.csv")

    def test_parallel_sweep_matches_serial(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FAST_RANK + "experiment.robustness = true\n")
        out1, out2 = tmp_path / "serial", tmp_path / "par"
        run_cli("rank-exp", "--config", str(cfg), "--out", str(out1))
        run_cli("rank-exp", "--config", str(cfg), "--out", str(out2), "--parallel", "2")
        for name in ("rank_seeds.csv", "rank_aggregate.csv",
                     "robustness_seeds.csv", "robustness_aggregate.csv"):
            assert read(out1 / name) == read(out2 / name), name


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

    @pytest.mark.parametrize("samples", [0, -3])
    def test_sample_count_below_one_exits_two(self, tmp_path, capsys, samples):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"gradcheck.exhaustive = false\ngradcheck.samples = {samples}\n"
                       "gradcheck.placements = none\n")
        out = tmp_path / "out"
        assert run_cli("grad-check", "--config", str(cfg), "--out", str(out)) == 2
        assert f"gradcheck.samples must be >= 1 when gradcheck.exhaustive is false, got " \
               f"{samples}" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("text, key", [
        ("gradcheck.placements =\n", "gradcheck.placements"),
        ("gradcheck.placements = g1, g3\ngradcheck.activations =\n", "gradcheck.activations"),
    ])
    def test_no_cell_to_check_exits_two(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert run_cli("grad-check", "--config", str(cfg), "--out", str(out)) == 2
        assert f"{key} selects no grad-check cell" in capsys.readouterr().err
        assert list(out.iterdir()) == []


    @pytest.mark.parametrize("tolerance", ["nan", "-1", "inf", "0"])
    def test_tolerance_not_finite_and_positive_exits_two(self, tmp_path, capsys, monkeypatch,
                                                          tolerance):
        import siggate.cli as cli

        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(cli, "finite_difference_check", no_cell)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"gradcheck.tolerance = {tolerance}\ngradcheck.placements = none\n")
        out = tmp_path / "out"
        assert run_cli("grad-check", "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "gradcheck.tolerance must be finite and > 0, got " in err
        assert "Traceback" not in err
        assert list(out.iterdir()) == []

    def test_cells_run_and_rows_keep_cell_order(self, tmp_path, capsys, monkeypatch):
        import siggate.cli as cli

        ran = []
        real = cli._gradcheck_one

        def recorded(args):
            ran.append(args[:2])
            return real(args)

        monkeypatch.setattr(cli, "_gradcheck_one", recorded)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("gradcheck.exhaustive = false\ngradcheck.samples = 3\n"
                       "gradcheck.activations = sigmoid, relu\n")
        out = tmp_path / "out"
        assert run_cli("grad-check", "--config", str(cfg), "--out", str(out)) == 0
        cells = [("none", "-")] + [(p, a) for p in ("g1", "g2", "g3") for a in ("sigmoid", "relu")]
        assert ran == cells
        rows = (out / "gradcheck_report.csv").read_text().splitlines()[1:]
        assert [tuple(row.split(",")[:2]) for row in rows] == cells
        printed = [line.split()[1] for line in capsys.readouterr().out.splitlines()
                   if line.startswith("grad-check ")]
        assert printed == [f"{p}/{a}" for p, a in cells]

    @pytest.mark.parametrize("setting, cell, op", [
        ("model.bias_init = 1e308\ngradcheck.placements = g3", "g3/relu",
         "layer 1: row 8 has largest logit inf; softmax undefined"),
        ("model.readout = sum\nmodel.bias_init = 1e300\ngradcheck.placements = g1", "g1/relu",
         "layer 0: layer_norm: row 0 has an infinite standard deviation (its variance overflows)"),
    ], ids=["logits-overflow", "sum-readout-layer-norm"])
    def test_non_finite_forward_exits_two(self, tmp_path, capsys, setting, cell, op):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(setting + "\ngradcheck.activations = relu\n"
                       "gradcheck.exhaustive = false\ngradcheck.samples = 2\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("grad-check", "--config", str(cfg), "--out", str(out)) == 2
        assert capsys.readouterr().err == (f"error: grad-check cell {cell}: {op}; "
                                           f"every parameter is finite\n")
        assert list(out.iterdir()) == []

    def test_each_cell_builds_its_model_once(self, tmp_path, monkeypatch):
        built = []
        real = cli.init_model

        def counted(*args, **kwargs):
            built.append(kwargs["gate"].placement)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "init_model", counted)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("gradcheck.exhaustive = false\ngradcheck.samples = 1\n")
        out = tmp_path / "out"
        assert run_cli("grad-check", "--config", str(cfg), "--out", str(out),
                       "--parallel", "1") == 0
        assert len((out / "gradcheck_report.csv").read_text().splitlines()) == 1 + 13
        assert sorted(built) == sorted(["none"] + ["g1", "g2", "g3"] * 4)


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

    def test_cell_history_is_the_training_history_file(self, tmp_path):
        from siggate.training import TrainConfig, train_toy, write_history_csv

        cfg = tmp_path / "cfg.txt"
        cfg.write_text(TINY_TRAIN + "training.lrs = 1e-3\n")
        out = tmp_path / "out"
        assert run_cli("lr-sweep", "--config", str(cfg), "--out", str(out)) == 0
        task = make_toy_task(seed=0, n_graphs=6, nodes_per_graph=5, feature_dim=4)
        history = train_toy(
            TrainConfig(lr=1e-3, weight_decay=1e-5, epochs=3, seed=0, loss="mae",
                        n_layers=1, d=8, n_heads=2, gate=GateConfig(placement="g1")),
            task,
        )
        write_history_csv(history, tmp_path / "expected.csv")
        assert read(out / "histories" / "gated_0.001.csv") == read(tmp_path / "expected.csv")

    @pytest.mark.parametrize("command", ["ablate", "lr-sweep"])
    def test_two_graph_task_splits_one_and_one(self, tmp_path, capsys, monkeypatch, command):
        import siggate.cli as cli

        splits = set()
        real = cli.train_toy

        def recorded(cfg, task):
            splits.add((len(task.train), len(task.test)))
            return real(cfg, task)

        monkeypatch.setattr(cli, "train_toy", recorded)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(TINY_TRAIN.replace("task.n_graphs = 6", "task.n_graphs = 2"))
        out = tmp_path / "out"
        assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 0
        assert splits == {(1, 1)}
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ablate", "lr-sweep"])
    def test_parallel_tree_matches_serial(self, tmp_path, command):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(TINY_TRAIN + "training.lrs = 1e-3, 1e6\n")
        trees = []
        for parallel in ("1", "2"):
            out = tmp_path / parallel
            assert run_cli(command, "--config", str(cfg), "--out", str(out),
                           "--parallel", parallel) == 0
            trees.append({str(p.relative_to(out)): read(p)
                          for p in sorted(out.rglob("*")) if p.is_file()})
        assert trees[0] == trees[1]
        assert sum(name.startswith("histories") for name in trees[0]) == \
            {"ablate": 25, "lr-sweep": 2}[command]

    def test_diverged_cell_writes_no_history(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(TINY_TRAIN + "training.lrs = 1e-3, 1e6\n")
        out = tmp_path / "out"
        assert run_cli("lr-sweep", "--config", str(cfg), "--out", str(out)) == 0
        rows = [r.split(",") for r in (out / "lr_sweep.csv").read_text().splitlines()[1:]]
        assert [r[2] for r in rows] == ["ok", "diverged@1", "ok", "diverged@1"]
        assert rows[1][3:] == ["nan"] * 6
        assert sorted(p.name for p in (out / "histories").iterdir()) == \
            ["gated_0.001.csv", "ungated_0.001.csv"]

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


def tree(out):
    return {str(p.relative_to(out)): read(p) for p in sorted(out.rglob("*")) if p.is_file()}


class TestKilledWorker:
    """A pool worker that dies mid-run ends the command with exit 3 and one
    stderr line, and the run writes nothing: workers write no file, and the
    parent writes every output only once all cells have returned."""

    CFG = TINY_TRAIN + "training.lrs = 1e-3\n"

    @staticmethod
    def kill_gated_cell(monkeypatch):
        import os
        import time

        real = cli.train_toy

        def dying(cfg, task):  # the forked worker inherits this patch
            if cfg.gate.placement != "none":
                time.sleep(0.2)  # time for the other cell to end (and write, were it to)
                os._exit(1)
            return real(cfg, task)

        monkeypatch.setattr(cli, "train_toy", dying)

    def run(self, tmp_path, out, *parallel):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(self.CFG)
        return run_cli("lr-sweep", "--config", str(cfg), "--out", str(out), *parallel)

    def test_exits_three_with_one_line(self, tmp_path, capfd, monkeypatch):
        self.kill_gated_cell(monkeypatch)
        out = tmp_path / "out"
        assert self.run(tmp_path, out, "--parallel", "2") == 3
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: lr-sweep: a worker process died before every cell "
                                "had returned; this run wrote no output\n")
        assert list(out.iterdir()) == []

    def test_a_killed_rerun_leaves_the_first_runs_files(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        assert self.run(tmp_path, out) == 0
        first = tree(out)
        assert sorted(first) == ["histories/gated_0.001.csv", "histories/ungated_0.001.csv",
                                 "lr_sweep.csv", "lr_sweep_summary.csv", "resolved_config.txt"]
        written = {name: (out / name).stat().st_mtime_ns for name in first}
        self.kill_gated_cell(monkeypatch)
        assert self.run(tmp_path, out, "--parallel", "2") == 3
        assert tree(out) == first
        assert {name: (out / name).stat().st_mtime_ns for name in first} == written


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


    @pytest.mark.parametrize("graph_text, size, got, want", [
        ("2 3 0\n1.0 0.5 0.25\n0.5 0.5 0.5\n1\n0 1\n", "d_in", 3, 4),
        ("2 4 2\n1 0 0 0\n0 1 0 0\n1\n0 1 0.5 -0.5\n", "d_e", 2, 0),
    ], ids=["node-features", "edge-features"])
    def test_graph_widths_off_the_model_name_both_files(self, tmp_path, capsys, graph_text,
                                                        size, got, want):
        # The model is a d_in = 4, d_e = 0 dump.
        model = init_model(SeededRng(5), d_in=4, d=8, n_heads=2, n_layers=1,
                           gate=GateConfig())
        model_path = tmp_path / "model.txt"
        save_model(model, model_path)
        graph = tmp_path / "graph.txt"
        graph.write_text(graph_text)
        assert run_cli("diagnose", "--model", str(model_path), "--graph", str(graph),
                       "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert (f"graph {graph} has {size} = {got}, but model {model_path} expects "
                f"{size} = {want}") in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "diagnostics.csv").exists()

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

    def test_negative_edge_count_exits_two(self, tmp_path, capsys):
        model = init_model(SeededRng(5), d_in=2, d=8, n_heads=2, n_layers=1,
                           gate=GateConfig())
        model_path = tmp_path / "model.txt"
        save_model(model, model_path)
        graph = tmp_path / "graph.txt"
        graph.write_text("3 2 0\n1 0\n0 1\n1 1\n-1\n")
        assert run_cli("diagnose", "--model", str(model_path), "--graph", str(graph),
                       "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr() == ("", f"error: malformed graph file {graph}: the edge "
                                           "count '-1' is negative\n")
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("edge_rows, message", [
        ("1\n0 7\n", "edge row 0 joins (0, 7), outside nodes 0..2"),
        ("2\n0 1\n-1 2\n", "edge row 1 joins (-1, 2), outside nodes 0..2"),
    ], ids=["past-n", "negative"])
    def test_edge_off_the_nodes_names_the_file_and_row(self, tmp_path, capsys, edge_rows,
                                                       message):
        model = init_model(SeededRng(5), d_in=2, d=8, n_heads=2, n_layers=1,
                           gate=GateConfig())
        model_path = tmp_path / "model.txt"
        save_model(model, model_path)
        graph = tmp_path / "graph.txt"
        graph.write_text("3 2 0\n1 0\n0 1\n1 1\n" + edge_rows)
        assert run_cli("diagnose", "--model", str(model_path), "--graph", str(graph),
                       "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert f"malformed graph file {graph}: {message}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "diagnostics.csv").exists()


    @pytest.mark.parametrize("param, row, edit, message", [
        ("layer0.ffn.w1", 3, "cut", "row 3: the file ends after 3 of 8 rows"),
        ("head.b", 0, "nan", "row 0 has a non-finite value"),
        ("layer0.ffn.b2", 0, "inf", "row 0 has a non-finite value"),
        # Records the metadata does not imply: the first one is named. (row
        # None: ``edit`` replaces a metadata line or is appended.)
        pytest.param("layer0.attn.head0.w_g", None, "# placement = none",
                     "is not in the model its metadata describes", id="gated-records-ungated"),
        pytest.param("layer1.attn.head0.w_q", None, "# n_layers = 1",
                     "is not in the model its metadata describes", id="more-layers-than-meta"),
        pytest.param("layer9.bogus", None, "layer9.bogus 1 2\n0.5 0.5",
                     "is not in the model its metadata describes", id="unknown-record"),
        pytest.param("head.b", None, "head.b 1 1\n0.5", "appears twice", id="repeated-record"),
    ])
    def test_bad_dump_value_exits_two(self, tmp_path, capsys, param, row, edit, message):
        model = init_model(SeededRng(5), d_in=2, d=8, n_heads=2, n_layers=2,
                           gate=GateConfig())
        model_path = tmp_path / "model.txt"
        save_model(model, model_path)
        lines = model_path.read_text().splitlines()
        if row is None and edit.startswith("#"):
            key = edit.split("=")[0]
            lines = [edit if ln.startswith(key) else ln for ln in lines]
        elif row is None:
            lines += edit.split("\n")
        else:
            at = next(i for i, ln in enumerate(lines) if ln.split()[0] == param) + 1 + row
            if edit == "cut":
                lines = lines[:at]
            else:
                lines[at] = " ".join([edit] + lines[at].split()[1:])
        model_path.write_text("\n".join(lines) + "\n")
        graph = tmp_path / "graph.txt"
        graph.write_text("2 2 0\n1.0 0.5\n0.5 0.5\n1\n0 1\n")
        assert run_cli("diagnose", "--model", str(model_path), "--graph", str(graph),
                       "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert f"model dump {model_path}: parameter '{param}' {message}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "diagnostics.csv").exists()


    @staticmethod
    def _edited_dump(tmp_path, edit):
        model = init_model(SeededRng(5), d_in=2, d=8, n_heads=2, n_layers=1,
                           gate=GateConfig())
        model_path = tmp_path / "model.txt"
        save_model(model, model_path)
        lines = model_path.read_text().splitlines()
        model_path.write_text("\n".join(edit(lines)) + "\n")
        graph = tmp_path / "graph.txt"
        graph.write_text("2 2 0\n1.0 0.5\n0.5 0.5\n1\n0 1\n")
        return model_path, graph

    def test_overflowing_forward_exits_two(self, tmp_path, capsys):
        # b2 = 1e308 overflows layer norm's variance, which turns every hidden
        # row into exact zeros, not NaN: only the forward pass can see it.
        def edit(lines):
            at = lines.index("layer0.ffn.b2 1 8") + 1
            lines[at] = " ".join(["1e308"] + lines[at].split()[1:])
            return lines

        model_path, graph = self._edited_dump(tmp_path, edit)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli("diagnose", "--model", str(model_path), "--graph", str(graph),
                           "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert (f"forward pass of {model_path} on {graph} is not finite: layer 0: "
                f"overflow encountered in square\n") in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "diagnostics.csv").exists()

    @pytest.mark.parametrize("param, header, keep, found, expected", [
        ("layer0.ffn.b2", "1 7", slice(0, 1), (1, 7), (1, 8)),
        ("head.w", "7 1", slice(0, 7), (7, 1), (8, 1)),
    ])
    def test_misshapen_parameter_exits_two(self, tmp_path, capsys, param, header, keep,
                                           found, expected):
        # Each record is self-consistent; only the dump's metadata (d = 8) rules it out.
        def edit(lines):
            at = next(i for i, ln in enumerate(lines) if ln.split()[0] == param)
            rows = int(lines[at].split()[1])
            body = lines[at + 1:at + 1 + rows][keep]
            if param == "layer0.ffn.b2":
                body = [" ".join(body[0].split()[:7])]
            return lines[:at] + [f"{param} {header}"] + body + lines[at + 1 + rows:]

        model_path, graph = self._edited_dump(tmp_path, edit)
        assert run_cli("diagnose", "--model", str(model_path), "--graph", str(graph),
                       "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert (f"model dump {model_path}: parameter '{param}' has shape {found}, "
                f"expected {expected}") in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "diagnostics.csv").exists()


    @pytest.mark.parametrize("record, graph_text, message", [
        ("input.w 1000000000 1000000000", None,
         "parameter 'input.w' row 0 has 8 values, expected 1000000000"),
        ("input.w 1 1000000000000", None,
         "parameter 'input.w' row 0 has 8 values, expected 1000000000000"),
        (None, "1000000000 1000000000 0\n1.0 0.5\n1\n0 1\n",
         "node row 0 has 2 values, expected 1000000000"),
    ])
    def test_huge_sizes_in_a_header_exit_two(self, tmp_path, capsys, record, graph_text,
                                             message):
        # Nothing is allocated for rows the file does not hold.
        model_path, graph = self._edited_dump(
            tmp_path, lambda lines: [record if record and ln == "input.w 2 8" else ln
                                     for ln in lines])
        if graph_text:
            graph.write_text(graph_text)
        assert run_cli("diagnose", "--model", str(model_path), "--graph", str(graph),
                       "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert str(graph if graph_text else model_path) in err and message in err
        assert "Traceback" not in err

    def test_malformed_metadata_exits_two(self, tmp_path, capsys):
        model_path, graph = self._edited_dump(
            tmp_path, lambda lines: ["# d = eight" if ln == "# d = 8" else ln for ln in lines])
        assert run_cli("diagnose", "--model", str(model_path), "--graph", str(graph),
                       "--out", str(tmp_path / "out")) == 2
        assert f"model dump {model_path} has malformed metadata" in capsys.readouterr().err


class FakeExecutor:
    """A process pool stand-in: records each pool's worker count, maps in process."""

    workers: list = []

    def __init__(self, max_workers):
        self.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class TestParallelOption:
    @pytest.fixture
    def pools(self, monkeypatch):
        monkeypatch.setattr(FakeExecutor, "workers", [])
        monkeypatch.setattr(cli, "ProcessPoolExecutor", FakeExecutor)
        return FakeExecutor.workers

    GRAD_TWO_CELLS = ("gradcheck.exhaustive = false\ngradcheck.samples = 1\n"
                      "gradcheck.placements = none, g1\ngradcheck.activations = sigmoid\n")

    @pytest.mark.parametrize("command, text, tasks", [
        ("grad-check", GRAD_TWO_CELLS, 2),
        ("rank-exp", FAST_RANK, 2),
        ("lr-sweep", TINY_TRAIN + "training.lrs = 0.001\n", 2),
        ("ablate", TINY_TRAIN.replace("training.epochs = 3", "training.epochs = 1"), 25),
    ])
    def test_no_more_workers_than_tasks(self, tmp_path, pools, command, text, tasks):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text)
        for parallel, want in (("5000", [tasks]), ("2", [2]), ("1", [])):
            pools.clear()
            assert run_cli(command, "--config", str(cfg), "--out", str(tmp_path / parallel),
                           "--parallel", parallel) in (0, 1)
            assert pools == want, parallel

    @pytest.mark.parametrize("command", ["grad-check", "rank-exp", "ablate", "lr-sweep"])
    @pytest.mark.parametrize("parallel", ["0", "-3"])
    def test_parallel_below_one_exits_two(self, tmp_path, capsys, pools, command, parallel):
        assert run_cli(command, "--out", str(tmp_path / "out"), "--parallel", parallel) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --parallel must be >= 1, got {parallel}\n"
        assert captured.out == "" and pools == []
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("option", [("--parallel", "0"), ("--parallel", "-3"),
                                        ("--parallel", "2"), ("--seed-override", "3")],
                             ids=["parallel-0", "parallel--3", "parallel-2", "seed-override"])
    def test_param_count_takes_no_parallel_or_seed_override(self, tmp_path, capsys, pools,
                                                            option):
        # param-count runs no worker and draws nothing: neither option means anything to it.
        assert run_cli("param-count", "--out", str(tmp_path / "out"), *option) == 2
        captured = capsys.readouterr()
        assert f"error: unrecognized arguments: {' '.join(option)}\n" in captured.err
        assert captured.out == "" and pools == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["ablate", "lr-sweep", "grad-check", "param-count"])
    def test_heads_that_do_not_split_d_give_one_message(self, tmp_path, capsys, pools,
                                                        command):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(TINY_TRAIN.replace("model.heads = 2", "model.heads = 3"))
        parallel = () if command == "param-count" else ("--parallel", "2")
        out = tmp_path / "out"
        assert run_cli(command, "--config", str(cfg), "--out", str(out), *parallel) == 2
        assert capsys.readouterr() == ("", "error: model.d=8 not divisible by model.heads=3\n")
        assert pools == [] and list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["ablate", "lr-sweep", "grad-check", "param-count"])
    @pytest.mark.parametrize("key, bad, low", [("model.layers", 0, 1), ("model.d", 0, 1),
                                               ("model.d_in", -1, 1), ("model.d_ff", -1, 0)])
    def test_model_sizes_below_their_floor_name_the_key(self, tmp_path, capsys, pools,
                                                         command, key, bad, low):
        # Checked with model.heads before any worker starts (model.d_ff 0: the default).
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("\n".join(line for line in TINY_TRAIN.splitlines()
                                 if not line.startswith(key + " ")) + f"\n{key} = {bad}\n")
        parallel = () if command == "param-count" else ("--parallel", "2")
        out = tmp_path / "out"
        assert run_cli(command, "--config", str(cfg), "--out", str(out), *parallel) == 2
        assert capsys.readouterr() == ("", f"error: {key} must be >= {low}, got {bad}\n")
        assert pools == [] and list(out.iterdir()) == []


class TestBadTrainingInputs:
    """A training or task setting no run can use exits 2 before any cell runs:
    the error names the setting, no traceback, no result file."""

    @pytest.mark.parametrize("command, setting, message", [
        ("ablate", "training.lr = nan", "lr must be finite and >= 0, got nan"),
        ("ablate", "training.lr = inf", "lr must be finite and >= 0, got inf"),
        ("ablate", "training.weight_decay = nan", "weight_decay must be finite and >= 0, got nan"),
        ("ablate", "training.weight_decay = -1", "weight_decay must be finite and >= 0, got -1.0"),
        ("lr-sweep", "training.weight_decay = nan",
         "weight_decay must be finite and >= 0, got nan"),
        ("lr-sweep", "training.lrs = 1e-3, nan", "lr must be finite and >= 0, got nan"),
        ("lr-sweep", "training.lrs =", "training.lrs is empty; there is no learning rate to sweep"),
        ("ablate", "model.bias_init = nan", "bias_init must be finite, got nan"),
        ("ablate", "model.bias_init = inf", "bias_init must be finite, got inf"),
        ("lr-sweep", "model.bias_init = nan", "bias_init must be finite, got nan"),
        ("grad-check", "model.bias_init = nan", "bias_init must be finite, got nan"),
        ("grad-check", "model.bias_init = inf", "bias_init must be finite, got inf"),
        ("ablate", "task.edge_prob = nan", "edge_prob must lie in [0, 1], got nan"),
        ("ablate", "task.edge_prob = 2", "edge_prob must lie in [0, 1], got 2.0"),
        ("lr-sweep", "task.edge_prob = -0.5", "edge_prob must lie in [0, 1], got -0.5"),
        ("grad-check", "task.edge_prob = nan", "edge_prob must lie in [0, 1], got nan"),
    ])
    def test_rejected_with_exit_two(self, tmp_path, capsys, command, setting, message):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(TINY_TRAIN + "gradcheck.placements = g1\ngradcheck.activations = sigmoid\n"
                       + setting + "\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("parallel", ["1", "2"])
    @pytest.mark.parametrize("lrs, first, second", [
        ("0.001, 0.0010000001, 0.001", "0.001", "0.0010000001"),
        ("5e-4, 1e-3, 0.001", "0.001", "0.001"),
    ], ids=["near", "equal"])
    def test_learning_rates_that_share_a_label_exit_two(self, tmp_path, capsys, monkeypatch,
                                                        parallel, lrs, first, second):
        # Each lr-sweep cell's rows and history file are named f"{lr:g}".
        def no_training(*args, **kwargs):
            raise AssertionError("a cell trained")

        monkeypatch.setattr(cli, "train_toy", no_training)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", FakeExecutor)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(TINY_TRAIN + f"training.lrs = {lrs}\n")
        out = tmp_path / "out"
        assert run_cli("lr-sweep", "--config", str(cfg), "--out", str(out),
                       "--parallel", parallel) == 2
        assert capsys.readouterr() == ("", f"error: training.lrs holds {first} and {second}, "
                                           "which share the label 0.001; each learning rate "
                                           "needs its own\n")
        assert list(out.iterdir()) == []


class TestOverflowingSettings:
    """Settings whose values overflow in the forward pass: each command gives
    its error or its diverged rows, and numpy warns of nothing, in the
    command's own process or in its workers (which inherit the filter that
    makes a warning an error)."""

    @pytest.mark.parametrize("parallel", ["1", "2"])
    @pytest.mark.parametrize("command, setting, code, err", [
        ("grad-check", "model.bias_init = 1e308\ngradcheck.placements = g1\n"
         "gradcheck.activations = relu\ngradcheck.exhaustive = false\ngradcheck.samples = 2",
         2, "error: grad-check cell g1/relu: layer 0: layer_norm: row 0 has an infinite "
            "standard deviation (its variance overflows); every parameter is finite\n"),
        ("rank-exp", FAST_RANK + "experiment.c = 1e308", 2,
         "error: rank study cell c=1e+308 rho=0.2: row 0 has largest logit inf; "
         "softmax undefined\n"),
        ("lr-sweep", TINY_TRAIN + "training.weight_decay = 1e308", 0, ""),
        ("lr-sweep", TINY_TRAIN + "model.bias_init = 1e308\nmodel.activation = relu", 0, ""),
    ], ids=["grad-check", "rank-exp", "lr-sweep-weight-decay", "lr-sweep-bias"])
    def test_no_numpy_warning(self, tmp_path, capsys, command, setting, code, err, parallel):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(setting + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "out"),
                           "--parallel", parallel) == code
        captured = capsys.readouterr()
        assert captured.err == err
        if command == "lr-sweep":
            assert "diverged@" in captured.out


class TestOutDim:
    """The toy target is one number, so only param-count reads model.out_dim."""

    @pytest.mark.parametrize("command", ["ablate", "lr-sweep", "grad-check"])
    def test_trained_and_checked_models_reject_other_widths(self, tmp_path, capsys,
                                                            command):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(TINY_TRAIN + "model.out_dim = 3\n")
        out = tmp_path / "out"
        assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 2
        assert "model.out_dim must be 1 for the toy task's scalar target, got 3" \
            in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_param_count_honours_it(self, tmp_path, capsys):
        def total(out_dim):
            cfg = tmp_path / "cfg.txt"
            cfg.write_text(f"model.out_dim = {out_dim}\n")
            assert run_cli("param-count", "--config", str(cfg), "--out", str(tmp_path)) == 0
            return int(capsys.readouterr().out.splitlines()[0].split(": ")[1])

        assert total(3) - total(1) == 2 * (16 + 1)  # readout weight column + bias


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

    def test_draws_nothing(self, tmp_path, capsys, monkeypatch):
        import siggate.gps as gps

        drawn = []
        real = gps.fill_gaussian

        def counted(rng, draws):
            drawn.append(len(draws))
            return real(rng, draws)

        monkeypatch.setattr(gps, "fill_gaussian", counted)
        assert run_cli("param-count", "--out", str(tmp_path)) == 0
        assert "total params: " in capsys.readouterr().out
        assert drawn == []
        init_model(SeededRng(0), d_in=4, d=8, n_heads=2, n_layers=1, gate=GateConfig())
        assert len(drawn) == 1  # the counter sees what init_model draws

    def test_zero_layers_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("model.layers = 0\n")
        assert run_cli("param-count", "--config", str(cfg), "--out", str(tmp_path)) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: model.layers must be >= 1, got 0\n"
        assert captured.out == ""

    @pytest.mark.parametrize("heads", [0, -2])
    def test_non_positive_heads_exit_two(self, tmp_path, capsys, heads):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"model.heads = {heads}\n")
        assert run_cli("param-count", "--config", str(cfg), "--out", str(tmp_path)) == 2
        assert f"model.heads must be >= 1, got {heads}" in capsys.readouterr().err

    def test_usage_error_exits_two(self):
        assert run_cli("no-such-command") == 2
