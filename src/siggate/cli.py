"""Command-line entry point.

    siggate <subcommand> --config <path> [--out <dir>] [--seed-override <int>]
                         [--parallel <n>]

Subcommands: rank-exp, grad-check, ablate, lr-sweep, diagnose, param-count.
Human-readable summaries go to stdout; data goes to CSV files in the output
directory, together with the fully resolved configuration (rerunning from
that echo reproduces every output bitwise). Exit codes: 0 success, 1
acceptance-band failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .attention import GateConfig
from .config import ConfigError, RunConfig, parse_config
from .diagnostics import (
    depth_profile,
    gate_stats,
    trace_gate_values,
    write_diagnostics_csv,
    write_diagnostics_json,
)
from .gps import init_model, model_forward, read_graph
from .numeric import SeededRng
from .synthexp import (
    GATE_MEAN_TOL,
    GATE_STD_TOL,
    MEAN_GAIN_BAND,
    SWEEP_GAIN_BAND,
    RankExpConfig,
    SweepCell,
    make_toy_task,
    run_rank_experiment,
    run_robustness_sweep,
    write_aggregate_csv,
    write_seed_csv,
)
from .training import (
    DivergenceError,
    ParamSet,
    TrainConfig,
    finite_difference_check,
    is_gate_param,
    load_model,
    train_toy,
)

EXIT_OK = 0
EXIT_BAND = 1
EXIT_USAGE = 2

GRADCHECK_LOSS = "mse"  # smooth by construction; MAE's kink would poison FD


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _gate_config(cfg: RunConfig, placement=None, sharing=None, activation=None) -> GateConfig:
    return GateConfig(
        placement=cfg["model.placement"] if placement is None else placement,
        sharing=cfg["model.sharing"] if sharing is None else sharing,
        activation=cfg["model.activation"] if activation is None else activation,
        bias_init=cfg["model.bias_init"],
    )


def _train_config(cfg: RunConfig, gate: GateConfig, lr=None, seed=None) -> TrainConfig:
    return TrainConfig(
        lr=cfg["training.lr"] if lr is None else lr,
        weight_decay=cfg["training.weight_decay"],
        epochs=cfg["training.epochs"],
        seed=cfg["training.seed"] if seed is None else seed,
        loss=cfg["training.loss"],
        n_layers=cfg["model.layers"],
        d=cfg["model.d"],
        n_heads=cfg["model.heads"],
        gate=gate,
        d_ff=cfg["model.d_ff"] or None,
        readout=cfg["model.readout"],
    )


def _task(cfg: RunConfig, seed=None):
    return make_toy_task(
        seed=cfg["task.seed"] if seed is None else seed,
        n_graphs=cfg["task.n_graphs"],
        nodes_per_graph=cfg["task.nodes"],
        feature_dim=cfg["model.d_in"],
        edge_prob=cfg["task.edge_prob"],
    )


def _rank_config(cfg: RunConfig) -> RankExpConfig:
    return RankExpConfig(
        n=cfg["experiment.n"], d=cfg["experiment.d"],
        n_heads=cfg["experiment.heads"], d_k=cfg["experiment.d_k"],
        rho=cfg["experiment.rho"], c=cfg["experiment.c"],
        seeds=tuple(cfg["experiment.seeds"]),
        target_gate_mean=cfg["experiment.target_gate_mean"],
        target_gate_std=cfg["experiment.target_gate_std"],
    )


def _echo_config(cfg: RunConfig, out_dir: str) -> None:
    cfg.write(os.path.join(out_dir, "resolved_config.txt"))


class _Pool:
    """map() over a process pool when parallel > 1, else the builtin."""

    def __init__(self, parallel: int):
        self.parallel = max(1, int(parallel))
        self._executor = None

    def __enter__(self):
        if self.parallel > 1:
            self._executor = ProcessPoolExecutor(max_workers=self.parallel)
        return self._executor.map if self._executor else map

    def __exit__(self, *exc):
        if self._executor:
            self._executor.shutdown()
        return False


# ---------------------------------------------------------------------------
# rank-exp
# ---------------------------------------------------------------------------


def cmd_rank_exp(cfg: RunConfig, out_dir: str, parallel: int = 1) -> int:
    """Synthetic stable-rank study; exit 0 only if the gain bands hold."""
    base = _rank_config(cfg)
    with _Pool(parallel) as map_fn:
        result = run_rank_experiment(base, map_fn=map_fn)
        cells = [SweepCell("default", base.c, base.rho, result)]
        sweep_cells = None
        if cfg["experiment.robustness"]:
            sweep_cells = run_robustness_sweep(
                base, cfg["experiment.c_sweep"], cfg["experiment.rho_sweep"], map_fn=map_fn
            )
    write_seed_csv(os.path.join(out_dir, "rank_seeds.csv"), cells)
    write_aggregate_csv(os.path.join(out_dir, "rank_aggregate.csv"), cells)

    print(f"stable-rank experiment: n={base.n} d={base.d} heads={base.n_heads} "
          f"d_k={base.d_k} rho={base.rho:g} c={base.c:g}")
    print(f"{'seed':>4}  {'srank(Y)':>10}  {'srank(Y*g)':>10}  {'gain':>8}")
    for s in result.per_seed:
        print(f"{s.seed:>4}  {s.srank_ungated:>10.3f}  {s.srank_gated:>10.3f}  "
              f"{100 * s.relative_gain:+8.2f}%")
    u_mean, u_std = result.mean_std("srank_ungated")
    g_mean, g_std = result.mean_std("srank_gated")
    print(f"{'mean':>4}  {u_mean:>6.3f}+-{u_std:.3f}  {g_mean:>6.3f}+-{g_std:.3f}  "
          f"{100 * result.mean_gain:+8.2f}%")
    print(f"calibrated gate: scale {result.calibration.scale:.4f} "
          f"bias {result.calibration.bias:.4f}; attained moments "
          f"({result.attained_gate_mean:.4f}, {result.attained_gate_std:.4f}) "
          f"vs targets ({base.target_gate_mean:g}, {base.target_gate_std:g})")

    ok = (
        MEAN_GAIN_BAND[0] <= result.mean_gain <= MEAN_GAIN_BAND[1]
        and all(s.srank_gated > s.srank_ungated for s in result.per_seed)
        and abs(result.attained_gate_mean - base.target_gate_mean) <= GATE_MEAN_TOL
        and abs(result.attained_gate_std - base.target_gate_std) <= GATE_STD_TOL
    )
    if sweep_cells is not None:
        write_seed_csv(os.path.join(out_dir, "robustness_seeds.csv"), sweep_cells)
        write_aggregate_csv(os.path.join(out_dir, "robustness_aggregate.csv"), sweep_cells)
        print("robustness sweep:")
        for cell in sweep_cells:
            gain = cell.result.mean_gain
            print(f"  {cell.config_id:>9}  c={cell.c:<4g} rho={cell.rho:<5g} "
                  f"gain {100 * gain:+6.2f}%")
            ok = ok and gain > 0.0 and SWEEP_GAIN_BAND[0] <= gain <= SWEEP_GAIN_BAND[1]
    _echo_config(cfg, out_dir)
    print("result: PASS" if ok else "result: FAIL (outside acceptance bands)")
    return EXIT_OK if ok else EXIT_BAND


# ---------------------------------------------------------------------------
# grad-check
# ---------------------------------------------------------------------------


def _gradcheck_cells(cfg: RunConfig):
    cells = []
    for placement in cfg["gradcheck.placements"]:
        if placement == "none":
            cells.append(("none", "-"))
        else:
            for activation in cfg["gradcheck.activations"]:
                cells.append((placement, activation))
    return cells


def _gradcheck_one(args):
    (placement, activation, cfg_dict) = args
    gate = GateConfig(
        placement=placement,
        sharing=cfg_dict["sharing"],
        activation=activation if activation != "-" else "sigmoid",
        bias_init=cfg_dict["bias_init"],
    )
    model = init_model(
        SeededRng(cfg_dict["model_seed"]), d_in=cfg_dict["d_in"], d=cfg_dict["d"],
        n_heads=cfg_dict["heads"], n_layers=cfg_dict["layers"], gate=gate,
        d_ff=cfg_dict["d_ff"], readout=cfg_dict["readout"],
    )
    params = ParamSet.from_model(model)
    task = make_toy_task(
        seed=cfg_dict["task_seed"], n_graphs=2,
        nodes_per_graph=cfg_dict["nodes"], feature_dim=cfg_dict["d_in"],
        edge_prob=cfg_dict["edge_prob"],
    )
    report = finite_difference_check(
        model, params, task.train[:1], h=cfg_dict["h"],
        sample=None if cfg_dict["exhaustive"] else cfg_dict["samples"],
        seed=cfg_dict["fd_seed"], loss=GRADCHECK_LOSS,
    )
    return placement, activation, report


def cmd_grad_check(cfg: RunConfig, out_dir: str, parallel: int = 1) -> int:
    """Finite-difference verification of the exact gradients per placement.

    The gate is the per-parameter norm-relative error; the per-coordinate
    maximum is reported alongside (coordinates whose true gradient sits
    below the h=1e-5 noise floor inflate it without indicating a bug).
    """
    cfg_dict = {
        "d_in": cfg["model.d_in"], "d": cfg["model.d"], "heads": cfg["model.heads"],
        "layers": cfg["model.layers"], "d_ff": cfg["model.d_ff"] or None,
        "readout": cfg["model.readout"], "sharing": cfg["model.sharing"],
        "bias_init": cfg["model.bias_init"], "model_seed": cfg["training.seed"],
        "task_seed": cfg["task.seed"], "nodes": cfg["gradcheck.nodes"],
        "edge_prob": cfg["task.edge_prob"], "h": cfg["gradcheck.h"],
        "exhaustive": cfg["gradcheck.exhaustive"], "samples": cfg["gradcheck.samples"],
        "fd_seed": cfg["gradcheck.seed"],
    }
    jobs = [(p, a, cfg_dict) for p, a in _gradcheck_cells(cfg)]
    tol = cfg["gradcheck.tolerance"]
    lines = ["placement,activation,n_checked,param_rel_max,worst_param,coord_rel_max,"
             "worst_coord,status"]
    ok = True
    with _Pool(parallel) as map_fn:
        results = list(map_fn(_gradcheck_one, jobs))
    for placement, activation, report in results:
        passed = report.max_param_rel <= tol
        ok = ok and passed
        status = "pass" if passed else "FAIL"
        print(f"grad-check {placement:>4}/{activation:<15} "
              f"param_rel {report.max_param_rel:.3e} ({report.worst_param_by_norm}) "
              f"coord_rel {report.max_rel_err:.3e} ({report.worst_param}) "
              f"[{report.n_checked} coords] {status}")
        lines.append(",".join([
            placement, activation, str(report.n_checked),
            _fmt(report.max_param_rel), report.worst_param_by_norm,
            _fmt(report.max_rel_err), f"{report.worst_param}[{report.worst_index}]",
            status,
        ]))
    with open(os.path.join(out_dir, "gradcheck_report.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    _echo_config(cfg, out_dir)
    print(f"result: {'PASS' if ok else 'FAIL'} (tolerance {tol:g})")
    return EXIT_OK if ok else EXIT_BAND


# ---------------------------------------------------------------------------
# ablate / lr-sweep
# ---------------------------------------------------------------------------


def _train_cell(args):
    """Train one cell and boil it down to plain numbers (pool-friendly)."""
    label, train_cfg, task = args
    try:
        history = train_toy(train_cfg, task)
    except DivergenceError as exc:
        return label, {"status": f"diverged@{exc.epoch}"}
    profiles = [depth_profile(t) for t in history.final_test_traces]
    summary = {
        "status": "ok",
        "final_train_loss": history.final_train_loss,
        "final_test_loss": history.final_test_loss,
        "mad_last": float(np.mean([p.mad[-1] for p in profiles])),
        "entropy_last": float(np.mean([p.entropy[-1] for p in profiles])),
        "losses": history.losses,
        "lrs": history.lrs,
    }
    gates = []
    for t in history.final_test_traces:
        gates.extend(trace_gate_values(t))
    if gates:
        pooled = gate_stats(gates, "pooled")
        summary["gate_mean"] = pooled.mean
        summary["gate_std"] = pooled.std
    return label, summary


def _write_cell_history(out_dir, label_fields, summary) -> None:
    if summary["status"] != "ok":
        return
    hist_dir = os.path.join(out_dir, "histories")
    os.makedirs(hist_dir, exist_ok=True)
    name = "_".join(str(f) for f in label_fields) + ".csv"
    lines = ["epoch,loss,lr"]
    for i, (loss, lr) in enumerate(zip(summary["losses"], summary["lrs"])):
        lines.append(f"{i},{loss:.17g},{lr:.17g}")
    with open(os.path.join(hist_dir, name), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _cell_row(label_fields, summary) -> str:
    if summary["status"] != "ok":
        return ",".join(list(label_fields) + [summary["status"]] + ["nan"] * 6)
    return ",".join(
        list(label_fields)
        + ["ok"]
        + [_fmt(summary[k]) for k in ("final_train_loss", "final_test_loss",
                                      "mad_last", "entropy_last")]
        + [_fmt(summary.get("gate_mean", float("nan"))),
           _fmt(summary.get("gate_std", float("nan")))]
    )


def cmd_ablate(cfg: RunConfig, out_dir: str, parallel: int = 1) -> int:
    """Toy-task loss matrix over placement x sharing x activation.

    Losses are toy-task values, not benchmark numbers. The ungated
    placement collapses to a single row (sharing/activation are moot).
    """
    task = _task(cfg)
    jobs = []
    jobs.append((("none", "-", "-"),
                 _train_config(cfg, GateConfig(placement="none")), task))
    for placement in ("g1", "g2", "g3"):
        for sharing in ("per_head", "shared"):
            for activation in ("sigmoid", "tanh", "relu", "sigmoid_squared"):
                gate = _gate_config(cfg, placement=placement, sharing=sharing,
                                    activation=activation)
                jobs.append(((placement, sharing, activation),
                             _train_config(cfg, gate), task))
    with _Pool(parallel) as map_fn:
        results = list(map_fn(_train_cell, jobs))
    lines = ["placement,sharing,activation,status,final_train_loss,final_test_loss,"
             "mad_last,entropy_last,gate_mean,gate_std"]
    for label, summary in results:
        lines.append(_cell_row(label, summary))
        _write_cell_history(out_dir, label, summary)
        loss_txt = ("diverged" if summary["status"] != "ok"
                    else f"test loss {summary['final_test_loss']:.4f}")
        print(f"ablate {label[0]:>4}/{label[1]:<8}/{label[2]:<15} {loss_txt}")
    with open(os.path.join(out_dir, "ablation.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    _echo_config(cfg, out_dir)
    return EXIT_OK


def cmd_lr_sweep(cfg: RunConfig, out_dir: str, parallel: int = 1) -> int:
    """Gated vs ungated toy training across the configured learning rates.

    Reports per-lr final losses and the max-min range per model; these are
    toy-task losses standing in for the benchmark protocol, nothing more.
    """
    task = _task(cfg)
    jobs = []
    for kind, gate in (("gated", _gate_config(cfg)),
                       ("ungated", GateConfig(placement="none"))):
        for lr in cfg["training.lrs"]:
            jobs.append(((kind, f"{lr:g}"), _train_config(cfg, gate, lr=lr), task))
    with _Pool(parallel) as map_fn:
        results = list(map_fn(_train_cell, jobs))
    lines = ["model,lr,status,final_train_loss,final_test_loss,mad_last,entropy_last,"
             "gate_mean,gate_std"]
    ranges = {}
    for (kind, lr_txt), summary in results:
        lines.append(_cell_row((kind, lr_txt), summary))
        _write_cell_history(out_dir, (kind, lr_txt), summary)
        if summary["status"] == "ok":
            ranges.setdefault(kind, []).append(summary["final_test_loss"])
            print(f"lr-sweep {kind:>7} lr={lr_txt:<7} test loss "
                  f"{summary['final_test_loss']:.4f}")
        else:
            print(f"lr-sweep {kind:>7} lr={lr_txt:<7} {summary['status']}")
    summary_lines = ["model,n_completed,loss_min,loss_max,range"]
    for kind in ("gated", "ungated"):
        vals = ranges.get(kind, [])
        if vals:
            summary_lines.append(",".join([
                kind, str(len(vals)), _fmt(min(vals)), _fmt(max(vals)),
                _fmt(max(vals) - min(vals)),
            ]))
            print(f"lr-sweep {kind:>7} range = {max(vals) - min(vals):.4f} "
                  f"over {len(vals)} completed cells")
        else:
            summary_lines.append(f"{kind},0,nan,nan,nan")
    with open(os.path.join(out_dir, "lr_sweep.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(out_dir, "lr_sweep_summary.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(summary_lines) + "\n")
    _echo_config(cfg, out_dir)
    return EXIT_OK


# ---------------------------------------------------------------------------
# diagnose / param-count
# ---------------------------------------------------------------------------


def cmd_diagnose(model_path: str, graph_path: str, out_dir: str) -> int:
    """Forward a serialized model on a graph file and emit the instruments."""
    model = load_model(model_path)
    graph = read_graph(graph_path)
    _, trace = model_forward(graph, model)
    profile = depth_profile(trace)
    gates = trace_gate_values(trace)
    per_layer = gate_stats(gates, "per_layer") if gates else None
    pooled = gate_stats(gates, "pooled") if gates else None
    write_diagnostics_csv(os.path.join(out_dir, "diagnostics.csv"),
                          profile, per_layer, pooled)
    write_diagnostics_json(os.path.join(out_dir, "diagnostics.json"),
                           profile, per_layer, pooled)
    for i in range(len(profile.mad)):
        gate_txt = ""
        if per_layer:
            gate_txt = (f"  gate mean {per_layer[i].mean:.4f} std {per_layer[i].std:.4f} "
                        f"<0.1 {per_layer[i].frac_below:.3f} >0.9 {per_layer[i].frac_above:.3f}")
        print(f"layer {i}: mad {profile.mad[i]:.4f} entropy {profile.entropy[i]:.4f}{gate_txt}")
    if pooled:
        print(f"pooled gate: mean {pooled.mean:.4f} std {pooled.std:.4f} "
              f"<0.1 {pooled.frac_below:.3f} >0.9 {pooled.frac_above:.3f} "
              f"({pooled.count} values)")
    return EXIT_OK


def cmd_param_count(cfg: RunConfig, out_dir: str) -> int:
    """Total/gate parameter counts of the configured model: the gate count
    is the size of the parameters :func:`is_gate_param` names, so it follows
    the placement (g3 adds a second projection) and the sharing."""
    d = cfg["model.d"]
    heads = cfg["model.heads"]
    layers = cfg["model.layers"]
    if heads < 1:
        raise ConfigError(f"model.heads must be >= 1, got {heads}")
    if layers == 0:
        print("warning: model.layers = 0; there is nothing to count")
        print("total params: 0")
        print("gate params: 0")
        return EXIT_OK
    if d % heads != 0:
        raise ConfigError(f"model.d={d} not divisible by model.heads={heads}")
    model = init_model(
        SeededRng(0), d_in=cfg["model.d_in"], d=d, n_heads=heads, n_layers=layers,
        gate=_gate_config(cfg), d_ff=cfg["model.d_ff"] or None,
        readout=cfg["model.readout"], out_dim=cfg["model.out_dim"],
    )
    params = ParamSet.from_model(model)
    total = params.total_count()
    gate = sum(arr.size for name, arr in params.items() if is_gate_param(name))
    print(f"total params: {total}")
    print(f"gate params: {gate}")
    print(f"gate fraction: {gate / total:.4%}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siggate",
        description="Sigmoid-gated graph-transformer experiments and diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument("--seed-override", type=int, default=None,
                       help="replace every seed in the configuration")
        p.add_argument("--parallel", type=int, default=1,
                       help="worker processes for independent cells/seeds")

    for name in ("rank-exp", "grad-check", "ablate", "lr-sweep", "param-count"):
        common(sub.add_parser(name))
    diag = sub.add_parser("diagnose")
    diag.add_argument("--model", required=True, help="model dump file")
    diag.add_argument("--graph", required=True, help="graph file")
    diag.add_argument("--out", default=".", help="output directory (default: .)")
    return parser


def _load_config(args) -> RunConfig:
    cfg = parse_config(args.config) if args.config else RunConfig()
    if args.seed_override is not None:
        v = args.seed_override
        cfg.set("training.seed", v)
        cfg.set("task.seed", v)
        cfg.set("gradcheck.seed", v)
        cfg.set("experiment.seeds", (v,))
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        out_dir = args.out
        os.makedirs(out_dir, exist_ok=True)
        if args.command == "diagnose":
            return cmd_diagnose(args.model, args.graph, out_dir)
        cfg = _load_config(args)
        if args.command == "rank-exp":
            return cmd_rank_exp(cfg, out_dir, args.parallel)
        if args.command == "grad-check":
            return cmd_grad_check(cfg, out_dir, args.parallel)
        if args.command == "ablate":
            return cmd_ablate(cfg, out_dir, args.parallel)
        if args.command == "lr-sweep":
            return cmd_lr_sweep(cfg, out_dir, args.parallel)
        if args.command == "param-count":
            return cmd_param_count(cfg, out_dir)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
