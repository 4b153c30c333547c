"""Command-line entry point.

    siggate <subcommand> --config <path> [--out <dir>] [--seed-override <int>]
                         [--parallel <n>]
    siggate param-count --config <path> [--out <dir>]

Subcommands: rank-exp, grad-check, ablate, lr-sweep, diagnose, param-count.
Human-readable summaries go to stdout; data goes to CSV files in the output
directory. The commands of ``_COMMANDS`` also write the fully resolved
configuration there (rerunning from that echo reproduces every output
bitwise). Exit codes: 0 success, 1 acceptance-band failure, 2 usage/config error,
3 a pool worker died, or a cell raised an error that is not a config, input or
file error, before every cell had returned (the run wrote no output).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from contextlib import contextmanager
from itertools import product, repeat
from types import SimpleNamespace

import numpy as np

from .attention import GATE_ACTIVATIONS, PLACEMENTS, SHARINGS, GateConfig, is_gate_param
from .autodiff import load_erf
from .config import ConfigError, RunConfig, parse_config_text
from .diagnostics import (
    depth_profile,
    gate_stats,
    trace_gate_values,
    write_diagnostics_csv,
    write_diagnostics_json,
)
from .gps import init_model, model_forward, model_skeleton, read_graph
from .numeric import NonFiniteInputError, SeededRng, read_lines, write_csv
from .synthexp import (
    GATE_MEAN_TOL,
    GATE_STD_TOL,
    MEAN_GAIN_BAND,
    SWEEP_GAIN_BAND,
    RankExpConfig,
    SweepCell,
    make_toy_task,
    run_robustness_sweep,
    write_aggregate_csv,
    write_seed_csv,
)
from .training import (
    DivergenceError,
    NonFiniteError,
    TrainConfig,
    finite_difference_check,
    load_model,
    train_toy,
    write_history_csv,
)

EXIT_OK = 0
EXIT_BAND = 1
EXIT_USAGE = 2
EXIT_WORKER = 3

GRADCHECK_LOSS = "mse"  # smooth by construction; MAE's kink would poison FD


def _gate_config(cfg: RunConfig, **axes) -> GateConfig:
    """The configured gate, with any of its placement, sharing and activation replaced."""
    axes = {axis: cfg[f"model.{axis}"] for axis in ("placement", "sharing", "activation")} | axes
    return GateConfig(bias_init=cfg["model.bias_init"], **axes)


def _model_dims(cfg: RunConfig, gate: GateConfig | None) -> dict:
    """The model keywords that :func:`init_model` and :class:`TrainConfig` both take,
    once every size is known to be positive (``model.d_ff`` 0: the default) and
    ``model.heads`` to split ``model.d``."""
    for key, low in (("model.heads", 1), ("model.layers", 1), ("model.d", 1),
                     ("model.d_in", 1), ("model.out_dim", 1), ("model.d_ff", 0)):
        if cfg[key] < low:
            raise ConfigError(f"{key} must be >= {low}, got {cfg[key]}")
    d, heads = cfg["model.d"], cfg["model.heads"]
    if d % heads != 0:
        raise ConfigError(f"model.d={d} not divisible by model.heads={heads}")
    return dict(d=d, n_heads=heads, n_layers=cfg["model.layers"], gate=gate,
                d_ff=cfg["model.d_ff"] or None, readout=cfg["model.readout"])


def _train_config(cfg: RunConfig, gate: GateConfig, lr=None) -> TrainConfig:
    return TrainConfig(
        lr=cfg["training.lr"] if lr is None else lr,
        weight_decay=cfg["training.weight_decay"],
        epochs=cfg["training.epochs"],
        seed=cfg["training.seed"],
        loss=cfg["training.loss"],
        **_model_dims(cfg, gate),
    )


def _require_scalar_target(cfg: RunConfig) -> None:
    """The toy target is one number per graph: trained and checked models have one output."""
    if cfg["model.out_dim"] != 1:
        raise ConfigError(f"model.out_dim must be 1 for the toy task's scalar target, "
                          f"got {cfg['model.out_dim']}")


def _task(cfg: RunConfig):
    _require_scalar_target(cfg)
    _model_dims(cfg, None)  # the sizes' checks: model.d_in is the task's feature width
    return make_toy_task(
        seed=cfg["task.seed"],
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


class CellError(Exception):
    """A cell raised an error that ``main`` does not report itself; the message
    names the cell and the error."""


def _cell(fn, name, job):
    try:
        return fn(job)
    except (ValueError, OSError):  # config, input and file errors: main reports them
        raise
    except Exception as exc:
        raise CellError(f"cell {name} raised {type(exc).__name__}: {exc}") from None


@contextmanager
def _pool(parallel: int, cells: list[str], runs_model: bool = False):
    """map() over a process pool of ``parallel`` workers, but no more than the
    ``cells`` it maps (a forked pool starts every worker at once), when that
    is more than one; else the builtin. ``cells`` names the mapped jobs in
    order: at every ``parallel``, an error a job raises that is not a
    ValueError or OSError comes back as a :class:`CellError` naming it. A pool
    whose tasks run the model loads the GELU's ``erf`` (one scipy extension)
    before it forks, so its workers inherit it instead of each loading it."""
    def named(map_fn):
        return lambda fn, jobs: map_fn(_cell, repeat(fn), cells, jobs)

    if min(parallel, len(cells)) < 2:
        yield named(map)
    else:
        if runs_model:
            load_erf()
        with ProcessPoolExecutor(max_workers=min(parallel, len(cells))) as executor:
            yield named(executor.map)


# ---------------------------------------------------------------------------
# rank-exp
# ---------------------------------------------------------------------------


def cmd_rank_exp(cfg: RunConfig, out_dir: str, parallel: int = 1) -> int:
    """Synthetic stable-rank study; exit 0 only if the gain bands hold."""
    base = _rank_config(cfg)
    robust = cfg["experiment.robustness"]
    # The default cell runs as the c sweep's first cell: one pass per seed serves both.
    with _pool(parallel, [f"seed {seed}" for seed in base.seeds]) as map_fn:
        first, *sweep_cells = run_robustness_sweep(
            base, (base.c, *(cfg["experiment.c_sweep"] if robust else ())),
            cfg["experiment.rho_sweep"] if robust else (), map_fn=map_fn)
    result = first.result
    cells = [SweepCell("default", base.c, base.rho, result)]
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
    if robust:
        write_seed_csv(os.path.join(out_dir, "robustness_seeds.csv"), sweep_cells)
        write_aggregate_csv(os.path.join(out_dir, "robustness_aggregate.csv"), sweep_cells)
        print("robustness sweep:")
        for cell in sweep_cells:
            gain = cell.result.mean_gain
            print(f"  {cell.config_id:>9}  c={cell.c:<4g} rho={cell.rho:<5g} "
                  f"gain {100 * gain:+6.2f}%")
            ok = ok and gain > 0.0 and SWEEP_GAIN_BAND[0] <= gain <= SWEEP_GAIN_BAND[1]
    print("result: PASS" if ok else "result: FAIL (outside acceptance bands)")
    return EXIT_OK if ok else EXIT_BAND


# ---------------------------------------------------------------------------
# grad-check
# ---------------------------------------------------------------------------


def _gradcheck_one(args):
    placement, activation, cfg = args
    gate = _gate_config(cfg, placement=placement,
                        activation=activation if activation != "-" else "sigmoid")
    model = init_model(SeededRng(cfg["training.seed"]), d_in=cfg["model.d_in"],
                       **_model_dims(cfg, gate))
    task = make_toy_task(
        seed=cfg["task.seed"], n_graphs=2, nodes_per_graph=cfg["gradcheck.nodes"],
        feature_dim=cfg["model.d_in"], edge_prob=cfg["task.edge_prob"],
    )
    try:
        report = finite_difference_check(
            model, model.params, task.train[:1], h=cfg["gradcheck.h"],
            sample=None if cfg["gradcheck.exhaustive"] else cfg["gradcheck.samples"],
            seed=cfg["gradcheck.seed"], loss=GRADCHECK_LOSS,
        )
    except NonFiniteError as exc:
        raise ConfigError(f"grad-check cell {placement}/{activation}: {exc}") from None
    return placement, activation, report


def cmd_grad_check(cfg: RunConfig, out_dir: str, parallel: int = 1) -> int:
    """Finite-difference verification of the exact gradients per placement.

    The gate is the per-parameter norm-relative error; the per-coordinate
    maximum is reported alongside (coordinates whose true gradient sits
    below the h=1e-5 noise floor inflate it without indicating a bug).
    """
    _require_scalar_target(cfg)
    jobs = [(p, a, cfg) for p in cfg["gradcheck.placements"]
            for a in (("-",) if p == "none" else cfg["gradcheck.activations"])]
    if not jobs:
        key = "gradcheck.activations" if cfg["gradcheck.placements"] else "gradcheck.placements"
        raise ConfigError(f"{key} selects no grad-check cell; nothing would be checked")
    if not cfg["gradcheck.exhaustive"] and cfg["gradcheck.samples"] < 1:
        raise ConfigError(f"gradcheck.samples must be >= 1 when gradcheck.exhaustive is "
                          f"false, got {cfg['gradcheck.samples']}")
    tol = cfg["gradcheck.tolerance"]
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"gradcheck.tolerance must be finite and > 0, got {tol}")
    _model_dims(cfg, _gate_config(cfg))  # a bad model size exits before any worker starts
    with _pool(parallel, [f"{p}/{a}" for p, a, _ in jobs], runs_model=True) as map_fn:
        reports = list(map_fn(_gradcheck_one, jobs))
    rows = []
    ok = True
    for placement, activation, report in reports:
        passed = report.max_param_rel <= tol
        ok = ok and passed
        status = "pass" if passed else "FAIL"
        print(f"grad-check {placement:>4}/{activation:<15} "
              f"param_rel {report.max_param_rel:.3e} ({report.worst_param_by_norm}) "
              f"coord_rel {report.max_rel_err:.3e} ({report.worst_param}) "
              f"[{report.n_checked} coords] {status}")
        rows.append((placement, activation, report.n_checked, report.max_param_rel,
                     report.worst_param_by_norm, report.max_rel_err,
                     f"{report.worst_param}[{report.worst_index}]", status))
    write_csv(os.path.join(out_dir, "gradcheck_report.csv"),
              "placement,activation,n_checked,param_rel_max,worst_param,coord_rel_max,"
              "worst_coord,status", rows)
    print(f"result: {'PASS' if ok else 'FAIL'} (tolerance {tol:g})")
    return EXIT_OK if ok else EXIT_BAND


# ---------------------------------------------------------------------------
# ablate / lr-sweep
# ---------------------------------------------------------------------------


def _train_cell(args):
    """Train one cell (pool-friendly) and return its CSV row, the label, the
    status, then six numbers ("nan" if it diverged or has no gate), and its
    ``losses`` and ``lrs`` (None if it diverged). It writes nothing."""
    label, train_cfg, task = args
    try:
        history = train_toy(train_cfg, task)
    except DivergenceError as exc:
        return [*label, f"diverged@{exc.epoch}"] + ["nan"] * 6, None
    profiles = [depth_profile(t) for t in history.final_test_traces]
    gates = [g for t in history.final_test_traces for g in trace_gate_values(t)]
    pooled = gate_stats(gates, "pooled") if gates else None
    row = [*label, "ok", history.final_train_loss, history.final_test_loss,
           float(np.mean([p.mad[-1] for p in profiles])),
           float(np.mean([p.entropy[-1] for p in profiles])),
           pooled.mean if pooled else "nan", pooled.std if pooled else "nan"]
    return row, SimpleNamespace(losses=history.losses, lrs=history.lrs)


def _train_cells(cfg: RunConfig, out_dir: str, parallel: int, cells, csv_name: str,
                 label_header: str) -> list:
    """Train ``cells``, ``(label, TrainConfig)`` pairs drawn once the task is built (its
    config errors come first), on that task. Once every cell has returned, write each
    completed cell's history to ``histories/<label>.csv``, then the rows to ``csv_name``;
    return the rows."""
    task = _task(cfg)
    jobs = [(label, train_cfg, task) for label, train_cfg in cells]
    with _pool(parallel, ["/".join(label) for label, *_ in jobs], runs_model=True) as map_fn:
        rows, histories = zip(*map_fn(_train_cell, jobs))
    histories_dir = os.path.join(out_dir, "histories")
    for (label, *_), history in zip(jobs, histories):
        if history is not None:
            os.makedirs(histories_dir, exist_ok=True)
            write_history_csv(history, os.path.join(histories_dir, "_".join(label) + ".csv"))
    write_csv(os.path.join(out_dir, csv_name), f"{label_header},status,final_train_loss,"
              "final_test_loss,mad_last,entropy_last,gate_mean,gate_std", rows)
    return rows


def cmd_ablate(cfg: RunConfig, out_dir: str, parallel: int = 1) -> int:
    """Toy-task loss matrix over placement x sharing x activation.

    Losses are toy-task values, not benchmark numbers. The ungated
    placement collapses to a single row (sharing/activation are moot).
    """
    grid = [("none", "-", "-"), *product(PLACEMENTS[1:], SHARINGS, GATE_ACTIVATIONS)]
    cells = (((p, s, a), _train_config(cfg, GateConfig(placement="none") if p == "none" else
                                       _gate_config(cfg, placement=p, sharing=s, activation=a)))
             for p, s, a in grid)
    for p, s, a, status, _, test_loss, *_ in _train_cells(
            cfg, out_dir, parallel, cells, "ablation.csv", "placement,sharing,activation"):
        print(f"ablate {p:>4}/{s:<8}/{a:<15} "
              + ("diverged" if status != "ok" else f"test loss {test_loss:.4f}"))
    return EXIT_OK


def cmd_lr_sweep(cfg: RunConfig, out_dir: str, parallel: int = 1) -> int:
    """Gated vs ungated toy training across the configured learning rates.

    Reports per-lr final losses and the max-min range per model; these are
    toy-task losses standing in for the benchmark protocol, nothing more.
    """
    if not cfg["training.lrs"]:
        raise ConfigError("training.lrs is empty; there is no learning rate to sweep")
    first = {}  # label -> lr: a cell's rows and its history file are named by its label
    for lr in cfg["training.lrs"]:
        label = f"{lr:g}"
        if label in first:
            raise ConfigError(f"training.lrs holds {first[label]!r} and {lr!r}, which share "
                              f"the label {label}; each learning rate needs its own")
        first[label] = lr

    def cells():
        for kind, gate in (("gated", _gate_config(cfg)), ("ungated", GateConfig(placement="none"))):
            for lr in cfg["training.lrs"]:
                yield (kind, f"{lr:g}"), _train_config(cfg, gate, lr=lr)

    ranges = {"gated": [], "ungated": []}
    for kind, lr_txt, status, _, test_loss, *_ in _train_cells(
            cfg, out_dir, parallel, cells(), "lr_sweep.csv", "model,lr"):
        if status == "ok":
            ranges[kind].append(test_loss)
        print(f"lr-sweep {kind:>7} lr={lr_txt:<7} "
              + (f"test loss {test_loss:.4f}" if status == "ok" else status))
    summary_rows = []
    for kind, vals in ranges.items():
        if vals:
            summary_rows.append((kind, len(vals), min(vals), max(vals), max(vals) - min(vals)))
            print(f"lr-sweep {kind:>7} range = {max(vals) - min(vals):.4f} "
                  f"over {len(vals)} completed cells")
        else:
            summary_rows.append((kind, 0, "nan", "nan", "nan"))
    write_csv(os.path.join(out_dir, "lr_sweep_summary.csv"),
              "model,n_completed,loss_min,loss_max,range", summary_rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# diagnose / param-count
# ---------------------------------------------------------------------------


def cmd_diagnose(model_path: str, graph_path: str, out_dir: str) -> int:
    """Forward a serialized model on a graph file and emit the instruments. A
    forward pass that overflows or meets a non-finite value (layer norm
    rejects a row whose variance is not finite) is rejected."""
    model = load_model(model_path)
    graph = read_graph(graph_path)
    for size in ("d_in", "d_e"):
        want, got = model.layout.header[size], getattr(graph, size)
        if got != want:
            raise ValueError(f"graph {graph_path} has {size} = {got}, but model {model_path} "
                             f"expects {size} = {want}")
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            _, trace = model_forward(graph, model)
    except FloatingPointError as exc:
        raise NonFiniteInputError(
            f"forward pass of {model_path} on {graph_path} is not finite: {exc}") from None
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


def cmd_param_count(cfg: RunConfig) -> int:
    """Total/gate parameter counts of the configured model: the gate count
    is the size of the parameters :func:`is_gate_param` names, so it follows
    the placement (g3 adds a second projection) and the sharing."""
    params = model_skeleton(d_in=cfg["model.d_in"], out_dim=cfg["model.out_dim"],
                            **_model_dims(cfg, _gate_config(cfg)))[0].params
    total = params.flat.size
    gate = sum(arr.size for name, arr in params.items() if is_gate_param(name))
    print(f"total params: {total}")
    print(f"gate params: {gate}")
    print(f"gate fraction: {gate / total:.4%}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


_COMMANDS = {"rank-exp": cmd_rank_exp, "grad-check": cmd_grad_check, "ablate": cmd_ablate,
             "lr-sweep": cmd_lr_sweep}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siggate",
        description="Sigmoid-gated graph-transformer experiments and diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, runs=True):
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        if runs:
            p.add_argument("--seed-override", type=int, default=None,
                           help="replace every seed in the configuration")
            p.add_argument("--parallel", type=int, default=1,
                           help="worker processes for independent cells/seeds")

    for name in _COMMANDS:
        common(sub.add_parser(name))
    common(sub.add_parser("param-count"), runs=False)
    diag = sub.add_parser("diagnose")
    diag.add_argument("--model", required=True, help="model dump file")
    diag.add_argument("--graph", required=True, help="graph file")
    diag.add_argument("--out", default=".", help="output directory (default: .)")
    return parser


def _load_config(path, seed: int | None = None) -> RunConfig:
    cfg = parse_config_text("\n".join(read_lines(path)), str(path)) if path else RunConfig()
    if seed is not None:
        cfg.set("training.seed", seed)
        cfg.set("task.seed", seed)
        cfg.set("gradcheck.seed", seed)
        cfg.set("experiment.seeds", (seed,))
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
        # A value that overflows is an error or a diverged row, never a numpy warning.
        with np.errstate(all="ignore"):
            if args.command == "diagnose":
                return cmd_diagnose(args.model, args.graph, out_dir)
            if args.command == "param-count":
                return cmd_param_count(_load_config(args.config))
            if args.parallel < 1:
                raise ConfigError(f"--parallel must be >= 1, got {args.parallel}")
            cfg = _load_config(args.config, args.seed_override)
            code = _COMMANDS[args.command](cfg, out_dir, args.parallel)
        cfg.write(os.path.join(out_dir, "resolved_config.txt"))
        return code
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenProcessPool:
        print(f"error: {args.command}: a worker process died before every cell had "
              "returned; this run wrote no output", file=sys.stderr)
        return EXIT_WORKER
    except CellError as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return EXIT_WORKER


if __name__ == "__main__":
    sys.exit(main())
