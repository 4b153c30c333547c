"""Flat ``key = value`` run configuration.

One assignment per line, ``#`` lines are comments, lists are
comma-separated. Keys are namespaced by section prefix (``model.``,
``training.``, ``task.``, ``experiment.``, ``gradcheck.``) but the format
is flat: no nesting, no quoting. Unknown keys and malformed lines are
errors that carry the line number, so typos never pass silently. Every
run writes its fully resolved configuration back out; re-running from
that echo reproduces the outputs bitwise.
"""

from __future__ import annotations

from .attention import GATE_ACTIVATIONS, PLACEMENTS, SHARINGS
from .gps import READOUTS
from .synthexp import C_SWEEP, RHO_SWEEP
from .training import LOSSES

__all__ = ["ConfigError", "RunConfig", "parse_config", "parse_config_text", "SCHEMA"]


class ConfigError(ValueError):
    """Bad configuration file: unknown key, bad value, or syntax error."""


def _parse_bool(tok: str) -> bool:
    t = tok.strip().lower()
    if t == "true":
        return True
    if t == "false":
        return False
    raise ValueError(f"expected 'true' or 'false', got {tok!r}")


def _parse_choice(*options):
    def parse(tok: str) -> str:
        t = tok.strip()
        if t not in options:
            raise ValueError(f"expected one of {options}, got {tok!r}")
        return t

    return parse


def _parse_list(item):
    def parse(tok: str):
        return tuple(item(t.strip()) for t in tok.split(",") if t.strip())

    return parse


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(_render(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


# key -> (parser, default)
SCHEMA: dict[str, tuple] = {
    # GPS model used by training-flavoured commands
    "model.d_in": (int, 4),
    "model.d": (int, 16),
    "model.heads": (int, 4),
    "model.layers": (int, 2),
    "model.d_ff": (int, 0),  # 0 means 2 * model.d
    "model.out_dim": (int, 1),
    "model.readout": (_parse_choice(*READOUTS), "mean"),
    "model.placement": (_parse_choice(*PLACEMENTS), "g1"),
    "model.sharing": (_parse_choice(*SHARINGS), "per_head"),
    "model.activation": (_parse_choice(*GATE_ACTIVATIONS), "sigmoid"),
    "model.bias_init": (float, 0.5),
    # toy training
    "training.lr": (float, 1e-3),
    "training.weight_decay": (float, 1e-5),
    "training.epochs": (int, 150),
    "training.seed": (int, 0),
    "training.loss": (_parse_choice(*LOSSES), "mae"),
    "training.lrs": (_parse_list(float), (5e-4, 1e-3, 2e-3, 3e-3, 5e-3)),
    # synthetic regression task
    "task.seed": (int, 0),
    "task.n_graphs": (int, 24),
    "task.nodes": (int, 8),
    "task.edge_prob": (float, 0.35),
    # stable-rank experiment
    "experiment.n": (int, 64),
    "experiment.d": (int, 256),
    "experiment.heads": (int, 8),
    "experiment.d_k": (int, 32),
    "experiment.rho": (float, 0.20),
    "experiment.c": (float, 1.0),
    "experiment.seeds": (_parse_list(int), (0, 1, 2, 3, 4)),
    "experiment.target_gate_mean": (float, 0.58),
    "experiment.target_gate_std": (float, 0.19),
    "experiment.robustness": (_parse_bool, False),
    "experiment.c_sweep": (_parse_list(float), C_SWEEP),
    "experiment.rho_sweep": (_parse_list(float), RHO_SWEEP),
    # gradient check
    "gradcheck.h": (float, 1e-5),
    "gradcheck.exhaustive": (_parse_bool, True),
    "gradcheck.samples": (int, 100),
    "gradcheck.nodes": (int, 6),
    "gradcheck.seed": (int, 0),
    "gradcheck.tolerance": (float, 1e-5),
    "gradcheck.placements": (_parse_list(_parse_choice(*PLACEMENTS)), PLACEMENTS),
    "gradcheck.activations": (_parse_list(_parse_choice(*GATE_ACTIVATIONS)), GATE_ACTIVATIONS),
}


class RunConfig:
    """Resolved configuration: schema defaults overlaid with file values."""

    def __init__(self, overrides: dict | None = None):
        self._values = {k: default for k, (_, default) in SCHEMA.items()}
        if overrides:
            for k, v in overrides.items():
                if k not in SCHEMA:
                    raise ConfigError(f"unknown configuration key {k!r}")
                self._values[k] = v

    def __getitem__(self, key: str):
        return self._values[key]

    def set(self, key: str, value) -> None:
        if key not in SCHEMA:
            raise ConfigError(f"unknown configuration key {key!r}")
        self._values[key] = value

    def render(self) -> str:
        """Full configuration in the input format; parsing it back is lossless."""
        return "\n".join(f"{k} = {_render(v)}" for k, v in self._values.items()) + "\n"

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.render())


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    overrides: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown configuration key {key!r}")
        if key in overrides:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        parser, _ = SCHEMA[key]
        try:
            overrides[key] = parser(val.strip())
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
    return RunConfig(overrides)


def parse_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))
