"""Span tracing of the library's public functions, from outside the library.

``Tracer.patch`` wraps each function named in ``TRACED`` and rebinds every
module-level name in the ``siggate`` package that refers to it, so calls
made through ``from .x import f`` bindings are traced as well as calls
through the defining module. Spans stay in memory until ``write`` is
called; self time is derived from the parent links.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time

# (module, attribute path) of every traced function, in report order.
TRACED = (
    ("training", "finite_difference_check"),
    ("training", "batch_loss"),
    ("training", "loss_and_gradients"),
    ("training", "adamw_step"),
    ("training", "train_toy"),
    ("training", "evaluate"),
    ("gps", "model_forward"),
    ("gps", "gps_layer_forward"),
    ("gps", "layer_norm"),
    ("gps", "mpnn_forward"),
    ("attention", "siggate_mhsa"),
    ("attention", "gated_head_forward"),
    ("autodiff", "backward"),
    ("numeric", "SeededRng.standard_normal"),
    ("numeric", "top_singular_value"),
    ("numeric", "row_softmax"),
    ("diagnostics", "stable_rank"),
    ("synthexp", "calibrate_gate"),
    ("synthexp", "run_rank_experiment"),
    ("synthexp", "make_toy_task"),
    ("diagnostics", "mad"),
    ("diagnostics", "attention_entropy"),
    ("diagnostics", "depth_profile"),
    ("diagnostics", "gate_stats"),
)

SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, attr in TRACED)


class Tracer:
    """Records one span per traced call: (id, parent id, name, start, end, unit)."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, float, float, str]] = []
        self.unit = "setup"
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, index: int, fn):
        spans = self.spans
        stack = self._stack
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, index, start, end, self.unit))

        return traced

    def patch(self) -> None:
        """Swap every binding of each traced function for its wrapper."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "siggate" or name.startswith("siggate."))]
        for index, (mod, attr) in enumerate(TRACED):
            owner = sys.modules[f"siggate.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._rebind(cls, meth, self._wrap(index, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(index, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, name, wrapper)

    def _rebind(self, holder, name: str, new) -> None:
        self._restore.append((holder, name, vars(holder)[name]))
        setattr(holder, name, new)

    def unpatch(self) -> None:
        for holder, name, old in reversed(self._restore):
            setattr(holder, name, old)
        self._restore.clear()

    def __enter__(self):
        self.patch()
        return self

    def __exit__(self, *exc):
        self.unpatch()
        return False

    def summary(self) -> dict[str, dict[str, float]]:
        """Per function: call count, total seconds and self seconds."""
        position = {span[0]: pos for pos, span in enumerate(self.spans)}
        child_time = [0.0] * len(self.spans)
        for _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child_time[position[parent]] += end - start
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        for pos, (_, _, index, start, end, _) in enumerate(self.spans):
            row = out[SPAN_NAMES[index]]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[pos]
        return out

    def write(self, path) -> None:
        """One CSV row per span; times are seconds from the first span's start."""
        t0 = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,name,start_s,end_s,unit\n")
            for span_id, parent, index, start, end, unit in sorted(self.spans):
                fh.write(f"{span_id},{parent},{SPAN_NAMES[index]},"
                         f"{start - t0:.9f},{end - t0:.9f},{unit}\n")

