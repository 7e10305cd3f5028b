"""Outside-in span tracer for the dyadsim modules.

Selected public functions of ``dynamics``, ``metrics``, ``sweep``, ``stats``,
``report`` and ``cli`` are wrapped by attribute substitution while a
``Tracer.installed()`` block is active, and restored when it ends.  Every
binding of a wrapped function in a loaded ``dyadsim`` module is replaced,
so names imported with ``from ... import`` (``sweep.simulate_batch``,
``sweep.pearson_rows``) are traced too.  No file of the package changes.

A span records its name, start, end, parent and an optional ``info`` value
computed from the call's arguments and result (rows, computed bytes,
column sets, file sizes).  Self time is a span's duration minus the time
covered by its direct child spans.
"""

import functools
import json
import os
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Span:
    __slots__ = ("sid", "name", "parent", "start", "end", "child", "info")

    def __init__(self, sid, name, parent):
        self.sid = sid
        self.name = name
        self.parent = parent  # sid of the enclosing span, or None
        self.start = self.end = 0.0
        self.child = 0.0  # time covered by direct children
        self.info = None

    @property
    def duration(self):
        return self.end - self.start


def _panel_span(args, kwargs):
    which = args[0] if args else kwargs["which"]
    return "report.histogram_panel" if which == "r_histogram" else f"report.{which}"


def _command_span(args, kwargs):
    argv = args[0] if args else kwargs["argv"]
    return f"cli.{argv[0]}"


def _written_bytes(args, kwargs, result):
    return sum(os.path.getsize(path) for path in result)


# (module, attribute, span name or name function, info function)
TARGETS = (
    ("dynamics", "NoiseSource.__init__", "dynamics.rng_setup", None),
    ("dynamics", "draw_run_inputs", "dynamics.draw",
     lambda a, k, r: 8 * (2 + 2 * a[0].turns)),
    ("dynamics", "simulate_batch", "dynamics.recurrence", lambda a, k, r: a[0].code()),
    ("dynamics", "simulate", "dynamics.simulate", lambda a, k, r: a[0].code()),
    ("metrics", "pearson_rows", "metrics.pearson_rows", lambda a, k, r: len(r)),
    ("metrics", "cross_correlation", "metrics.ccf", None),
    ("metrics", "aggregate_ccf", "metrics.aggregate_ccf", None),
    ("metrics", "turn_lags", "metrics.turn_lags", None),
    ("metrics", "histogram", "metrics.histogram", None),
    ("sweep", "run_sweep", "sweep.run_sweep", lambda a, k, r: len(r)),
    ("sweep", "derive_run_seed", "sweep.seed_derive", None),
    ("sweep", "write_sweep_csv", "sweep.csv_write",
     lambda a, k, r: os.path.getsize(a[1])),
    ("sweep", "read_sweep_csv", "sweep.csv_read", None),
    ("sweep", "tail_counts", "sweep.tail_counts", None),
    ("stats", "build_design", "stats.design", lambda a, k, r: r.X.size),
    ("stats", "fit_least_squares", "stats.fit", lambda a, k, r: tuple(a[2])),
    ("stats", "chi2_gof", "stats.chi2", None),
    ("stats", "chi2_two_proportion", "stats.chi2", None),
    ("report", "analyze", "report.analyze", None),
    ("report", "figure_data", _panel_span, None),
    ("report", "write_report", "report.write", _written_bytes),
    ("report", "write_payloads", "report.write", _written_bytes),
    ("cli", "main", _command_span, None),
)


class Tracer:
    """Collects spans from the wrapped dyadsim functions."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.spans = []
        self._stack = []

    def _wrap(self, fn, name, info):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            parent = stack[-1] if stack else None
            span = Span(len(spans), name(args, kwargs) if callable(name) else name,
                        None if parent is None else parent.sid)
            spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child += span.end - span.start
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Substitute traced wrappers into every dyadsim module binding."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "dyadsim" or key.startswith("dyadsim.")]
        saved = []
        try:
            for module_name, attr, name, info in TARGETS:
                owner = sys.modules[f"dyadsim.{module_name}"]
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                traced = self._wrap(original, name, info)
                bindings = [(owner, leaf)] + [
                    (mod, key) for mod in modules for key, value in vars(mod).items()
                    if value is original and (mod, key) != (owner, leaf)
                ]
                for target, key in bindings:
                    saved.append((target, key, original))
                    setattr(target, key, traced)
            yield self
        finally:
            for target, key, original in reversed(saved):
                setattr(target, key, original)

    def dump(self, path):
        """Write the spans as JSON lines: sid, name, parent, start, end, info."""
        with open(path, "w") as fh:
            for s in self.spans:
                info = list(s.info) if isinstance(s.info, tuple) else s.info
                fh.write(json.dumps([s.sid, s.name, s.parent, s.start, s.end, info]) + "\n")


def _under_panel(span, spans):
    parent = span.parent
    while parent is not None:
        ancestor = spans[parent]
        if ancestor.name.startswith("report.") and ancestor.name.endswith("_panel"):
            return True
        parent = ancestor.parent
    return False


def layer_metrics(spans):
    """Per-layer times (s) and counts for the spans of one pipeline iteration.

    Times are self times, except the ``report.*_panel_s`` figure panels,
    which are the panel's whole duration.
    """
    own = defaultdict(float)
    total = defaultdict(float)
    calls = Counter()
    info = defaultdict(list)
    for s in spans:
        own[s.name] += s.duration - s.child
        total[s.name] += s.duration
        calls[s.name] += 1
        if s.info is not None:
            info[s.name].append(s.info)
    panel_sims = [s.info for s in spans
                  if s.name in ("dynamics.recurrence", "dynamics.simulate")
                  and _under_panel(s, spans)]
    panel_batches = sum(1 for s in spans
                        if s.name == "dynamics.recurrence" and _under_panel(s, spans))
    fits = info["stats.fit"]
    return {
        "dynamics.rng_setup_s": own["dynamics.rng_setup"],
        "dynamics.streams": calls["dynamics.rng_setup"],
        "dynamics.draw_s": own["dynamics.draw"],
        "dynamics.draw_bytes": sum(info["dynamics.draw"]),
        "dynamics.recurrence_s": own["dynamics.recurrence"],
        "dynamics.batch_calls": calls["dynamics.recurrence"],
        "dynamics.simulate_s": own["dynamics.simulate"],
        "metrics.pearson_rows_s": own["metrics.pearson_rows"],
        "metrics.pearson_rows_calls": calls["metrics.pearson_rows"],
        "metrics.pearson_rows_rows": sum(info["metrics.pearson_rows"]),
        "metrics.ccf_s": own["metrics.ccf"],
        "metrics.ccf_calls": calls["metrics.ccf"],
        "metrics.aggregate_ccf_s": own["metrics.aggregate_ccf"],
        "metrics.turn_lags_s": own["metrics.turn_lags"],
        "metrics.turn_lags_calls": calls["metrics.turn_lags"],
        "metrics.histogram_s": own["metrics.histogram"],
        "sweep.run_sweep_self_s": own["sweep.run_sweep"],
        "sweep.rows": sum(info["sweep.run_sweep"]),
        "sweep.csv_write_s": own["sweep.csv_write"],
        "sweep.csv_bytes": sum(info["sweep.csv_write"]),
        "sweep.seed_derivations": calls["sweep.seed_derive"],
        "sweep.seed_derive_s": own["sweep.seed_derive"],
        "sweep.csv_read_s": own["sweep.csv_read"],
        "sweep.tail_counts_s": own["sweep.tail_counts"],
        "stats.design_s": own["stats.design"],
        "stats.design_cells": sum(info["stats.design"]),
        "stats.fit_s": own["stats.fit"],
        "stats.fit_calls": len(fits),
        "stats.fit_distinct_ratio": len(set(fits)) / len(fits) if fits else 0.0,
        "stats.chi2_s": own["stats.chi2"],
        "report.analyze_self_s": own["report.analyze"],
        "report.ccf_panel_s": total["report.ccf_panel"],
        "report.lag_panel_s": total["report.lag_panel"],
        "report.trajectory_panel_s": total["report.trajectory_panel"],
        "report.histogram_panel_s": total["report.histogram_panel"],
        "report.panel_batches": panel_batches,
        "report.panel_reuse_ratio": (
            len(set(panel_sims)) / len(panel_sims) if panel_sims else 0.0
        ),
        "report.write_s": own["report.write"],
        "report.bytes_written": sum(info["report.write"]),
        "cli.self_s": sum(v for k, v in own.items() if k.startswith("cli.")),
    }
