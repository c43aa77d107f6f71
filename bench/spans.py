"""Span recorder for the traced benchmark run, and the per-layer metrics.

The recorder wraps the public functions of ``teleport_sr`` from outside the
package: it replaces every module attribute that callers look up (for
example ``analysis.estimate_fidelity`` and the ``cli._COMMANDS`` table) with
a wrapper that records a span, then restores the originals.  Nothing in the
package changes.

A span is ``{"id", "name", "start", "end", "parent", "thread", "op", "n"}``
with times in nanoseconds of ``time.perf_counter_ns``.  ``n`` is the work
count of the call (noise draws for ``sample``, trials for
``estimate_fidelity``, else 1).  A span opened on a worker thread with no
open span of its own takes the innermost open span of the main thread as its
parent, which attributes the sweep's thread-pool work to ``analysis.sweep``.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from collections import defaultdict

# Public functions per module, by the name their callers look up.
PUBLIC = {
    "cli": ("parse_run_config", "render_sweep_svg"),
    "analysis": ("sweep", "estimate_fidelity", "find_optimal_noise", "theorem_limit_check"),
    "channel": ("transmit_bits", "encode", "detect", "detection_probabilities"),
    "qstate": ("pauli_weights",),
}

MARK = "__bench_span__"


def _sample_count(args, kwargs):
    size = args[2] if len(args) > 2 else kwargs.get("size")
    return 1 if size is None else int(size)


def _trial_count(args, kwargs):
    return int(args[4] if len(args) > 4 else kwargs["trials"])


_COUNTS = {"analysis.estimate_fidelity": _trial_count}


_FIELDS = ("id", "name", "start", "end", "parent", "thread", "n")


class Recorder:
    """Records spans in memory while installed; ``spans()`` returns them."""

    def __init__(self, op: int = 0):
        self.op = op
        # Flat tuples, not dicts: the collector stops tracking tuples of
        # atoms, so tens of thousands of spans add no full-collection pauses
        # to the code being timed.
        self._spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._restore: list = []

    def wrap(self, name, fn, count=None):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tid = threading.get_ident()
            stack = recorder._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main = recorder._stacks.get(recorder._main)
                parent = main[-1] if main and tid != recorder._main else None
            sid = next(recorder._ids)
            n = count(args, kwargs) if count else 1
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                recorder._spans.append((sid, name, start, end, parent, tid, n))

        setattr(wrapper, MARK, True)
        return wrapper

    def spans(self) -> list[dict]:
        return [dict(zip(_FIELDS, span), op=self.op) for span in self._spans]

    def install(self) -> None:
        """Wrap the public layer functions in every module that binds them."""
        from teleport_sr import analysis, channel, cli, noise, qstate
        import teleport_sr

        modules = {"cli": cli, "analysis": analysis, "channel": channel,
                   "noise": noise, "qstate": qstate}
        holders = (teleport_sr, *modules.values())
        for mod_name, names in PUBLIC.items():
            for attr in names:
                original = getattr(modules[mod_name], attr)
                name = f"{mod_name}.{attr}"
                wrapper = self.wrap(name, original, _COUNTS.get(name))
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._set(holder, key, wrapper)
        for cls in noise.NoiseModel.__subclasses__():
            for meth in ("sample", "cdf"):
                if meth in vars(cls):
                    count = _sample_count if meth == "sample" else None
                    self._set(cls, meth, self.wrap(f"noise.{cls.__name__}.{meth}",
                                                   vars(cls)[meth], count))
        # Private, but the only place an empirical-CDF table is built.
        self._set(noise, "_empirical_cdf_table",
                  self.wrap("noise.cdf_table", noise._empirical_cdf_table))
        for key, fn in list(cli._COMMANDS.items()):
            self._set_item(cli._COMMANDS, key, self.wrap(f"cli.{fn.__name__}", fn))

    def _set(self, holder, key, value):
        self._restore.append((setattr, holder, key, vars(holder)[key]))
        setattr(holder, key, value)

    def _set_item(self, table, key, value):
        self._restore.append((dict.__setitem__, table, key, table[key]))
        table[key] = value

    def uninstall(self) -> None:
        while self._restore:
            put, holder, key, original = self._restore.pop()
            put(holder, key, original)


# --- span arithmetic -------------------------------------------------------

def covered(intervals, lo: int, hi: int) -> int:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0, lo
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the part its children cover (ns).

    Children on other threads may overlap one another; their union counts
    once.
    """
    kids = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            kids[s["parent"]].append((s["start"], s["end"]))
    return {s["id"]: s["end"] - s["start"] - covered(kids[s["id"]], s["start"], s["end"])
            for s in spans}


def _percentile(values, q: float, scale: float) -> float:
    """Nearest-rank ``q`` quantile of ``values`` over ``scale``; 0 if empty."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] / scale if ordered else 0.0


def layer_metrics(spans, info: dict) -> dict[str, float]:
    """Per-layer metrics of one operation from its spans.

    ``info`` carries what spans cannot: ``workers`` (sweep thread count),
    ``table_hits``/``table_misses`` (empirical-CDF cache), and
    ``rss_ready_kib``/``peak_rss_kib`` (resident memory before the commands
    and at peak).
    """
    by_id = {s["id"]: s for s in spans}
    self_ns = self_times(spans)
    kids = defaultdict(list)
    for s in spans:
        kids[s["parent"]].append(s)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def dur(s):
        return s["end"] - s["start"]

    def under(s, name):
        parent = s["parent"]
        while parent is not None:
            if by_id[parent]["name"] == name:
                return True
            parent = by_id[parent]["parent"]
        return False

    cells = named("analysis.estimate_fidelity")
    sweeps = named("analysis.sweep")
    tables = named("noise.cdf_table")
    samples = [s for s in spans if s["name"].endswith(".sample")]
    built = [t for t in tables if any(k["name"].endswith(".sample") for k in kids[t["id"]])]
    mc_samples = [s for s in samples if not under(s, "noise.cdf_table")]
    draws = sum(s["n"] for s in mc_samples)
    busy = [sum(dur(k) for k in kids[s["id"]]) / (dur(s) * info["workers"]) for s in sweeps]
    hits, misses = info["table_hits"], info["table_misses"]
    max_trials = max((s["n"] for s in cells), default=0)
    grown = (info["peak_rss_kib"] - info["rss_ready_kib"]) * 1024
    return {
        "cli.parse_run_config_ms": sum(dur(s) for s in named("cli.parse_run_config")) / 1e6,
        "cli.output_ms": sum(self_ns[s["id"]] for s in spans
                             if s["name"].startswith("cli.cmd_")) / 1e6,
        "cli.render_sweep_svg_ms": sum(dur(s) for s in named("cli.render_sweep_svg")) / 1e6,
        "analysis.cells": float(len(cells)),
        "analysis.cell_us_p50": _percentile([dur(s) for s in cells], 0.50, 1e3),
        "analysis.cell_us_p99": _percentile([dur(s) for s in cells], 0.99, 1e3),
        "analysis.cell_self_us": _percentile([self_ns[s["id"]] for s in cells], 0.5, 1e3),
        "analysis.sweep_self_ms": sum(self_ns[s["id"]] for s in sweeps) / 1e6,
        "analysis.pool_busy_frac": statistics.mean(busy) if busy else 0.0,
        "analysis.objective_evals": float(sum(
            under(s, "analysis.find_optimal_noise")
            for s in named("channel.detection_probabilities"))),
        "analysis.rss_bytes_per_trial": grown / max_trials if max_trials else 0.0,
        "channel.transmit_self_us": _percentile(
            [self_ns[s["id"]] for s in named("channel.transmit_bits")], 0.5, 1e3),
        "channel.encode_us": _percentile([dur(s) for s in named("channel.encode")], 0.5, 1e3),
        "channel.detect_us": _percentile([dur(s) for s in named("channel.detect")], 0.5, 1e3),
        "channel.detection_probabilities_us": _percentile(
            [dur(s) for s in named("channel.detection_probabilities")], 0.5, 1e3),
        "noise.draws": float(draws),
        "noise.sample_ns_per_draw": sum(dur(s) for s in mc_samples) / draws if draws else 0.0,
        "noise.cdf_calls": float(sum(s["name"].endswith(".cdf") for s in spans)),
        "noise.table_builds": float(misses),
        "noise.table_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "noise.table_build_ms": sum(dur(t) for t in built) / 1e6,
        "qstate.pauli_weights_calls": float(len(named("qstate.pauli_weights"))),
    }


# Units of the per-layer metrics, in the order they are reported.
LAYER_UNITS = {
    "cli.parse_run_config_ms": "ms",
    "cli.output_ms": "ms",
    "cli.render_sweep_svg_ms": "ms",
    "analysis.cells": "count",
    "analysis.cell_us_p50": "us",
    "analysis.cell_us_p99": "us",
    "analysis.cell_self_us": "us",
    "analysis.sweep_self_ms": "ms",
    "analysis.pool_busy_frac": "frac",
    "analysis.objective_evals": "count",
    "analysis.rss_bytes_per_trial": "B/trial",
    "channel.transmit_self_us": "us",
    "channel.encode_us": "us",
    "channel.detect_us": "us",
    "channel.detection_probabilities_us": "us",
    "noise.draws": "count",
    "noise.sample_ns_per_draw": "ns/draw",
    "noise.cdf_calls": "count",
    "noise.table_builds": "count",
    "noise.table_hit_ratio": "frac",
    "noise.table_build_ms": "ms",
    "qstate.pauli_weights_calls": "count",
    "trace_overhead_frac": "frac",
}
