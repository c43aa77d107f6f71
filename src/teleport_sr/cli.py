"""Command-line front end: config-driven analyses with CSV/JSON/SVG output.

Every command is a pure function of the config file and the seed, so reruns
produce byte-identical output.  Commands:

    weights         Pauli weights of the configured state
    check-interval  forbidden interval and noise-benefit prediction
    probs           conditional detection probabilities
    simulate        Monte Carlo fidelity estimate
    sweep           fidelity vs noise scale; writes CSV + JSON (+ SVG)
    optimum         best noise scale (a 16-point scan, refined by golden section)
    theorem-check   vanishing-noise fidelity limit

Options may come before or after the command name.  Every command takes
``--config`` (required) and ``--seed``; ``sweep`` also takes ``--out`` and
``--svg``/``--no-svg``, and every other command takes ``--format json|csv``.
An option the command does not take is an unrecognized argument (exit 2).

The config format lives here only: every section is an object with no unknown
keys and its required keys, and an error names the section and the key.  The
channel, resource and noise keys are the fields of the dataclass they build.
``config_to_json`` writes them back, and parsing its output is exact.

Exit codes: 0 success, 2 invalid config, 3 unwritable output, 4 monotone
regime (no interior optimum: the noise center inside the forbidden interval
or on an endpoint).  The TELEPORT_SR_THREADS environment variable
sets the sweep worker count (1 when unset); results do not depend on it.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import os
import sys
import xml.etree.ElementTree as ET
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from . import __version__
from .analysis import (
    EntanglementResource,
    MonotoneRegimeError,
    SweepResult,
    analytic_at,
    check_scales,
    default_scale_grid,
    estimate_fidelity,
    find_optimal_noise,
    sweep,
    theorem_limit_check,
)
from .channel import (
    ChannelConfig,
    center_regime,
    detection_probabilities,
    forbidden_interval,
    sr_predicted,
)
from .noise import (
    AlphaStable,
    Gaussian,
    Laplace,
    NoiseModel,
    Uniform,
    finite_real,
    integer_at_least,
)
from .qstate import QubitState, pauli_weights

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_MONOTONE = 4

_ENV_THREADS = "TELEPORT_SR_THREADS"

_TOP_KEYS = {"state", "channel", "noise", "resource", "sweep", "seed", "out_dir"}
_SWEEP_KEYS = {"scales", "bounds", "count", "runs", "trials", "window", "small_scales"}
_NOISE_KINDS = {cls.kind: cls for cls in (Gaussian, Uniform, Laplace, AlphaStable)}

_DEFAULT_SMALL_SCALES = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


@dataclass(frozen=True)
class RunConfig:
    state: QubitState
    channel: ChannelConfig
    noise: NoiseModel
    resource: EntanglementResource
    scales: tuple[float, ...]
    bounds: tuple[float, float]
    runs: int
    trials: int
    window: int
    small_scales: tuple[float, ...]
    seed: int
    out_dir: str


def _section(spec, where: str, keys, required=()) -> dict:
    """One rule for every config section: an object, no unknown keys, ``required`` present."""
    if not isinstance(spec, dict):
        raise ValueError(f"{where} must be an object, got {type(spec).__name__}")
    unknown = set(spec) - set(keys)
    if unknown:
        raise ValueError(f"unknown {where} keys: {sorted(unknown)}")
    for key in required:
        if key not in spec:
            raise ValueError(f"{where} missing key {key!r}")
    return spec


def _build(cls, spec, where: str, extra=()):
    """``cls`` from a section keyed by its fields (plus ``extra``); no default means required."""
    names = tuple(f.name for f in fields(cls))
    _section(spec, where, names + extra, [f.name for f in fields(cls) if f.default is MISSING])
    return cls(**{name: spec[name] for name in names if name in spec})


def _parse_amplitude(value, where: str) -> complex:
    """A number, or an ``[re, im]`` pair of numbers."""
    if isinstance(value, list) and len(value) == 2:
        return complex(finite_real(value[0], where), finite_real(value[1], where))
    return complex(finite_real(value, where))


def _parse_state(spec) -> QubitState:
    if isinstance(spec, str):
        return QubitState.preset(spec)
    _section(spec, "state", ("alpha", "beta", "normalize"), ("alpha", "beta"))
    alpha = _parse_amplitude(spec["alpha"], "state.alpha")
    beta = _parse_amplitude(spec["beta"], "state.beta")
    normalize = spec.get("normalize", False)
    if not isinstance(normalize, bool):
        raise ValueError(f"state.normalize must be a boolean, got {normalize!r}")
    return QubitState.normalized(alpha, beta) if normalize else QubitState(alpha, beta)


def _parse_noise(spec) -> NoiseModel:
    # Only the object check here: the allowed keys depend on the kind.
    kind = _section(spec, "noise", spec).get("kind")
    if not isinstance(kind, str) or kind not in _NOISE_KINDS:
        raise ValueError(f"unknown noise kind {kind!r}; expected one of {sorted(_NOISE_KINDS)}")
    return _build(_NOISE_KINDS[kind], spec, f"{kind} noise", extra=("kind",))


def _scale_list(values, where: str, descending: bool = False) -> tuple[float, ...]:
    if not isinstance(values, list):
        raise ValueError(f"{where} must be a list of numbers")
    return check_scales(values, where, descending)


def _parse_sweep_section(spec):
    _section(spec, "sweep", _SWEEP_KEYS)
    if "scales" in spec and ("bounds" in spec or "count" in spec):
        raise ValueError("sweep accepts either scales or bounds+count, not both")
    bounds = (0.01, 3.0)
    if "bounds" in spec:
        bounds = _scale_list(spec["bounds"], "sweep.bounds")
        if len(bounds) != 2:
            raise ValueError("sweep.bounds must be [lo, hi]")
    if "scales" in spec:
        scales = _scale_list(spec["scales"], "sweep.scales")
        bounds = (scales[0], scales[-1])
        if len(scales) < 2:
            bounds = (scales[0] / 2, scales[0])
    else:
        count = integer_at_least(spec.get("count", 60), "sweep.count", 1)
        scales = default_scale_grid(count, bounds[0], bounds[1])
    runs = integer_at_least(spec.get("runs", 100), "sweep.runs", 1)
    trials = integer_at_least(spec.get("trials", 10_000), "sweep.trials", 1)
    window = integer_at_least(spec.get("window", 5), "sweep.window", 1)
    if window % 2 == 0:
        raise ValueError(f"sweep.window must be odd, got {window}")
    small_scales = _DEFAULT_SMALL_SCALES
    if "small_scales" in spec:
        small_scales = _scale_list(spec["small_scales"], "sweep.small_scales", descending=True)
    return scales, bounds, runs, trials, window, small_scales


def parse_run_config(raw, seed_override: int | None = None) -> RunConfig:
    """Validate a raw config mapping: any violation, unknown keys included, is a ValueError."""
    _section(raw, "config", _TOP_KEYS, ("state", "channel", "noise"))
    state = _parse_state(raw["state"])
    chan = _build(ChannelConfig, raw["channel"], "channel")
    model = _parse_noise(raw["noise"])
    # A null optional section means its defaults, like an empty one.
    optional = {key: {} if raw.get(key) is None else raw[key] for key in ("resource", "sweep")}
    resource = _build(EntanglementResource, optional["resource"], "resource")
    scales, bounds, runs, trials, window, small_scales = _parse_sweep_section(optional["sweep"])
    seed = raw.get("seed", 0) if seed_override is None else seed_override
    integer_at_least(seed, "seed", 0)
    out_dir = raw.get("out_dir", ".")
    if not isinstance(out_dir, str):
        raise ValueError(f"out_dir must be a string, got {out_dir!r}")
    return RunConfig(
        state=state, channel=chan, noise=model, resource=resource,
        scales=scales, bounds=bounds, runs=runs, trials=trials, window=window,
        small_scales=small_scales, seed=seed, out_dir=out_dir,
    )


def config_to_json(cfg: RunConfig) -> dict:
    """Canonical config mapping; re-parsing it reproduces ``cfg``.

    A grid that ``bounds`` and its length rebuild is written as ``bounds`` +
    ``count``, any other grid as ``scales``.
    """
    if cfg.scales == default_scale_grid(len(cfg.scales), *cfg.bounds):
        grid = {"bounds": list(cfg.bounds), "count": len(cfg.scales)}
    else:
        grid = {"scales": list(cfg.scales)}
    return {
        "state": {
            "alpha": [cfg.state.alpha.real, cfg.state.alpha.imag],
            "beta": [cfg.state.beta.real, cfg.state.beta.imag],
        },
        "channel": asdict(cfg.channel),
        "noise": {"kind": cfg.noise.kind, **asdict(cfg.noise)},
        "resource": asdict(cfg.resource),
        "sweep": {
            **grid,
            "runs": cfg.runs,
            "trials": cfg.trials,
            "window": cfg.window,
            "small_scales": list(cfg.small_scales),
        },
        "seed": cfg.seed,
        "out_dir": cfg.out_dir,
    }


def config_hash(cfg: RunConfig) -> str:
    canonical = json.dumps(config_to_json(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _worker_count() -> int:
    raw = os.environ.get(_ENV_THREADS, "1")
    try:
        return integer_at_least(int(raw), _ENV_THREADS, 1)
    except ValueError:  # one message, quoting the text as set, whichever check failed
        raise ValueError(f"{_ENV_THREADS} must be an integer >= 1, got {raw!r}") from None


def _emit(mapping: dict, fmt: str) -> None:
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(("key", "value"))
        for key, value in mapping.items():
            text = value if isinstance(value, str) else json.dumps(value, separators=(",", ":"))
            writer.writerow((key, text))
    else:
        print(json.dumps(mapping, separators=(",", ":")))


# --- command handlers ------------------------------------------------------

def cmd_weights(cfg: RunConfig, args) -> int:
    w = pauli_weights(cfg.state)
    _emit({"qx": w.qx, "qz": w.qz, "qxz": w.qxz}, args.format)
    return EXIT_OK


def cmd_check_interval(cfg: RunConfig, args) -> int:
    interval = forbidden_interval(cfg.channel)
    _emit({
        "interval": [interval.lo, interval.hi],
        "center": cfg.noise.center,
        "regime": center_regime(cfg.channel, cfg.noise),
        "sr_predicted": sr_predicted(cfg.channel, cfg.noise),
        "theorem": cfg.noise.theorem,
    }, args.format)
    return EXIT_OK


def cmd_probs(cfg: RunConfig, args) -> int:
    stats = detection_probabilities(cfg.channel, cfg.noise)
    exact = cfg.noise.has_exact_cdf
    _emit({
        "p00": stats.p00, "p01": stats.p01, "p10": stats.p10, "p11": stats.p11,
        "P": stats.P, "cdf_exact": exact, "cdf_draws": None if exact else cfg.noise.cdf_draws,
    }, args.format)
    return EXIT_OK


def cmd_simulate(cfg: RunConfig, args) -> int:
    estimate = estimate_fidelity(cfg.state, cfg.channel, cfg.noise, cfg.resource, cfg.trials,
                                 np.random.default_rng(cfg.seed))
    analytic = analytic_at(pauli_weights(cfg.state), cfg.channel, cfg.noise, cfg.resource)
    _emit({
        "fidelity_estimate": estimate,
        "analytic_fidelity": analytic,
        "trials": cfg.trials,
        "seed": cfg.seed,
    }, args.format)
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, args) -> int:
    result = sweep(
        cfg.state, cfg.channel, cfg.noise, cfg.scales, cfg.runs, cfg.trials,
        cfg.resource, smoothing_window=cfg.window, master_seed=cfg.seed,
        workers=_worker_count(),
    )
    out_dir = args.out if args.out is not None else cfg.out_dir
    digest = config_hash(cfg)
    try:
        os.makedirs(out_dir, exist_ok=True)
        csv_path = os.path.join(out_dir, "sweep.csv")
        json_path = os.path.join(out_dir, "sweep.json")
        _write_atomic(csv_path, result.to_csv())
        payload = {"config": config_to_json(cfg), "config_sha256": digest,
                   "teleport_sr_version": __version__, "numpy_version": np.__version__}
        payload.update(result.to_json_dict())
        _write_atomic(json_path, json.dumps(payload, sort_keys=True, indent=2) + "\n")
        svg_path = None
        if args.svg:
            svg_path = os.path.join(out_dir, "sweep.svg")
            _write_atomic(svg_path, render_sweep_svg(result, digest))
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_IO
    _emit({"csv": csv_path, "json": json_path, "svg": svg_path}, "json")
    return EXIT_OK


def cmd_optimum(cfg: RunConfig, args) -> int:
    try:
        best = find_optimal_noise(cfg.state, cfg.channel, cfg.noise, cfg.resource, cfg.bounds)
    except MonotoneRegimeError as exc:
        _emit({
            "regime": "monotone",
            "center": exc.center,
            "interval": [exc.interval.lo, exc.interval.hi],
        }, args.format)
        return EXIT_MONOTONE
    _emit({
        "scale_opt": best.scale,
        "fidelity_opt": best.fidelity,
        "bounds": list(cfg.bounds),
    }, args.format)
    return EXIT_OK


def cmd_theorem_check(cfg: RunConfig, args) -> int:
    report = theorem_limit_check(
        cfg.state, cfg.channel, cfg.noise, cfg.resource, cfg.small_scales
    )
    _emit({
        "theorem": cfg.noise.theorem,
        "center": report.center,
        "interval": list(report.interval),
        "regime": report.regime,
        "center_inside": report.center_inside,
        "expected_limit": report.expected_limit,
        "tolerance": report.tolerance,
        "within_tolerance": report.within_tolerance,
        "rows": [
            {"scale": s, "analytic_f": f}
            for s, f in zip(report.scales, report.analytic_f)
        ],
    }, args.format)
    return EXIT_OK


# --- output plumbing -------------------------------------------------------

def _write_atomic(path: str, text: str) -> None:
    tmp = f"{path}.{os.getpid()}.tmp"  # made by open(), so its mode follows the umask
    handle = open(tmp, "x", encoding="utf-8")
    try:
        with handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def render_sweep_svg(result: SweepResult, digest: str) -> str:
    """A self-contained line plot of the sweep: no plotting library involved.

    Shows the smoothed Monte Carlo curve (thick), the per-scale min/max band
    (dotted), and horizontal references at the classical limit 2/3 and the
    protocol floor 1/2.  The config hash rides along as an XML comment.
    """
    width, height = 720, 480
    m_left, m_right, m_top, m_bottom = 72, 24, 24, 56
    xs = result.scales
    x_max = max(xs)
    y_lo = min(0.48, min(result.mc_min) - 0.01)
    y_hi = max(0.70, max(result.mc_max) + 0.01)

    def px(x: float) -> float:
        return m_left + (width - m_left - m_right) * x / x_max

    def py(y: float) -> float:
        return height - m_bottom - (height - m_top - m_bottom) * (y - y_lo) / (y_hi - y_lo)

    def points(values) -> str:
        return " ".join(f"{px(x):.2f},{py(v):.2f}" for x, v in zip(xs, values))

    svg = ET.Element("svg", {
        "xmlns": "http://www.w3.org/2000/svg",
        "width": str(width), "height": str(height),
        "viewBox": f"0 0 {width} {height}",
    })
    svg.append(ET.Comment(f" config-sha256:{digest} "))
    ET.SubElement(svg, "rect", {"x": "0", "y": "0", "width": str(width),
                                "height": str(height), "fill": "white"})

    axes = ET.SubElement(svg, "g", {"stroke": "black", "stroke-width": "1"})
    ET.SubElement(axes, "line", {"x1": f"{m_left}", "y1": f"{py(y_lo):.2f}",
                                 "x2": f"{width - m_right}", "y2": f"{py(y_lo):.2f}"})
    ET.SubElement(axes, "line", {"x1": f"{m_left}", "y1": f"{py(y_lo):.2f}",
                                 "x2": f"{m_left}", "y2": f"{m_top}"})

    labels = ET.SubElement(svg, "g", {"font-family": "sans-serif", "font-size": "12",
                                      "fill": "black"})
    ticks = ET.SubElement(svg, "g", {"stroke": "black", "stroke-width": "1"})
    for i in range(7):
        x = x_max * i / 6
        ET.SubElement(ticks, "line", {"x1": f"{px(x):.2f}", "y1": f"{py(y_lo):.2f}",
                                      "x2": f"{px(x):.2f}", "y2": f"{py(y_lo) + 5:.2f}"})
        tick = ET.SubElement(labels, "text", {"x": f"{px(x):.2f}", "y": f"{py(y_lo) + 20:.2f}",
                                              "text-anchor": "middle"})
        tick.text = f"{x:.2f}"
    for i in range(6):
        y = y_lo + (y_hi - y_lo) * i / 5
        ET.SubElement(ticks, "line", {"x1": f"{m_left - 5}", "y1": f"{py(y):.2f}",
                                      "x2": f"{m_left}", "y2": f"{py(y):.2f}"})
        tick = ET.SubElement(labels, "text", {"x": f"{m_left - 9}", "y": f"{py(y) + 4:.2f}",
                                              "text-anchor": "end"})
        tick.text = f"{y:.3f}"

    x_label = ET.SubElement(labels, "text", {"x": f"{(m_left + width - m_right) / 2:.2f}",
                                             "y": f"{height - 14}", "text-anchor": "middle"})
    x_label.text = "noise scale"
    y_label = ET.SubElement(labels, "text", {
        "x": "18", "y": f"{(m_top + height - m_bottom) / 2:.2f}", "text-anchor": "middle",
        "transform": f"rotate(-90 18 {(m_top + height - m_bottom) / 2:.2f})",
    })
    y_label.text = "teleportation fidelity"

    for ref, name in ((2.0 / 3.0, "classical limit"), (0.5, "fidelity floor")):
        if not y_lo <= ref <= y_hi:
            continue
        ET.SubElement(svg, "line", {
            "x1": f"{m_left}", "y1": f"{py(ref):.2f}",
            "x2": f"{width - m_right}", "y2": f"{py(ref):.2f}",
            "stroke": "gray", "stroke-width": "1", "stroke-dasharray": "6,4",
        })
        caption = ET.SubElement(svg, "text", {
            "x": f"{width - m_right - 4}", "y": f"{py(ref) - 4:.2f}",
            "text-anchor": "end", "font-family": "sans-serif",
            "font-size": "12", "fill": "gray",
        })
        caption.text = name

    for band in (result.mc_min, result.mc_max):
        ET.SubElement(svg, "polyline", {
            "points": points(band), "fill": "none",
            "stroke": "steelblue", "stroke-width": "1", "stroke-dasharray": "2,4",
        })
    ET.SubElement(svg, "polyline", {
        "points": points(result.mc_smoothed), "fill": "none",
        "stroke": "black", "stroke-width": "2.5",
    })
    return '<?xml version="1.0" encoding="UTF-8"?>\n' + ET.tostring(svg, encoding="unicode") + "\n"


# --- argument parsing ------------------------------------------------------

_COMMANDS = {
    "weights": cmd_weights,
    "check-interval": cmd_check_interval,
    "probs": cmd_probs,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "optimum": cmd_optimum,
    "theorem-check": cmd_theorem_check,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One flat parser for every command, built on first use: not at import,
    and once per process.  ``main`` refuses the options a command does not take.
    """
    parser = argparse.ArgumentParser(
        prog="teleport-sr",
        description="Noise-benefit analysis of teleportation with thresholded classical feedforward.",
    )
    parser.add_argument("command", choices=tuple(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None,
                        help="sweep only: output directory (default: config out_dir)")
    parser.add_argument("--svg", action=argparse.BooleanOptionalAction, default=None,
                        help="sweep only: also render sweep.svg (default: yes)")
    parser.add_argument("--format", choices=("json", "csv"), default=None,
                        help="every command but sweep: stdout format (default: json)")
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "sweep":
        refused = [] if args.format is None else [f"--format {args.format}"]
    else:
        refused = [] if args.out is None else [f"--out {args.out}"]
        if args.svg is not None:
            refused.append("--svg" if args.svg else "--no-svg")
    if refused:
        parser.error(f"unrecognized arguments: {' '.join(refused)}")
    args.svg = args.svg is not False
    args.format = args.format or "json"
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = parse_run_config(raw, seed_override=args.seed)
        return _COMMANDS[args.command](cfg, args)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
