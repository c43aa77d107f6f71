"""Command-line front end: config-driven analyses with CSV/JSON/SVG output.

Every command is a pure function of the config file and the seed, so reruns
produce byte-identical output.  Subcommands:

    weights         Pauli weights of the configured state
    check-interval  forbidden interval and noise-benefit prediction
    probs           conditional detection probabilities
    simulate        Monte Carlo fidelity estimate
    sweep           fidelity vs noise scale; writes CSV + JSON (+ SVG)
    optimum         best noise scale by golden-section search
    theorem-check   vanishing-noise fidelity limit

Exit codes: 0 success, 2 invalid config, 3 unwritable output, 4 monotone
regime (no interior optimum).  The TELEPORT_SR_THREADS environment variable
caps the sweep worker count; results do not depend on it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import xml.etree.ElementTree as ET
from dataclasses import dataclass

import numpy as np

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
    channel_from_json,
    channel_to_json,
    detection_probabilities,
    forbidden_interval,
    sr_predicted,
)
from .noise import (
    NoiseModel,
    classify,
    finite_real,
    integer_at_least,
    noise_from_json,
    noise_to_json,
)
from .qstate import QubitState, pauli_weights

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_MONOTONE = 4

_ENV_THREADS = "TELEPORT_SR_THREADS"

_TOP_KEYS = {"state", "channel", "noise", "resource", "sweep", "seed", "out_dir"}
_SWEEP_KEYS = {"scales", "bounds", "count", "runs", "trials", "window", "small_scales"}

_DEFAULT_SMALL_SCALES = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


class ConfigError(ValueError):
    """A config file violated an invariant; the message names it."""


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


def _parse_amplitude(value, where: str) -> complex:
    """A number, or an ``[re, im]`` pair of numbers."""
    if isinstance(value, list) and len(value) == 2:
        return complex(finite_real(value[0], where), finite_real(value[1], where))
    return complex(finite_real(value, where))


def _parse_state(spec) -> QubitState:
    if isinstance(spec, str):
        return QubitState.preset(spec)
    if not isinstance(spec, dict):
        raise ConfigError("state must be a preset name or an object with alpha/beta")
    unknown = set(spec) - {"alpha", "beta", "normalize"}
    if unknown:
        raise ConfigError(f"unknown state keys: {sorted(unknown)}")
    if "alpha" not in spec or "beta" not in spec:
        raise ConfigError("state object requires both alpha and beta")
    alpha = _parse_amplitude(spec["alpha"], "state.alpha")
    beta = _parse_amplitude(spec["beta"], "state.beta")
    normalize = spec.get("normalize", False)
    if not isinstance(normalize, bool):
        raise ConfigError(f"state.normalize must be a boolean, got {normalize!r}")
    return QubitState.normalized(alpha, beta) if normalize else QubitState(alpha, beta)


def _parse_resource(spec) -> EntanglementResource:
    if spec is None:
        return EntanglementResource()
    if not isinstance(spec, dict):
        raise ConfigError("resource must be an object")
    unknown = set(spec) - {"werner_f"}
    if unknown:
        raise ConfigError(f"unknown resource keys: {sorted(unknown)}")
    return EntanglementResource(float(finite_real(spec.get("werner_f", 1.0), "resource.werner_f")))


def _scale_list(values, where: str, descending: bool = False) -> tuple[float, ...]:
    if not isinstance(values, list):
        raise ConfigError(f"{where} must be a list of numbers")
    return check_scales([finite_real(v, where) for v in values], where, descending)


def _parse_sweep_section(spec):
    if spec is None:
        spec = {}
    if not isinstance(spec, dict):
        raise ConfigError("sweep must be an object")
    unknown = set(spec) - _SWEEP_KEYS
    if unknown:
        raise ConfigError(f"unknown sweep keys: {sorted(unknown)}")
    if "scales" in spec and "bounds" in spec:
        raise ConfigError("sweep accepts either scales or bounds+count, not both")
    bounds = (0.01, 3.0)
    if "bounds" in spec:
        raw = spec["bounds"]
        if not isinstance(raw, list) or len(raw) != 2:
            raise ConfigError("sweep.bounds must be [lo, hi]")
        bounds = _scale_list(raw, "sweep.bounds")
    count = integer_at_least(spec.get("count", 60), "sweep.count", 1)
    if "scales" in spec:
        scales = _scale_list(spec["scales"], "sweep.scales")
        bounds = (scales[0], scales[-1])
        if len(scales) < 2:
            bounds = (scales[0] / 2, scales[0])
    else:
        scales = default_scale_grid(count, bounds[0], bounds[1])
    runs = integer_at_least(spec.get("runs", 100), "sweep.runs", 1)
    trials = integer_at_least(spec.get("trials", 10_000), "sweep.trials", 1)
    window = integer_at_least(spec.get("window", 5), "sweep.window", 1)
    if window % 2 == 0:
        raise ConfigError(f"sweep.window must be odd, got {window}")
    small_scales = _DEFAULT_SMALL_SCALES
    if "small_scales" in spec:
        small_scales = _scale_list(spec["small_scales"], "sweep.small_scales", descending=True)
    return scales, bounds, runs, trials, window, small_scales


def parse_run_config(raw, seed_override: int | None = None) -> RunConfig:
    """Validate a raw config mapping; unknown keys are rejected outright."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("state", "channel", "noise"):
        if key not in raw:
            raise ConfigError(f"config missing required key {key!r}")
    try:
        state = _parse_state(raw["state"])
        chan = channel_from_json(raw["channel"])
        model = noise_from_json(raw["noise"])
        resource = _parse_resource(raw.get("resource"))
        scales, bounds, runs, trials, window, small_scales = _parse_sweep_section(raw.get("sweep"))
        seed = raw.get("seed", 0) if seed_override is None else seed_override
        integer_at_least(seed, "seed", 0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    out_dir = raw.get("out_dir", ".")
    if not isinstance(out_dir, str):
        raise ConfigError(f"out_dir must be a string, got {out_dir!r}")
    return RunConfig(
        state=state, channel=chan, noise=model, resource=resource,
        scales=scales, bounds=bounds, runs=runs, trials=trials, window=window,
        small_scales=small_scales, seed=seed, out_dir=out_dir,
    )


def config_to_json(cfg: RunConfig) -> dict:
    """Canonical config mapping; re-parsing it reproduces ``cfg``."""
    return {
        "state": {
            "alpha": [cfg.state.alpha.real, cfg.state.alpha.imag],
            "beta": [cfg.state.beta.real, cfg.state.beta.imag],
        },
        "channel": channel_to_json(cfg.channel),
        "noise": noise_to_json(cfg.noise),
        "resource": {"werner_f": cfg.resource.werner_f},
        "sweep": {
            "scales": list(cfg.scales),
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
    raw = os.environ.get(_ENV_THREADS)
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"{_ENV_THREADS} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ConfigError(f"{_ENV_THREADS} must be >= 1, got {value}")
    return value


def _emit(mapping: dict, fmt: str) -> None:
    if fmt == "csv":
        lines = ["key,value"]
        for key, value in mapping.items():
            text = value if isinstance(value, str) else json.dumps(value, separators=(",", ":"))
            lines.append(f"{key},{text}")
        print("\n".join(lines))
    else:
        print(json.dumps(mapping, separators=(",", ":")))


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed))


# --- subcommand handlers ---------------------------------------------------

def cmd_weights(cfg: RunConfig, args) -> int:
    w = pauli_weights(cfg.state)
    _emit({"qx": w.qx, "qz": w.qz, "qxz": w.qxz}, args.format)
    return EXIT_OK


def cmd_check_interval(cfg: RunConfig, args) -> int:
    interval = forbidden_interval(cfg.channel)
    _emit({
        "interval": [interval.lo, interval.hi],
        "center": classify(cfg.noise).center,
        "sr_predicted": sr_predicted(cfg.channel, cfg.noise),
    }, args.format)
    return EXIT_OK


def cmd_probs(cfg: RunConfig, args) -> int:
    stats = detection_probabilities(cfg.channel, cfg.noise)
    _emit({
        "p00": stats.p00, "p01": stats.p01, "p10": stats.p10, "p11": stats.p11,
        "P": stats.P, "cdf_exact": stats.cdf_exact, "cdf_draws": stats.cdf_draws,
    }, args.format)
    return EXIT_OK


def cmd_simulate(cfg: RunConfig, args) -> int:
    estimate = estimate_fidelity(
        cfg.state, cfg.channel, cfg.noise, cfg.resource, cfg.trials, _rng(cfg.seed)
    )
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
        payload = {"config": config_to_json(cfg), "config_sha256": digest}
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
        "center": report.center,
        "interval": list(report.interval),
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
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teleport-sr",
        description="Noise-benefit analysis of teleportation with thresholded classical feedforward.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to the JSON run config")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name == "sweep":
            cmd.add_argument("--out", default=None, help="output directory (default: config out_dir)")
            cmd.add_argument("--svg", action=argparse.BooleanOptionalAction, default=True,
                             help="also render sweep.svg")
        else:
            cmd.add_argument("--format", choices=("json", "csv"), default="json",
                             help="stdout format")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = parse_run_config(raw, seed_override=args.seed)
        return _COMMANDS[args.command](cfg, args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
