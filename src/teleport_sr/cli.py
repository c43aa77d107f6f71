"""Command-line front end: config-driven analyses with CSV/JSON/SVG output.

Every command is a pure function of the config file and the seed, so reruns
produce byte-identical output.  Commands:

    probs           closed form: detection, weights, interval, analytic fidelity
    simulate        Monte Carlo fidelity estimate
    sweep           fidelity vs noise scale; writes CSV + JSON (+ SVG)
    optimum         best noise scale (a 16-point scan, refined by golden section)
    theorem-check   vanishing-noise fidelity limit

Options may come before or after the command name, as ``--name value`` or
``--name=value``; a repeated option's last value wins, and abbreviations
(``--conf``) are refused.  Every command takes ``--config`` (required) and
``--seed``; ``sweep`` also takes ``--out`` and ``--svg``/``--no-svg``, and
every other command takes ``--format json|csv``.  ``-h``/``--help`` prints
this text.  A malformed line, or an option the command does not take, exits
2 with ``teleport-sr: error:`` on stderr, before the config is read.

The config format lives here only: every section is an object with no unknown
keys and its required keys, and an error names the section and the key.  The
channel, resource and noise keys are the fields of the dataclass they build.
``config_to_json`` writes them back, and parsing its output is exact.

Each command handler returns the mapping it prints; ``main`` alone writes
stdout and stderr and picks the exit code from what the handler raised:
0 success, 2 invalid config (ValueError), 3 an output file or stdout that
cannot be written (OSError), 4 monotone regime (MonotoneRegimeError: no
interior optimum, the noise center inside the forbidden interval or on an
endpoint; its mapping still goes to stdout).  The TELEPORT_SR_THREADS
environment variable sets the sweep worker count (1 when unset); results do
not depend on it or on the CPU count.

No command loads ``argparse``, ``gettext`` or ``locale``.  Only ``sweep``
loads the SHA-256 hasher, and no command loads an XML library.
The thread pool loads only where one runs (one stream per run; blocks of a
longer call draw from spawned children, and a multi-block call advances only
the caller's spawn counter).  ``simulate`` and ``sweep`` load numpy's random
module, which itself brings in OpenSSL through ``secrets``.
"""

from __future__ import annotations

import csv
import json
import os
import sys
from dataclasses import MISSING, asdict, dataclass, fields
from types import SimpleNamespace

import numpy as np

from . import __version__
from .analysis import (
    DEFAULT_SCALE_BOUNDS,
    DEFAULT_SCALE_COUNT,
    DEFAULT_SMALL_SCALES,
    DEFAULT_SMOOTHING_WINDOW,
    EntanglementResource,
    MonotoneRegimeError,
    SweepResult,
    analytic_at,
    analytic_fidelity,
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

_TOP_KEYS = {"state", "channel", "noise", "resource", "sweep", "seed"}
_SWEEP_KEYS = {"scales", "bounds", "count", "runs", "trials", "window", "small_scales"}
_NOISE_KINDS = {cls.kind: cls for cls in (Gaussian, Uniform, Laplace, AlphaStable)}


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


def _parse_sweep_section(spec) -> dict:
    """``RunConfig``'s six sweep fields, by name."""
    _section(spec, "sweep", _SWEEP_KEYS)
    if "scales" in spec:
        if "bounds" in spec or "count" in spec:
            raise ValueError("sweep accepts either scales or bounds+count, not both")
        scales = _scale_list(spec["scales"], "sweep.scales")
        bounds = (scales[0], scales[-1]) if len(scales) > 1 else (scales[0] / 2, scales[0])
    else:
        bounds = DEFAULT_SCALE_BOUNDS
        if "bounds" in spec:
            bounds = _scale_list(spec["bounds"], "sweep.bounds")
            if len(bounds) != 2:
                raise ValueError("sweep.bounds must be [lo, hi]")
        count = integer_at_least(spec.get("count", DEFAULT_SCALE_COUNT), "sweep.count", 1)
        try:
            scales = default_scale_grid(count, bounds[0], bounds[1])
        except (MemoryError, ValueError, IndexError):
            # numpy raises MemoryError, or past its largest array ValueError or IndexError.
            raise ValueError(f"sweep.count {count} is too large for numpy to build") from None
    parsed = dict(
        scales=scales, bounds=bounds,
        runs=integer_at_least(spec.get("runs", 100), "sweep.runs", 1),
        trials=integer_at_least(spec.get("trials", 10_000), "sweep.trials", 1),
        window=integer_at_least(spec.get("window", DEFAULT_SMOOTHING_WINDOW), "sweep.window", 1),
    )
    if parsed["window"] % 2 == 0:
        raise ValueError(f"sweep.window must be odd, got {parsed['window']}")
    parsed["small_scales"] = DEFAULT_SMALL_SCALES
    if "small_scales" in spec:
        parsed["small_scales"] = _scale_list(
            spec["small_scales"], "sweep.small_scales", descending=True)
    return parsed


def parse_run_config(raw, seed_override: int | None = None) -> RunConfig:
    """Validate a raw config mapping: any violation, unknown keys included, is a ValueError."""
    _section(raw, "config", _TOP_KEYS, ("state", "channel", "noise"))
    state = _parse_state(raw["state"])
    chan = _build(ChannelConfig, raw["channel"], "channel")
    model = _parse_noise(raw["noise"])
    # A null optional section means its defaults, like an empty one.
    optional = {key: {} if raw.get(key) is None else raw[key] for key in ("resource", "sweep")}
    resource = _build(EntanglementResource, optional["resource"], "resource")
    sweep_fields = _parse_sweep_section(optional["sweep"])
    seed = raw.get("seed", 0) if seed_override is None else seed_override
    integer_at_least(seed, "seed", 0)
    return RunConfig(
        state=state, channel=chan, noise=model, resource=resource, seed=seed, **sweep_fields
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
    }


def config_hash(cfg: RunConfig) -> str:
    import hashlib  # deferred: only sweep hashes, and hashlib maps OpenSSL
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


# --- command handlers: each returns the mapping that ``main`` prints -------

def cmd_probs(cfg: RunConfig, args) -> dict:
    stats = detection_probabilities(cfg.channel, cfg.noise)
    exact = cfg.noise.has_exact_cdf
    weights = pauli_weights(cfg.state)
    interval = forbidden_interval(cfg.channel)
    return {
        "p00": stats.p00, "p01": stats.p01, "p10": stats.p10, "p11": stats.p11,
        "P": stats.P, "cdf_exact": exact, "cdf_draws": None if exact else cfg.noise.cdf_draws,
        "qx": weights.qx, "qz": weights.qz, "qxz": weights.qxz,
        "interval": [interval.lo, interval.hi],
        "center": cfg.noise.center,
        "regime": center_regime(cfg.channel, cfg.noise),
        "sr_predicted": sr_predicted(cfg.channel, cfg.noise),
        "theorem": cfg.noise.theorem,
        "analytic_fidelity": analytic_fidelity(weights, stats.P, cfg.resource),
    }


def cmd_simulate(cfg: RunConfig, args) -> dict:
    estimate = estimate_fidelity(cfg.state, cfg.channel, cfg.noise, cfg.resource, cfg.trials,
                                 np.random.default_rng(cfg.seed))
    analytic = analytic_at(pauli_weights(cfg.state), cfg.channel, cfg.noise, cfg.resource)
    return {"fidelity_estimate": estimate, "analytic_fidelity": analytic,
            "trials": cfg.trials, "seed": cfg.seed}


def cmd_sweep(cfg: RunConfig, args) -> dict:
    result = sweep(
        cfg.state, cfg.channel, cfg.noise, cfg.scales, cfg.runs, cfg.trials,
        cfg.resource, smoothing_window=cfg.window, master_seed=cfg.seed,
        workers=_worker_count(),
    )
    out_dir = "." if args.out is None else args.out
    digest = config_hash(cfg)
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
    return {"csv": csv_path, "json": json_path, "svg": svg_path}


def cmd_optimum(cfg: RunConfig, args) -> dict:
    best = find_optimal_noise(cfg.state, cfg.channel, cfg.noise, cfg.resource, cfg.bounds)
    return {"scale_opt": best.scale, "fidelity_opt": best.fidelity, "bounds": list(cfg.bounds)}


def cmd_theorem_check(cfg: RunConfig, args) -> dict:
    report = theorem_limit_check(cfg.state, cfg.channel, cfg.noise, cfg.resource, cfg.small_scales)
    return {
        "theorem": cfg.noise.theorem,
        "center": report.center,
        "interval": list(report.interval),
        "regime": report.regime,
        "center_inside": report.center_inside,
        "expected_limit": report.expected_limit,
        "tolerance": report.tolerance,
        "within_tolerance": report.within_tolerance,
        "rows": [{"scale": s, "analytic_f": f} for s, f in zip(report.scales, report.analytic_f)],
    }


# --- output plumbing -------------------------------------------------------

def _write_atomic(path: str, text: str) -> None:
    # A fresh random name per write, so a temp left by a killed run (even one
    # with this PID) never blocks it; made by open(), so its mode follows the umask.
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
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
    """A self-contained line plot of the sweep, written as text: no plotting or XML library.

    Shows the smoothed Monte Carlo curve (thick), the per-scale min/max band
    (dotted), and horizontal references at the classical limit 2/3 and the
    protocol floor 1/2.  The config hash rides along as an XML comment.
    """
    width, height = 720, 480
    m_left, m_right, m_top, m_bottom = 72, 24, 24, 56
    x_max = max(result.scales)
    y_lo = min(0.48, min(result.mc_min) - 0.01)
    y_hi = max(0.70, max(result.mc_max) + 0.01)

    def px(x: float) -> float:
        return m_left + (width - m_left - m_right) * x / x_max

    def py(y: float) -> float:
        return height - m_bottom - (height - m_top - m_bottom) * (y - y_lo) / (y_hi - y_lo)

    def points(values) -> str:
        return " ".join(f"{px(x):.2f},{py(v):.2f}" for x, v in zip(result.scales, values))

    def tag(name: str, label: str | None = None, **attrs) -> str:
        # Each value and label is a number formatted here, a fixed string or the hex digest, so
        # nothing needs XML escaping.  Floats print to 2 decimals, ints as is, in keyword order.
        attrs = {k: f"{v:.2f}" if isinstance(v, float) else v for k, v in attrs.items()}
        head = name + "".join(f' {k.replace("_", "-")}="{v}"' for k, v in attrs.items())
        return f"<{head} />" if label is None else f"<{head}>{label}</{name}>"

    axes = (tag("line", x1=m_left, y1=py(y_lo), x2=width - m_right, y2=py(y_lo))
            + tag("line", x1=m_left, y1=py(y_lo), x2=m_left, y2=m_top))
    labels, ticks = [], []
    for i in range(7):
        x = x_max * i / 6
        ticks.append(tag("line", x1=px(x), y1=py(y_lo), x2=px(x), y2=py(y_lo) + 5))
        labels.append(tag("text", f"{x:.2f}", x=px(x), y=py(y_lo) + 20, text_anchor="middle"))
    for i in range(6):
        y = y_lo + (y_hi - y_lo) * i / 5
        ticks.append(tag("line", x1=m_left - 5, y1=py(y), x2=m_left, y2=py(y)))
        labels.append(tag("text", f"{y:.3f}", x=m_left - 9, y=py(y) + 4, text_anchor="end"))
    y_mid = (m_top + height - m_bottom) / 2
    labels += [tag("text", "noise scale", x=(m_left + width - m_right) / 2, y=height - 14,
                   text_anchor="middle"),
               tag("text", "teleportation fidelity", x=18, y=y_mid, text_anchor="middle",
                   transform=f"rotate(-90 18 {y_mid:.2f})")]

    parts = [
        f"<!-- config-sha256:{digest} -->",
        tag("rect", x=0, y=0, width=width, height=height, fill="white"),
        tag("g", axes, stroke="black", stroke_width=1),
        tag("g", "".join(labels), font_family="sans-serif", font_size=12, fill="black"),
        tag("g", "".join(ticks), stroke="black", stroke_width=1),
    ]
    # y_lo <= 0.48 and y_hi >= 0.70, so both references always lie on the plot.
    for ref, name in ((2.0 / 3.0, "classical limit"), (0.5, "fidelity floor")):
        parts += [tag("line", x1=m_left, y1=py(ref), x2=width - m_right, y2=py(ref),
                      stroke="gray", stroke_width=1, stroke_dasharray="6,4"),
                  tag("text", name, x=width - m_right - 4, y=py(ref) - 4, text_anchor="end",
                      font_family="sans-serif", font_size=12, fill="gray")]
    parts += [tag("polyline", points=points(band), fill="none", stroke="steelblue", stroke_width=1,
                  stroke_dasharray="2,4") for band in (result.mc_min, result.mc_max)]
    parts.append(tag("polyline", points=points(result.mc_smoothed), fill="none", stroke="black",
                     stroke_width="2.5"))
    svg = tag("svg", "".join(parts), xmlns="http://www.w3.org/2000/svg", width=width,
              height=height, viewBox=f"0 0 {width} {height}")
    return f'<?xml version="1.0" encoding="UTF-8"?>\n{svg}\n'


# --- argument parsing ------------------------------------------------------

_COMMANDS = {
    "probs": cmd_probs,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "optimum": cmd_optimum,
    "theorem-check": cmd_theorem_check,
}


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """``argv`` as the command and its options; ``-h``/``--help`` prints the module docstring.
    A malformed line, or an option the command does not take, exits 2 before the config is read.
    """
    def fail(message: str):
        print(f"teleport-sr: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)

    if "-h" in argv or "--help" in argv:
        print(__doc__ or "usage: teleport-sr COMMAND --config PATH [--seed N] [--out DIR] "
              "[--svg|--no-svg] [--format json|csv]\n", end="")  # python -OO strips __doc__
        raise SystemExit(EXIT_OK)
    args = SimpleNamespace(command=None, config=None, seed=None, out=None, svg=True, format="json")
    given = {}  # option name -> the option as written, to name it if the command refuses it
    tokens = iter(argv)
    for token in tokens:
        name, eq, value = token.partition("=")
        if name in ("--config", "--seed", "--out", "--format"):
            if not eq:
                value = next(tokens, None)
                if value is None or value.startswith("--"):
                    fail(f"argument {name}: expected one argument")
            setattr(args, name[2:], value)
            given[name] = f"{name} {value}"
        elif token in ("--svg", "--no-svg"):
            args.svg, given["--svg"] = token == "--svg", token
        elif args.command is None and not token.startswith("-"):
            if token not in _COMMANDS:
                fail(f"invalid command {token!r} (choose from {', '.join(_COMMANDS)})")
            args.command = token
        else:
            fail(f"unrecognized arguments: {token}")
    for label, value in (("command", args.command), ("--config", args.config)):
        if value is None:
            fail(f"the following arguments are required: {label}")
    try:
        args.seed = None if args.seed is None else int(args.seed)
    except ValueError:
        fail(f"argument --seed: invalid int value: {args.seed!r}")
    if args.format not in ("json", "csv"):
        fail(f"argument --format: invalid choice: {args.format!r} (choose from 'json', 'csv')")
    other = ("--format",) if args.command == "sweep" else ("--out", "--svg")
    refused = [given[name] for name in other if name in given]
    if refused:
        fail(f"unrecognized arguments: {' '.join(refused)}")
    return args


def main(argv=None) -> int:
    args = _parse_args(list(sys.argv[1:] if argv is None else argv))
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = parse_run_config(raw, seed_override=args.seed)
        try:
            mapping, code = _COMMANDS[args.command](cfg, args), EXIT_OK
        except MonotoneRegimeError as exc:
            interval = [exc.interval.lo, exc.interval.hi]
            mapping = {"regime": "monotone", "center": exc.center, "interval": interval}
            code = EXIT_MONOTONE
        _emit(mapping, args.format)
        return code
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # an output file, or stdout itself
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
