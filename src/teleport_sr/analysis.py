"""Teleportation-fidelity analysis over noisy thresholded feedforward.

The closed form at the center of everything: with Pauli weights (qx, qz, qxz)
of the input state and detection-probability difference P of the classical
channel, the teleportation fidelity is

    F = 1/2 + w * P * (qx + qz + qxz * P) / 2

where w in [0, 1] is the entanglement quality (w = 1 for a perfect shared
pair).  Monte Carlo estimation samples the protocol's bit layer and averages
the same per-trial overlap the formula averages analytically, which keeps the
estimator unbiased without sampling a terminal quantum measurement.

Sweeps derive one random stream per (scale, run) cell from a master seed, so
results are bit-identical regardless of worker count or execution order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .channel import (
    ChannelConfig,
    detection_probabilities,
    forbidden_interval,
    sr_predicted,
    transmit_bits,
)
from .noise import NoiseModel, classify
from .qstate import QubitState, bell_measure, pauli_weights

__all__ = [
    "EntanglementResource",
    "SweepResult",
    "OptimalNoise",
    "TheoremLimitReport",
    "MonotoneRegimeError",
    "analytic_fidelity",
    "analytic_at",
    "estimate_fidelity",
    "sweep",
    "find_optimal_noise",
    "theorem_limit_check",
    "default_scale_grid",
    "check_scales",
]

_ATOL = 1e-12

COLUMNS = ("scale", "scale_squared", "analytic_f", "mc_mean", "mc_min", "mc_max", "mc_smoothed")
CSV_HEADER = ",".join(COLUMNS)


@dataclass(frozen=True)
class EntanglementResource:
    """Quality of the shared entangled pair.

    ``werner_f`` is the weight of the perfect pair in a mixture with the
    maximally mixed two-qubit state; 1.0 recovers the ideal protocol and 0
    pins every fidelity at 1/2.
    """

    werner_f: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.werner_f <= 1.0:
            raise ValueError(f"werner_f must be in [0, 1], got {self.werner_f}")


class OptimalNoise(NamedTuple):
    scale: float
    fidelity: float


class MonotoneRegimeError(Exception):
    """No interior optimum: the noise center lies in the forbidden interval.

    In this regime fidelity only degrades with added noise, so the optimum
    sits at the zero-noise boundary and a noise-level search is meaningless.
    """

    def __init__(self, center: float, interval):
        self.center = center
        self.interval = interval
        super().__init__(
            f"noise center {center} lies inside the forbidden interval "
            f"({interval.lo}, {interval.hi}); fidelity is monotone in the noise scale"
        )


def analytic_fidelity(weights, p: float, resource: EntanglementResource = EntanglementResource()) -> float:
    """Closed-form teleportation fidelity for channel scalar ``p``.

    Always in [1/2, 1]: the protocol floor is reached when detection carries
    no information (p = 0) and the ceiling when detection is perfect (p = 1)
    with a perfect entangled pair.
    """
    if not -_ATOL <= p <= 1.0 + _ATOL:
        raise ValueError(f"detection-probability difference must be in [0, 1], got {p}")
    p = min(max(p, 0.0), 1.0)
    gain = 0.5 * p * (weights.qx + weights.qz + weights.qxz * p)
    return 0.5 + resource.werner_f * gain


def analytic_at(weights, config: ChannelConfig, model: NoiseModel,
                resource: EntanglementResource) -> float:
    """:func:`analytic_fidelity` for the detection probabilities of ``config`` under ``model``."""
    return analytic_fidelity(weights, detection_probabilities(config, model).P, resource)


def estimate_fidelity(state: QubitState, config: ChannelConfig, noise: NoiseModel,
                      resource: EntanglementResource, trials: int,
                      rng: np.random.Generator) -> float:
    """Mean trial fidelity over ``trials`` independent protocol trials.

    Vectorized: draws the measurement bits in two blocks, then the channel
    noise in two blocks.  Each trial's fidelity is computed exactly from the
    net correction bits (y xor s) instead of sampling Bob's final
    measurement; the expectation is unchanged and the variance smaller.
    Converges to :func:`analytic_fidelity` as the trial count grows.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    table = pauli_weights(state).overlap_table()
    s = bell_measure(rng, trials)
    y1 = transmit_bits(s.s1, config, noise, rng)
    y2 = transmit_bits(s.s2, config, noise, rng)
    overlap = table[2 * (y1 ^ s.s1) + (y2 ^ s.s2)]
    per_trial = resource.werner_f * overlap + (1.0 - resource.werner_f) / 2.0
    return float(per_trial.mean())


def check_scales(values, where: str, descending: bool = False) -> tuple[float, ...]:
    """Validate a noise-scale grid: non-empty, finite, positive, strictly monotone.

    Returns the grid as a tuple of floats.  A ``descending`` grid must fall
    toward 0.  Errors name the grid as ``where``.
    """
    scales = tuple(float(v) for v in values)
    if not scales:
        raise ValueError(f"{where} must be a non-empty grid of positive scales")
    if not all(0 < s < math.inf for s in scales):
        raise ValueError(f"{where} must be positive and finite")
    pairs = zip(scales[1:], scales) if descending else zip(scales, scales[1:])
    if any(b <= a for a, b in pairs):
        order = "strictly descend toward 0" if descending else "be strictly increasing"
        raise ValueError(f"{where} must {order}")
    return scales


def default_scale_grid(count: int = 60, lo: float = 0.01, hi: float = 3.0) -> tuple[float, ...]:
    """``count`` linearly spaced noise scales on (lo, hi]; lo is excluded."""
    return tuple(float(x) for x in np.linspace(lo, hi, count + 1)[1:])


def _moving_average(values: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average, truncated (not padded) at the edges."""
    half = window // 2
    return np.array([
        values[max(0, i - half): i + half + 1].mean() for i in range(len(values))
    ])


@dataclass(frozen=True)
class SweepResult:
    """Per-scale fidelity curves of a noise sweep plus its provenance.

    ``mc_min``/``mc_max`` are the extremes of the per-run estimates at each
    scale; ``mc_smoothed`` is the centered moving average of ``mc_mean``.
    """

    scales: tuple[float, ...]
    analytic_f: tuple[float, ...]
    mc_mean: tuple[float, ...]
    mc_min: tuple[float, ...]
    mc_max: tuple[float, ...]
    mc_smoothed: tuple[float, ...]
    metadata: dict = field(compare=False)

    def __post_init__(self):
        check_scales(self.scales, "scales")
        n = len(self.scales)
        for name in ("analytic_f", "mc_mean", "mc_min", "mc_max", "mc_smoothed"):
            col = getattr(self, name)
            if len(col) != n:
                raise ValueError(f"{name} has {len(col)} entries for {n} scales")
        tol = self.metadata.get("mc_tolerance", 0.0)
        lo = 0.5 - tol - _ATOL
        for name in ("mc_mean", "mc_min", "mc_max", "mc_smoothed"):
            col = getattr(self, name)
            if min(col) < lo or max(col) > 1.0 + _ATOL:
                raise ValueError(f"{name} leaves the feasible fidelity band [{lo}, 1]")

    def rows(self) -> list[tuple[float, ...]]:
        """One tuple per scale, holding the values of :data:`COLUMNS` in order."""
        return [(s, s * s, *rest) for s, *rest in zip(
            self.scales, self.analytic_f, self.mc_mean, self.mc_min, self.mc_max,
            self.mc_smoothed)]

    def to_csv(self) -> str:
        lines = [CSV_HEADER] + [",".join(map(repr, row)) for row in self.rows()]
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {"metadata": self.metadata,
                "rows": [dict(zip(COLUMNS, row)) for row in self.rows()]}


def _cell_rng(master_seed: int, scale_index: int, run_index: int) -> np.random.Generator:
    # Splittable counter scheme: every (scale, run) cell owns a stream that
    # depends only on the master seed and its coordinates.
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(scale_index, run_index))
    )


def sweep(state: QubitState, config: ChannelConfig, noise_family: NoiseModel,
          scales: Sequence[float], runs: int, trials_per_run: int,
          resource: EntanglementResource = EntanglementResource(),
          smoothing_window: int = 5, master_seed: int = 0,
          workers: int = 1) -> SweepResult:
    """Analytic and Monte Carlo fidelity across a grid of noise scales.

    ``noise_family`` supplies everything but the scale, which is replaced per
    grid point.  Each of the ``runs`` independent estimates at a scale uses
    ``trials_per_run`` trials on its own derived stream; output is identical
    for any ``workers`` value.
    """
    scales = check_scales(scales, "scales")
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if smoothing_window < 1 or smoothing_window % 2 == 0:
        raise ValueError(f"smoothing window must be a positive odd count, got {smoothing_window}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    weights = pauli_weights(state)

    def one_scale(i: int):
        model = noise_family.with_scale(scales[i])
        analytic = analytic_at(weights, config, model, resource)
        estimates = np.array([
            estimate_fidelity(state, config, model, resource, trials_per_run,
                              _cell_rng(master_seed, i, j))
            for j in range(runs)
        ])
        return analytic, estimates

    if workers == 1:
        per_scale = [one_scale(i) for i in range(len(scales))]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_scale = list(pool.map(one_scale, range(len(scales))))

    analytic = [a for a, _ in per_scale]
    estimates = np.stack([e for _, e in per_scale])
    mc_mean = estimates.mean(axis=1)

    metadata = {
        "state": {"alpha": [state.alpha.real, state.alpha.imag],
                  "beta": [state.beta.real, state.beta.imag]},
        "channel": {"amplitude": config.amplitude, "threshold": config.threshold},
        "noise_kind": noise_family.kind,
        "noise_center": classify(noise_family).center,
        "werner_f": resource.werner_f,
        "runs": runs,
        "trials_per_run": trials_per_run,
        "smoothing_window": smoothing_window,
        "master_seed": master_seed,
        "cdf_exact": noise_family.has_exact_cdf,
        # 6-sigma feasibility band for a mean of trials_per_run values in [0, 1].
        "mc_tolerance": 3.0 / math.sqrt(trials_per_run),
    }
    return SweepResult(
        scales=scales,
        analytic_f=tuple(analytic),
        mc_mean=tuple(float(v) for v in mc_mean),
        mc_min=tuple(float(v) for v in estimates.min(axis=1)),
        mc_max=tuple(float(v) for v in estimates.max(axis=1)),
        mc_smoothed=tuple(float(v) for v in _moving_average(mc_mean, smoothing_window)),
        metadata=metadata,
    )


def _golden_section_max(fn, lo: float, hi: float, rtol: float = 1e-6):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > rtol * 0.5 * (a + b):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    x = 0.5 * (a + b)
    return x, fn(x)


def find_optimal_noise(state: QubitState, config: ChannelConfig, noise_family: NoiseModel,
                       resource: EntanglementResource = EntanglementResource(),
                       scale_bounds: tuple[float, float] = (0.01, 3.0)) -> OptimalNoise:
    """Noise scale maximizing the analytic fidelity, by golden-section search.

    Fidelity is monotone in the detection-probability difference, so this
    equivalently maximizes that scalar over the scale.  CDF evaluations are
    exact for closed-form models and deterministic empirical estimates
    otherwise (the model's ``cdf_draws`` is the sampling budget).  Raises
    :class:`MonotoneRegimeError` when the noise center falls inside the
    forbidden interval, where no interior optimum exists.
    """
    if not sr_predicted(config, noise_family):
        raise MonotoneRegimeError(classify(noise_family).center, forbidden_interval(config))
    lo, hi = check_scales(scale_bounds, "scale bounds (lo, hi)")
    weights = pauli_weights(state)

    def objective(s: float) -> float:
        return analytic_at(weights, config, noise_family.with_scale(s), resource)

    scale, fidelity = _golden_section_max(objective, lo, hi)
    return OptimalNoise(scale=scale, fidelity=fidelity)


@dataclass(frozen=True)
class TheoremLimitReport:
    """Analytic fidelity along a shrinking-noise grid and the limit verdict.

    With the noise center outside the forbidden interval the fidelity must
    fall to its floor 1/2 as the scale vanishes (so noise can only help);
    with the center inside it must climb to 1 (so noise only hurts).
    """

    scales: tuple[float, ...]
    analytic_f: tuple[float, ...]
    center: float
    interval: tuple[float, float]
    center_inside: bool
    expected_limit: float
    tolerance: float
    within_tolerance: bool


def theorem_limit_check(state: QubitState, config: ChannelConfig, noise_family: NoiseModel,
                        resource: EntanglementResource = EntanglementResource(),
                        small_scales: Sequence[float] = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6),
                        tolerance: float = 1e-5) -> TheoremLimitReport:
    """Evaluate the vanishing-noise limit of the analytic fidelity.

    ``small_scales`` must descend toward zero; the verdict compares the value
    at the smallest scale against the limit the forbidden-interval position
    dictates.
    """
    scales = check_scales(small_scales, "small_scales", descending=True)
    weights = pauli_weights(state)
    interval = forbidden_interval(config)
    center = classify(noise_family).center
    inside = interval.contains_open(center)
    values = [analytic_at(weights, config, noise_family.with_scale(s), resource) for s in scales]
    expected = 1.0 if inside else 0.5
    return TheoremLimitReport(
        scales=scales,
        analytic_f=tuple(values),
        center=center,
        interval=(interval.lo, interval.hi),
        center_inside=inside,
        expected_limit=expected,
        tolerance=tolerance,
        within_tolerance=abs(values[-1] - expected) <= tolerance,
    )
