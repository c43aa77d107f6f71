"""Teleportation-fidelity analysis over noisy thresholded feedforward.

The closed form at the center of everything: with Pauli weights (qx, qz, qxz)
of the input state and detection-probability difference P of the classical
channel, the teleportation fidelity is

    F = 1/2 + w * P * (qx + qz + qxz * P) / 2

where w in [0, 1] is the entanglement quality (w = 1 for a perfect shared
pair).  Monte Carlo estimation samples the protocol's bit layer and counts
the four net corrections (y1 xor s1, y2 xor s2); the formula averages the
same per-correction overlaps analytically, so the estimator is unbiased
without sampling a terminal quantum measurement.

Sweeps derive one random stream per (scale, run) cell from a master seed, so
results are bit-identical regardless of worker count or execution order.
Within a call, :func:`estimate_fidelity` runs its trials in blocks of
``_BLOCK`` (65,536); each block draws its measurement bits ``s1`` and ``s2``
in one draw, then the channel noise for ``y1`` and ``y2`` in one draw.
Memory per call is bounded by the block, not by the trial count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .channel import (
    ChannelConfig,
    Interval,
    center_regime,
    detection_probabilities,
    forbidden_interval,
    sr_predicted,
    transmit_bits,
)
from .noise import NoiseModel, finite_real, integer_at_least
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
_SCALE_RTOL = 1e-6
_LIMIT_TOL = 1e-5
# Trials per block of estimate_fidelity: bounds its memory at a few MB per
# call.  A fixed constant, so results never depend on the worker count.
_BLOCK = 1 << 16

# Sweep defaults: the grid's (lo, hi] and length, and the smoothing window;
# then theorem_limit_check's grid.
DEFAULT_SCALE_BOUNDS = (0.01, 3.0)
DEFAULT_SCALE_COUNT = 60
DEFAULT_SMOOTHING_WINDOW = 5
DEFAULT_SMALL_SCALES = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)

COLUMNS = ("scale", "scale_squared", "analytic_f", "mc_mean", "mc_min", "mc_max", "mc_smoothed")
CSV_HEADER = ",".join(COLUMNS)


@dataclass(frozen=True)
class EntanglementResource:
    """Quality of the shared entangled pair.

    ``werner_f`` is the weight of the perfect pair in a mixture with the
    maximally mixed two-qubit state; 1.0 recovers the ideal protocol and 0
    pins every fidelity at 1/2.  It must be a finite number and is stored as
    a float.
    """

    werner_f: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "werner_f", finite_real(self.werner_f, "resource.werner_f"))
        if not 0.0 <= self.werner_f <= 1.0:
            raise ValueError(f"werner_f must be in [0, 1], got {self.werner_f}")


class OptimalNoise(NamedTuple):
    scale: float
    fidelity: float


class MonotoneRegimeError(Exception):
    """No interior optimum: the noise center lies in the closed forbidden interval.

    In this regime (inside it, or on an endpoint) fidelity only degrades
    with added noise, so the optimum sits at the zero-noise boundary and a
    noise-level search is meaningless.
    """

    def __init__(self, center: float, interval):
        self.center = center
        self.interval = interval
        super().__init__(
            f"noise center {center} lies in the closed forbidden interval "
            f"[{interval.lo}, {interval.hi}]; fidelity is monotone in the noise scale"
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

    Vectorized in blocks of at most ``_BLOCK`` trials, so memory stays
    bounded however large ``trials`` is.  Each block draws its measurement
    bits ``s1`` and ``s2`` in one draw (:func:`bell_measure`), then one
    noise draw for both (:func:`transmit_bits`, ``y1`` first).  Each
    trial's fidelity is exact given its net correction bits (y xor s), so
    the trials are counted per correction and the result is the
    Werner-mixed mean of the overlap table over those counts: the mean of
    the per-trial values, without sampling Bob's final measurement (same
    expectation, smaller variance).  Converges to :func:`analytic_fidelity`
    as the trial count grows.
    """
    integer_at_least(trials, "trials", 1)
    table = pauli_weights(state).overlap_table()
    counts = np.zeros(4, dtype=np.int64)
    for start in range(0, trials, _BLOCK):
        n = min(_BLOCK, trials - start)
        s = bell_measure(rng, n)
        e = transmit_bits(s, config, noise, rng)
        e ^= s
        e1, e2 = e
        # Trials per net correction 2 * e1 + e2: none, Z, X, XZ.
        n1, n2 = np.count_nonzero(e1), np.count_nonzero(e2)
        both = np.count_nonzero(e1 & e2)
        counts += (n - n1 - n2 + both, n2 - both, n1 - both, both)
    w = resource.werner_f
    return float(w * (counts @ table) / trials + (1.0 - w) / 2.0)


def check_scales(values, where: str, descending: bool = False) -> tuple[float, ...]:
    """Validate a noise-scale grid: non-empty, :func:`finite_real`, positive, strictly monotone.

    Returns the grid as a tuple of floats.  A ``descending`` grid must fall
    toward 0.  Errors name the grid as ``where``.
    """
    scales = tuple(finite_real(v, where) for v in values)
    if not scales:
        raise ValueError(f"{where} must be a non-empty grid of positive scales")
    if not all(s > 0 for s in scales):
        raise ValueError(f"{where} must be positive")
    pairs = zip(scales[1:], scales) if descending else zip(scales, scales[1:])
    if any(b <= a for a, b in pairs):
        order = "strictly descend toward 0" if descending else "be strictly increasing"
        raise ValueError(f"{where} must {order}")
    return scales


def default_scale_grid(count: int = DEFAULT_SCALE_COUNT, lo: float = DEFAULT_SCALE_BOUNDS[0],
                       hi: float = DEFAULT_SCALE_BOUNDS[1]) -> tuple[float, ...]:
    """``count`` linearly spaced noise scales on (lo, hi]; lo is excluded."""
    integer_at_least(count, "count", 1)
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
          smoothing_window: int = DEFAULT_SMOOTHING_WINDOW, master_seed: int = 0,
          workers: int = 1) -> SweepResult:
    """Analytic and Monte Carlo fidelity across a grid of noise scales.

    ``noise_family`` supplies everything but the scale, which is replaced per
    grid point.  The analytic column is evaluated on the calling thread and
    only the Monte Carlo runs on the ``workers`` threads.  Each of the
    ``runs`` independent estimates at a scale uses ``trials_per_run`` trials
    on its own derived stream; output is identical for any ``workers`` value.
    """
    scales = check_scales(scales, "scales")
    integer_at_least(runs, "runs", 1)
    if integer_at_least(smoothing_window, "smoothing window", 1) % 2 == 0:
        raise ValueError(f"smoothing window must be odd, got {smoothing_window}")
    integer_at_least(workers, "workers", 1)
    integer_at_least(master_seed, "master_seed", 0)

    weights = pauli_weights(state)
    analytic = [analytic_at(weights, config, noise_family.with_scale(s), resource) for s in scales]

    def estimates_at(i: int) -> list[float]:
        model = noise_family.with_scale(scales[i])
        return [estimate_fidelity(state, config, model, resource, trials_per_run,
                                  _cell_rng(master_seed, i, j)) for j in range(runs)]

    with ThreadPoolExecutor(max_workers=workers) as pool:
        estimates = np.array(list(pool.map(estimates_at, range(len(scales)))))
    mc_mean = estimates.mean(axis=1)

    metadata = {
        "state": {"alpha": [state.alpha.real, state.alpha.imag],
                  "beta": [state.beta.real, state.beta.imag]},
        "channel": {"amplitude": config.amplitude, "threshold": config.threshold},
        "noise_kind": noise_family.kind,
        "noise_center": noise_family.center,
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


def _maximize(fn, lo: float, hi: float):
    """Maximize ``fn`` on [lo, hi]: the best of 16 evenly spaced points, or the
    golden-section maximum between its neighbours (bracket narrowed to
    ``_SCALE_RTOL`` of its midpoint) if better.  The scan finds a maximum on a
    bound or past a flat stretch, which golden section alone can miss.
    """
    grid = [float(x) for x in np.linspace(lo, hi, 16)]
    values = [fn(x) for x in grid]
    k = int(np.argmax(values))
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > _SCALE_RTOL * 0.5 * (a + b):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    x = 0.5 * (a + b)
    fx = fn(x)
    return (x, fx) if fx >= values[k] else (grid[k], values[k])


def find_optimal_noise(state: QubitState, config: ChannelConfig, noise_family: NoiseModel,
                       resource: EntanglementResource = EntanglementResource(),
                       scale_bounds: tuple[float, float] = DEFAULT_SCALE_BOUNDS) -> OptimalNoise:
    """Noise scale maximizing the analytic fidelity over ``scale_bounds``.

    A scan of 16 evenly spaced scales finds a maximum on a bound or past a
    flat stretch; golden section between the best scale's neighbours refines
    it to 1e-6 relative for an exact CDF.  A table CDF (``cdf_draws`` lattice
    points) makes the fidelity a step function with a flat peak: on the
    float32 table, from 2^17 to 2^19 points the optimum fidelity moved
    <= 4.2e-5 and the scale up to 2.5% (alpha 1.5, skew 0.5: 0.99645,
    0.97229, 0.98115).
    Fidelity is monotone in P, so this equivalently maximizes that scalar.
    Raises :class:`MonotoneRegimeError` unless :func:`sr_predicted` holds:
    with the noise center inside the forbidden interval or on an endpoint, no
    interior optimum exists.  Bad bounds raise ValueError first, whatever
    the regime.
    """
    if len(scale_bounds) != 2:
        raise ValueError(f"scale bounds (lo, hi) must hold 2 scales, got {len(scale_bounds)}")
    lo, hi = check_scales(scale_bounds, "scale bounds (lo, hi)")
    if not sr_predicted(config, noise_family):
        raise MonotoneRegimeError(noise_family.center, forbidden_interval(config))
    weights = pauli_weights(state)

    def objective(s: float) -> float:
        return analytic_at(weights, config, noise_family.with_scale(s), resource)

    scale, fidelity = _maximize(objective, lo, hi)
    return OptimalNoise(scale=scale, fidelity=fidelity)


@dataclass(frozen=True)
class TheoremLimitReport:
    """Analytic fidelity along a shrinking-noise grid and the limit verdict.

    ``regime`` is :func:`center_regime`.  With the noise center outside the
    forbidden interval the fidelity must fall to its floor 1/2 as the scale
    vanishes (so noise can only help); with the center inside it must rise
    to 1/2 + w/2 for Werner weight w, 1 for a perfect pair (so noise only
    hurts).  On an endpoint it tends to :func:`analytic_fidelity` at P =
    1 - F(center) (lower endpoint) or F(center) (upper), and noise only
    hurts there too.
    """

    scales: tuple[float, ...]
    analytic_f: tuple[float, ...]
    center: float
    interval: Interval
    regime: str
    center_inside: bool
    expected_limit: float
    tolerance: float
    within_tolerance: bool


def theorem_limit_check(state: QubitState, config: ChannelConfig, noise_family: NoiseModel,
                        resource: EntanglementResource = EntanglementResource(),
                        small_scales: Sequence[float] = DEFAULT_SMALL_SCALES
                        ) -> TheoremLimitReport:
    """Evaluate the vanishing-noise limit of the analytic fidelity.

    ``small_scales`` must descend toward zero; the verdict is whether the
    value at the smallest scale lies within ``_LIMIT_TOL`` (1e-5) of the limit
    the center's regime dictates (see :class:`TheoremLimitReport`).  For
    alpha = 1 stable noise with skew != 0 on an endpoint, the regime that its
    drift picks is approached only logarithmically, and 1e-6 misses 1e-5.
    """
    scales = check_scales(small_scales, "small_scales", descending=True)
    weights = pauli_weights(state)
    interval = forbidden_interval(config)
    center = noise_family.center
    regime = center_regime(config, noise_family)
    values = [analytic_at(weights, config, noise_family.with_scale(s), resource) for s in scales]
    if regime == "endpoint":
        # F tends to 1 above the center, 0 below it, and stays F(center) at it.
        at_center = noise_family.cdf(center)
        hi = 1.0 if interval.hi > center else at_center
        lo = 0.0 if interval.lo < center else at_center
        expected = analytic_fidelity(weights, hi - lo, resource)
    else:
        # P -> 1 inside; written out, as float Pauli weights may sum to 1 - 4.4e-16.
        expected = 0.5 + 0.5 * resource.werner_f if regime == "inside" else 0.5
    return TheoremLimitReport(
        scales=scales,
        analytic_f=tuple(values),
        center=center,
        interval=interval,
        regime=regime,
        center_inside=regime == "inside",
        expected_limit=expected,
        tolerance=_LIMIT_TOL,
        within_tolerance=abs(values[-1] - expected) <= _LIMIT_TOL,
    )
