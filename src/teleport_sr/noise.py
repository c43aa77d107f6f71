"""Additive channel-noise models: sampling, CDFs, and variance classification.

Four families are supported: Gaussian, Uniform, Laplace and alpha-stable.
Alpha-stable models follow the "1-parameterization" characteristic function

    cf(w) = exp{i*location*w - gamma*|w|**alpha * (1 + i*skew*sign(w)*tan(pi*alpha/2))}

for alpha != 1, and

    cf(w) = exp{i*location*w - gamma*|w| * (1 - 2i*skew*sign(w)*ln|w|/pi)}

for alpha == 1.  Under this convention alpha=2 is Gaussian with variance
2*gamma (for any skew) and alpha=1 with skew=0 is Cauchy with scale gamma.
The sampler and the CDFs below agree with each other in this convention; the
test suite checks both against independent references.

A stable variate is the location-scale image of a standard (gamma = 1,
location 0) Chambers-Mallows-Stuck draw.  Stable families without a closed
form get an empirical CDF: ``cdf_draws`` standard draws are sorted once per
(alpha, skew, cdf_draws), and each model counts the entries whose image under
its own location-scale map is <= x.  No per-scale table is built.

Every model is an immutable value.  Sampling takes an explicit
``numpy.random.Generator`` so independent workers can hold independent
streams.
"""

from __future__ import annotations

import bisect
import enum
import math
import sys
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np

__all__ = [
    "NoiseModel",
    "Gaussian",
    "Uniform",
    "Laplace",
    "AlphaStable",
    "NoiseClass",
    "NoiseClassification",
    "classify",
    "finite_real",
    "integer_at_least",
]

# Width of the dedicated alpha=1 sampling/CDF branch; avoids the
# tan(pi*alpha/2) blow-up of the generic Chambers-Mallows-Stuck formula.
_ALPHA_ONE_EPS = 1e-8

# Fixed entropy for empirical-CDF tables, so cdf() is a pure function of
# (model, draw count).
_EMPIRICAL_CDF_SEED = 851530

# Held while a standard table is looked up or built, so sweep workers asking
# for the same shape at once build it once.
_STANDARD_TABLE_LOCK = threading.Lock()

_SQRT2 = math.sqrt(2.0)


class NoiseClass(enum.Enum):
    """Hypothesis split of the two noise-benefit theorems."""

    FINITE_VARIANCE = "finite_variance"
    INFINITE_VARIANCE_STABLE = "infinite_variance_stable"


@dataclass(frozen=True)
class NoiseClassification:
    """Noise class plus the center/scale the matching theorem talks about.

    ``center`` is the mean for finite-variance noise and the location for
    infinite-variance stable noise.  ``scale`` is the variance in the
    finite-variance case and the dispersion gamma in the stable case.
    """

    kind: NoiseClass
    center: float
    scale: float


class NoiseModel(ABC):
    """Location-scale base of all noise families.

    Each family is a frozen dataclass that names the field holding its
    center (``_center_field``: the mean, or the stable location) and the
    field holding the scale swept in noise-level studies (``_scale_field``).
    Construction checks that every parameter is a finite number and that the
    scale is positive.
    """

    kind: str
    _center_field = "mean"
    _scale_field: str

    has_exact_cdf = True
    # Draw count behind cdf() when it is an empirical estimate.
    cdf_sample_count = None

    def __post_init__(self):
        for f in fields(self):
            if f.name != "cdf_draws":
                finite_real(getattr(self, f.name), f"noise parameter {f.name!r}")
        if not self.scale > 0:
            raise ValueError(f"{self.kind} {self._scale_field} must be > 0, got {self.scale}")

    @abstractmethod
    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw from the model: a float for ``size=None``, else an array."""

    @abstractmethod
    def cdf(self, x: float) -> float:
        """P{N <= x}."""

    @property
    def center(self) -> float:
        """Mean (finite-variance families) or location (stable family)."""
        return getattr(self, self._center_field)

    @property
    def scale(self) -> float:
        """The natural scale parameter swept in noise-level studies."""
        return getattr(self, self._scale_field)

    def with_scale(self, value: float) -> "NoiseModel":
        """Copy of this model with the scale parameter replaced."""
        return replace(self, **{self._scale_field: value})


@dataclass(frozen=True)
class Gaussian(NoiseModel):
    mean: float = 0.0
    sigma: float = 1.0

    kind = "gaussian"
    _scale_field = "sigma"

    def sample(self, rng, size=None):
        return rng.normal(self.mean, self.sigma, size)

    def cdf(self, x):
        return 0.5 * (1.0 + math.erf((x - self.mean) / (self.sigma * _SQRT2)))

    @property
    def variance(self):
        return self.sigma**2


@dataclass(frozen=True)
class Uniform(NoiseModel):
    """Uniform on [mean - half_width, mean + half_width]."""

    mean: float = 0.0
    half_width: float = 1.0

    kind = "uniform"
    _scale_field = "half_width"

    def sample(self, rng, size=None):
        return rng.uniform(self.mean - self.half_width, self.mean + self.half_width, size)

    def cdf(self, x):
        t = (x - self.mean + self.half_width) / (2.0 * self.half_width)
        return min(max(t, 0.0), 1.0)

    @property
    def variance(self):
        return self.half_width**2 / 3.0


@dataclass(frozen=True)
class Laplace(NoiseModel):
    mean: float = 0.0
    diversity: float = 1.0

    kind = "laplace"
    _scale_field = "diversity"

    def sample(self, rng, size=None):
        return rng.laplace(self.mean, self.diversity, size)

    def cdf(self, x):
        z = (x - self.mean) / self.diversity
        if z < 0:
            return 0.5 * math.exp(z)
        return 1.0 - 0.5 * math.exp(-z)

    @property
    def variance(self):
        return 2.0 * self.diversity**2


@dataclass(frozen=True)
class AlphaStable(NoiseModel):
    """Alpha-stable noise in the 1-parameterization documented above.

    ``alpha`` is the stability exponent in (0, 2], ``skew`` the skewness in
    [-1, 1], ``gamma`` the dispersion (> 0) and ``location`` the shift.
    ``cdf_draws`` sizes the empirical CDF used when no closed form exists
    (alpha=2 and symmetric alpha=1 have closed forms): one sorted table of
    that many standard draws per (alpha, skew), shared by every scale, whose
    entries each model counts through its own location-scale map.
    """

    alpha: float
    skew: float = 0.0
    gamma: float = 1.0
    location: float = 0.0
    cdf_draws: int = 1_000_000

    kind = "alpha_stable"
    _center_field = "location"
    _scale_field = "gamma"

    def __post_init__(self):
        super().__post_init__()
        if not 0 < self.alpha <= 2:
            raise ValueError(f"stable alpha must be in (0, 2], got {self.alpha}")
        if not -1 <= self.skew <= 1:
            raise ValueError(f"stable skew must be in [-1, 1], got {self.skew}")
        integer_at_least(self.cdf_draws, "cdf_draws", 1)

    @property
    def _is_gaussian_form(self) -> bool:
        return self.alpha == 2.0

    @property
    def _is_cauchy_form(self) -> bool:
        return abs(self.alpha - 1.0) < _ALPHA_ONE_EPS and self.skew == 0.0

    def sample(self, rng, size=None):
        out = self._rescale(_standard_stable(self.alpha, self.skew, rng, size))
        return float(out) if size is None else out

    def _rescale(self, z):
        """Map standard (gamma = 1, location 0) draws ``z`` onto this model.

        Positive affine, so non-decreasing even in floats: ``cdf`` bisects through it.
        """
        if abs(self.alpha - 1.0) < _ALPHA_ONE_EPS:
            beta = -self.skew
            out = self.gamma * z + (2 / math.pi) * beta * self.gamma * math.log(self.gamma)
        else:
            out = self.gamma ** (1.0 / self.alpha) * z
        return out + self.location

    def cdf(self, x):
        if self._is_gaussian_form:
            return 0.5 * (1.0 + math.erf((x - self.location) / (2.0 * math.sqrt(self.gamma))))
        if self._is_cauchy_form:
            return 0.5 + math.atan((x - self.location) / self.gamma) / math.pi
        standard = _empirical_cdf_table(self)
        return bisect.bisect_right(standard, x, key=self._rescale) / standard.size

    @property
    def has_exact_cdf(self):
        return self._is_gaussian_form or self._is_cauchy_form

    @property
    def cdf_sample_count(self):
        return None if self.has_exact_cdf else self.cdf_draws

    @property
    def variance(self):
        if not self._is_gaussian_form:
            raise ValueError(f"alpha={self.alpha} stable noise has infinite variance")
        return 2.0 * self.gamma


def _standard_stable(alpha, skew, rng, size):
    """Standard stable draws (gamma = 1, location 0): all angles, then all exponentials."""
    u = rng.uniform(-math.pi / 2, math.pi / 2, size)
    w = rng.exponential(1.0, size)
    # The documented skew convention is the sign flip of the textbook
    # 1-parameterization the CMS transform targets.
    beta = -skew
    if abs(alpha - 1.0) < _ALPHA_ONE_EPS:
        return _cms_standard_alpha_one(beta, u, w)
    return _cms_standard(alpha, beta, u, w)


def _cms_standard(alpha, beta, u, w):
    """Chambers-Mallows-Stuck draw of a standard stable variate, alpha != 1.

    ``u`` is uniform on (-pi/2, pi/2) and ``w`` standard exponential.  The
    output has characteristic function exp{-|t|^alpha (1 - i*beta*sign(t)
    tan(pi*alpha/2))}.
    """
    t = beta * math.tan(math.pi * alpha / 2)
    shift = math.atan(t) / alpha
    prefactor = (1.0 + t * t) ** (1.0 / (2 * alpha))
    return (
        prefactor
        * np.sin(alpha * (u + shift))
        / np.cos(u) ** (1.0 / alpha)
        * (np.cos(u - alpha * (u + shift)) / w) ** ((1.0 - alpha) / alpha)
    )


def _cms_standard_alpha_one(beta, u, w):
    """Alpha=1 branch of the CMS transform (reduces to tan(u) for beta=0)."""
    b = math.pi / 2 + beta * u
    return (2 / math.pi) * (b * np.tan(u) - beta * np.log((math.pi / 2) * w * np.cos(u) / b))


@lru_cache(maxsize=4)
def _standard_table(alpha: float, skew: float, draws: int) -> np.ndarray:
    """Sorted standard draws of one stable shape, from the fixed table seed."""
    rng = np.random.default_rng(np.random.SeedSequence(_EMPIRICAL_CDF_SEED))
    table = _standard_stable(alpha, skew, rng, draws)
    table.sort()
    table.setflags(write=False)
    return table


@lru_cache(maxsize=4)
def _empirical_cdf_table(model: AlphaStable) -> np.ndarray:
    """The shared sorted standard table behind ``model.cdf`` (not a copy).

    ``model.cdf`` counts its entries through ``model._rescale``, so no scaled
    table is built.  The per-model cache stays because ``bench/child.py``
    counts table lookups by its ``cache_info()``; it also spares the lock on repeats.
    """
    with _STANDARD_TABLE_LOCK:
        return _standard_table(model.alpha, model.skew, model.cdf_draws)


def classify(model: NoiseModel) -> NoiseClassification:
    """Sort a model into the finite-variance or stable theorem hypothesis.

    Alpha-stable noise with alpha < 2 is infinite-variance; everything else
    (including alpha = 2, which is Gaussian) has finite variance.
    """
    if isinstance(model, AlphaStable) and model.alpha < 2.0:
        return NoiseClassification(
            NoiseClass.INFINITE_VARIANCE_STABLE, model.center, model.scale
        )
    return NoiseClassification(NoiseClass.FINITE_VARIANCE, model.center, model.variance)


def finite_real(value, where: str):
    """``value`` unchanged if it is a finite int or float; ValueError naming ``where`` else.

    Booleans, strings and NaN are rejected, and so is anything a float cannot
    hold: JSON parses ``Infinity`` and ``1e999`` as infinite floats.
    """
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not -sys.float_info.max <= value <= sys.float_info.max):
        raise ValueError(f"{where} must be a number (finite, not a boolean), got {value!r}")
    return value


def integer_at_least(value, where: str, minimum: int) -> int:
    """``value`` unchanged if it is an int (not a bool) >= ``minimum``; ValueError else."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValueError(f"{where} must be an integer >= {minimum}, got {value!r}")
    return value

