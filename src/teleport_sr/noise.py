"""Additive channel-noise models: sampling, CDFs, and the theorem each one falls under.

Four families are supported: Gaussian, Uniform, Laplace and alpha-stable.
Alpha-stable models follow the "1-parameterization" characteristic function

    cf(w) = exp{i*location*w - gamma*|w|**alpha * (1 + i*skew*sign(w)*tan(pi*alpha/2))}

for alpha != 1, and

    cf(w) = exp{i*location*w - gamma*|w| * (1 - 2i*skew*sign(w)*ln|w|/pi)}

for alpha == 1.  Under this convention alpha=2 is Gaussian with variance
2*gamma (for any skew) and alpha=1 with skew=0 is Cauchy with scale gamma.
The sampler and the CDFs below agree with each other in this convention; the
test suite checks both against independent references.

Every model is its standard shape (``model.standard``: center 0, scale 1)
through one map ``model.unit_map`` = (m, c): a draw is c + m*z for a
standard draw z, and ``model.cdf(x)`` the standard CDF at (x - c)/m.  A
standard Gaussian variate is one value of a Box-Muller pair, and a standard
stable one a Chambers-Mallows-Stuck draw, both from half-angle tangents,
transformed in place in chunks.  A stable draw of n values takes n angles,
then n exponentials (none for symmetric alpha = 1, whose transform does not
use them), and holds only its output and one fixed scratch of ``3 * _CHUNK``
values.  Stable families without a closed form get a table CDF: the
transform maps the ``cdf_draws`` points of a rank-1 lattice (not random
draws) to standard values, held in float32 (4 bytes per point) and sorted
once per (alpha, skew, cdf_draws); a model counts the entries <= (x - c)/m.

Every model is an immutable value.  Sampling takes an explicit
``numpy.random.Generator`` so independent workers can hold independent
streams.
"""

from __future__ import annotations

import bisect
import math
import sys
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields, replace
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "NoiseModel",
    "Gaussian",
    "Uniform",
    "Laplace",
    "AlphaStable",
]

# Width of the dedicated alpha=1 sampling/CDF branch; avoids the
# tan(pi*alpha/2) blow-up of the generic Chambers-Mallows-Stuck formula.
_ALPHA_ONE_EPS = 1e-8

# Held while a standard table is looked up or built, so a library caller's
# threads asking for one shape at once build it once (sweep workers only sample).
_STANDARD_TABLE_LOCK = threading.Lock()

_SQRT2 = math.sqrt(2.0)
_GOLDEN = (1.0 + math.sqrt(5.0)) / 2

# Draws per in-place pass of the stable transform, and pairs per pass of the
# Gaussian one: bounds their scratch memory and keeps a sweep cell's 2 * 10^4
# draws (both correction bits) in one pass.
_CHUNK = 1 << 15

# Table-build pass: its temporaries stay in cache, and the traced peak near the 4 B/point output.
_TABLE_CHUNK = 1 << 13


class NoiseModel(ABC):
    """Location-scale base of all noise families.

    Each family is a frozen dataclass that names the field holding its
    center (``_center_field``: the mean, or the stable location) and the
    field holding the scale swept in noise-level studies (``_scale_field``).
    Its ``sample`` and ``cdf`` work on the standard shape through the one
    map ``unit_map``.  Construction stores every field declared ``float`` as
    :func:`finite_real` returns it (so ``0`` and ``0.0`` build equal, equally
    printed models), checks that the scale is positive, runs the family's
    own checks and then checks the map: m finite and > 0, c finite.
    """

    kind: str
    _center_field = "mean"
    _scale_field: str

    # Which of the paper's two forbidden-interval theorems covers the model.
    theorem = "finite_variance"
    has_exact_cdf = True
    # Sign of the side the center moves to, relative to the scale, as the
    # scale vanishes: 0 for a pure scale map about the center.
    center_drift = 0

    def __post_init__(self):
        for f in fields(self):
            if f.type == "float":  # a string: this module postpones annotations
                value = finite_real(getattr(self, f.name), f"noise parameter {f.name!r}")
                object.__setattr__(self, f.name, value)
        if not self.scale > 0:
            raise ValueError(f"{self.kind} {self._scale_field} must be > 0, got {self.scale}")
        self._check_shape()
        try:
            m, c = self.unit_map
        except OverflowError:  # float ** raises where * returns inf
            m, c = math.inf, 0.0
        if not (0.0 < m < math.inf and math.isfinite(c)):
            where = f"{self.kind} {self._scale_field} {self.scale!r} at {self._center_field}"
            problem = "underflows to scale 0" if m == 0 else "overflows a float"
            raise ValueError(f"{where} {self.center!r} {problem} in the map to the standard shape")

    def _check_shape(self) -> None:
        """The family's own parameter checks, run before its map is taken."""

    @cached_property
    def unit_map(self) -> tuple[float, float]:
        """(m, c): this model's draws are c + m*z for draws z of ``standard``."""
        return self.scale, self.center

    @cached_property
    def standard(self) -> "NoiseModel":
        """The same family at center 0 and scale 1, whose ``unit_map`` is (1.0, 0.0)."""
        return replace(self, **{self._center_field: 0.0, self._scale_field: 1.0})

    def to_standard(self, x: float) -> float:
        """(x - c)/m: the standard value that this model maps to ``x``."""
        m, c = self.unit_map
        return (x - c) / m

    def _from_standard(self, z: np.ndarray) -> np.ndarray:
        """c + m*z, in place in ``z``.  Skips m = 1 and c = 0, so a standard
        model keeps its draws' bits (a -0.0 too).  A draw past a float's
        range is +-inf, as IEEE rounding gives, without a warning."""
        m, c = self.unit_map
        if m == 1.0 and not c:
            return z
        with np.errstate(over="ignore"):
            if m != 1.0:
                z *= m
            if c:
                z += c
        return z

    @abstractmethod
    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` draws from the model, as a 1-D float64 array."""

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
    """Normal noise; ``sample`` is Box-Muller (Box & Muller 1958) without sin or cos.

    One draw gives ceil(n/2) radius uniforms u1, then as many angle uniforms
    u2.  With r = sqrt(-2 log1p(-u1)) (0, not inf, at u1 = 0), t =
    tan(theta/2) for theta/2 = pi*u2 - pi/2 and q = r/(1 + t^2), a standard
    pair is r cos(theta) = 2q - r and r sin(theta) = 2qt.  The n values z
    are all cosines, then the sines, cut to n, each then mean + sigma*z.
    """

    mean: float = 0.0
    sigma: float = 1.0

    kind = "gaussian"
    _scale_field = "sigma"

    def sample(self, rng, size):
        pairs = rng.random((2, (size + 1) // 2))
        scratch = np.empty(min(pairs.shape[1], _CHUNK))
        for lo in range(0, pairs.shape[1], _CHUNK):  # in place, _CHUNK pairs at a time
            r, t = pairs[:, lo:lo + _CHUNK]
            q = scratch[: r.size]
            np.log1p(np.negative(r, out=r), out=r)
            np.sqrt(np.multiply(r, -2.0, out=r), out=r)
            np.tan(np.subtract(np.multiply(t, math.pi, out=t), math.pi / 2, out=t), out=t)
            np.multiply(np.divide(r, np.add(np.square(t, out=q), 1.0, out=q), out=q), 2.0, out=q)
            np.subtract(q, r, out=r)
            t *= q
        return self._from_standard(pairs.reshape(-1)[:size])

    def cdf(self, x):
        return 0.5 * (1.0 + math.erf(self.to_standard(x) / _SQRT2))


@dataclass(frozen=True)
class Uniform(NoiseModel):
    """Uniform on [mean - half_width, mean + half_width]."""

    mean: float = 0.0
    half_width: float = 1.0

    kind = "uniform"
    _scale_field = "half_width"

    def sample(self, rng, size):
        return self._from_standard(rng.uniform(-1.0, 1.0, size))

    def cdf(self, x):
        return min(max((self.to_standard(x) + 1.0) / 2.0, 0.0), 1.0)


@dataclass(frozen=True)
class Laplace(NoiseModel):
    mean: float = 0.0
    diversity: float = 1.0

    kind = "laplace"
    _scale_field = "diversity"

    def sample(self, rng, size):
        return self._from_standard(rng.laplace(0.0, 1.0, size))

    def cdf(self, x):
        z = self.to_standard(x)
        return 0.5 * math.exp(z) if z < 0 else 1.0 - 0.5 * math.exp(-z)


@dataclass(frozen=True)
class AlphaStable(NoiseModel):
    """Alpha-stable noise in the 1-parameterization documented above.

    ``alpha`` is the stability exponent in (0, 2], ``skew`` the skewness in
    [-1, 1], ``gamma`` the dispersion (> 0) and ``location`` the shift.
    ``cdf_draws`` sizes the table CDF used when no closed form exists
    (alpha=2 and symmetric alpha=1 have closed forms): one sorted float32
    table of the standard values at that many lattice points per (alpha,
    skew), shared by every scale, whose entries each model counts up to
    (x - c)/m, compared in float64.  The default 2^17 points put the CDF
    within 1.6e-4 of ``scipy.stats.levy_stable`` on the tested families,
    and within 2/N of the same lattice held in float64.

    The map is m = gamma^(1/alpha), c = location, except at alpha = 1, where
    m = gamma and c = location + (2/pi)*beta*gamma*ln(gamma), beta = -skew.
    """

    alpha: float
    skew: float = 0.0
    gamma: float = 1.0
    location: float = 0.0
    cdf_draws: int = 131_072

    kind = "alpha_stable"
    _center_field = "location"
    _scale_field = "gamma"

    def _check_shape(self):
        if not 0 < self.alpha <= 2:
            raise ValueError(f"stable alpha must be in (0, 2], got {self.alpha}")
        if not -1 <= self.skew <= 1:
            raise ValueError(f"stable skew must be in [-1, 1], got {self.skew}")
        n = integer_at_least(self.cdf_draws, "cdf_draws", 1)
        if n >= 1 << 32 or (n - 1) * round(n / _GOLDEN) >= 1 << 63:  # the table's k*g in int64
            raise ValueError(f"cdf_draws must be at most 3863124311, got {n}")

    @property
    def _is_gaussian_form(self) -> bool:
        return self.alpha == 2.0

    @property
    def _is_cauchy_form(self) -> bool:
        return abs(self.alpha - 1.0) < _ALPHA_ONE_EPS and self.skew == 0.0

    @cached_property
    def unit_map(self):
        if abs(self.alpha - 1.0) < _ALPHA_ONE_EPS:
            shift = (2 / math.pi) * -self.skew * self.gamma * math.log(self.gamma)  # beta = -skew
            return self.gamma, self.location + shift
        return self.gamma ** (1.0 / self.alpha), self.location

    def sample(self, rng, size):
        return self._from_standard(_standard_stable(self.alpha, self.skew, rng, size))

    def cdf(self, x):
        z = self.to_standard(x)
        if self._is_gaussian_form:  # variance 2 at gamma = 1
            return 0.5 * (1.0 + math.erf(z / 2.0))
        if self._is_cauchy_form:
            return 0.5 + math.atan(z) / math.pi
        table = _empirical_cdf_table(self)  # float32: key=float keeps z from being cast to it
        return bisect.bisect_right(table, z, key=float) / table.size

    @property
    def theorem(self):
        return "finite_variance" if self._is_gaussian_form else "infinite_variance_stable"

    @property
    def has_exact_cdf(self):
        return self._is_gaussian_form or self._is_cauchy_form

    @property
    def center_drift(self):
        """The sign of ``skew`` at alpha = 1, where the map's shift over its
        scale diverges toward it as gamma -> 0; 0 for every other shape."""
        if abs(self.alpha - 1.0) < _ALPHA_ONE_EPS and self.skew:
            return 1 if self.skew > 0 else -1
        return 0


def _standard_stable(alpha, skew, rng, size):
    """Standard stable draws (gamma = 1, location 0), in the returned array
    and one fixed scratch of ``3 * _CHUNK`` values.

    All angles are drawn first, then the exponentials ``_CHUNK`` at a time
    into scratch row 0, each chunk transformed in place as it is drawn; the
    generator fills sequentially, so the values are those of one full draw.
    Symmetric alpha = 1 (Cauchy) draws angles only: its transform uses no
    exponentials.
    """
    u = rng.uniform(-math.pi / 2, math.pi / 2, size)
    # The documented skew convention is the sign flip of the textbook
    # 1-parameterization the CMS transform targets.
    beta = -skew
    alpha_one = abs(alpha - 1.0) < _ALPHA_ONE_EPS
    transform = _cms_standard_alpha_one if alpha_one else _cms_standard
    draws_exponentials = beta != 0 or not alpha_one
    scratch = np.empty((3, min(size, _CHUNK)))
    for lo in range(0, size, _CHUNK):
        hi = min(lo + _CHUNK, size)
        w, a, c = scratch[:, : hi - lo]
        if draws_exponentials:
            rng.standard_exponential(out=w)
        transform(alpha, beta, u[lo:hi], w, a, c)
    return u


def _cms_standard(alpha, beta, u, w, a, c):
    """Chambers-Mallows-Stuck draw of a standard stable variate, alpha != 1.

    ``u`` is uniform on (-pi/2, pi/2) and ``w`` standard exponential; the draw
    overwrites ``u``, and ``w``, ``a``, ``c`` are scratch.  The output has
    characteristic function exp{-|t|^alpha (1 - i*beta*sign(t) tan(pi*alpha/2))}.
    Half-angle tangents, transformed in place in chunks: with a = alpha*(u +
    shift), sin a and cos(u - a) come from tan(a/2) and tan((u - a)/2), and
    cos u from tan u (|u|, |u - a| < pi/2), so no sin or cos is called.
    """
    t = beta * math.tan(math.pi * alpha / 2)
    shift = math.atan(t) / alpha
    prefactor = 2.0 * (1.0 + t * t) ** (1.0 / (2 * alpha))
    np.multiply(np.add(u, shift, out=a), alpha / 2, out=a)  # a/2
    np.tan(np.subtract(np.multiply(u, 0.5, out=c), a, out=c), out=c)  # tan((u - a)/2)
    np.tan(a, out=a)
    np.sqrt(np.add(np.square(np.tan(u, out=u), out=u), 1.0, out=u), out=u)  # 1/cos u
    w /= u
    u *= a
    u /= np.add(np.square(a, out=a), 1.0, out=a)  # sin(a)/(2 cos u)
    np.subtract(1.0, np.square(c, out=c), out=a)
    a /= np.multiply(np.add(c, 1.0, out=c), w, out=c)  # cos(u - a)/(w cos u)
    u *= np.power(a, (1.0 - alpha) / alpha, out=a)
    u *= prefactor


def _cms_standard_alpha_one(alpha, beta, u, w, b, c):
    """Alpha=1 branch of ``_cms_standard`` (tan u for beta=0, which leaves ``w``
    unread); cos u is 1/sqrt(1 + tan^2 u)."""
    np.add(np.multiply(u, beta, out=b), math.pi / 2, out=b)
    np.tan(u, out=u)
    if beta:  # else the log term is 0; skipping it keeps a w = 0 draw from giving NaN
        np.multiply(np.sqrt(np.add(np.square(u, out=c), 1.0, out=c), out=c), b, out=c)  # b/cos u
        np.divide(np.multiply(w, math.pi / 2, out=w), c, out=w)  # (pi/2) w cos u / b
        np.multiply(np.log(w, out=w), beta, out=w)
    u *= b
    if beta:
        u -= w
    u *= 2 / math.pi


@lru_cache(maxsize=4)
def _standard_table(alpha: float, skew: float, draws: int) -> np.ndarray:
    """Sorted float32 standard values of one stable shape at the ``draws``
    points of a rank-1 lattice, built in the returned array (4 bytes per
    point) ``_TABLE_CHUNK`` points at a time.

    With N = ``draws`` and generator g = round(N / golden ratio), point k
    (k = 0 ... N-1) has angle pi*((k + 1/2)/N - 1/2) and exponential
    -log1p(-y) with y = ((k*g mod N) + 1/2)/N, taken in int64 so k*g is
    exact (``AlphaStable`` refuses an N above 3,863,124,311, where it is
    not).  These replace the sampler's uniforms and exponentials in the
    same transform.  The CDF is an integral over (angle, exponential), and
    lattice points cover that square far more evenly than random ones
    (Sloan & Joe, "Lattice Methods for Multiple Integration", 1994).

    Each angle and exponential is computed in float64 and rounded once to
    float32; the transform then runs in float32.  Its rounding (6e-8
    relative) is ~1,000 times below the lattice's own error.  A value past
    float32's range (3.4e38; at the default size only for alpha below
    ~0.22) is stored as +-inf without a warning, and counts as the float64
    value would for every x of smaller magnitude.
    """
    beta = -skew
    transform = _cms_standard_alpha_one if abs(alpha - 1.0) < _ALPHA_ONE_EPS else _cms_standard
    step = round(draws / _GOLDEN)
    table = np.empty(draws, dtype=np.float32)
    for lo in range(0, draws, _TABLE_CHUNK):
        k = np.arange(lo, min(lo + _TABLE_CHUNK, draws))
        u = table[lo:lo + k.size]
        u[:] = ((k + 0.5) / draws - 0.5) * math.pi  # the angle
        w = (-np.log1p(-((k * step % draws + 0.5) / draws))).astype(np.float32)
        with np.errstate(over="ignore"):  # a value past float32's range is +-inf
            transform(alpha, beta, u, w, np.empty_like(w), np.empty_like(w))
    table.sort()
    table.setflags(write=False)
    return table


@lru_cache(maxsize=4)
def _empirical_cdf_table(model: AlphaStable) -> np.ndarray:
    """The shared sorted float32 standard lattice table behind ``model.cdf`` (not a copy).

    ``model.cdf`` counts its entries up to ``model.to_standard(x)``, so no
    scaled table is built.  The per-model cache stays because ``bench/child.py``
    counts table lookups by its ``cache_info()``; it also spares the lock on repeats.
    """
    with _STANDARD_TABLE_LOCK:
        return _standard_table(model.alpha, model.skew, model.cdf_draws)


def finite_real(value, where: str) -> float:
    """``float(value)`` if ``value`` is a finite int or float; ValueError naming ``where`` else.

    Booleans, strings and NaN are rejected, and so is anything a float cannot
    hold: JSON parses ``Infinity`` and ``1e999`` as infinite floats.  Value
    types store what this returns, so ``1`` and ``1.0`` print and hash alike.
    """
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not -sys.float_info.max <= value <= sys.float_info.max):
        raise ValueError(f"{where} must be a number (finite, not a boolean), got {value!r}")
    return float(value)


def integer_at_least(value, where: str, minimum: int) -> int:
    """``value`` unchanged if it is an int (not a bool) >= ``minimum``; ValueError else."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValueError(f"{where} must be an integer >= {minimum}, got {value!r}")
    return value

