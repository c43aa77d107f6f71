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

A Gaussian variate is one value of a Box-Muller pair, and a stable variate
the location-scale image of a standard (gamma = 1, location 0)
Chambers-Mallows-Stuck draw; both come from half-angle tangents, transformed
in place in chunks.  A stable draw of n values takes n angles, then n
exponentials (none for symmetric alpha = 1, whose transform does not use
them), and holds only its output and one fixed scratch of ``3 * _CHUNK``
values.  Stable families without a closed form get a table CDF: the
transform maps the ``cdf_draws`` points of a rank-1 lattice (not random
draws) to standard values, sorted once per (alpha, skew, cdf_draws) at 8
bytes per point, and each model counts the entries whose image under its
own location-scale map is <= x.  No per-scale table is built.

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
from functools import lru_cache

import numpy as np

__all__ = [
    "NoiseModel",
    "Gaussian",
    "Uniform",
    "Laplace",
    "AlphaStable",
    "finite_real",
    "integer_at_least",
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


class NoiseModel(ABC):
    """Location-scale base of all noise families.

    Each family is a frozen dataclass that names the field holding its
    center (``_center_field``: the mean, or the stable location) and the
    field holding the scale swept in noise-level studies (``_scale_field``).
    Construction stores every field declared ``float`` as :func:`finite_real`
    returns it (so ``0`` and ``0.0`` build equal, equally printed models)
    and checks that the scale is positive.
    """

    kind: str
    _center_field = "mean"
    _scale_field: str

    # Which of the paper's two forbidden-interval theorems covers the model.
    theorem = "finite_variance"
    has_exact_cdf = True

    def __post_init__(self):
        for f in fields(self):
            if f.type == "float":  # a string: this module postpones annotations
                value = finite_real(getattr(self, f.name), f"noise parameter {f.name!r}")
                object.__setattr__(self, f.name, value)
        if not self.scale > 0:
            raise ValueError(f"{self.kind} {self._scale_field} must be > 0, got {self.scale}")

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
    u2.  With r = sigma*sqrt(-2 log1p(-u1)) (0, not inf, at u1 = 0),
    t = tan(theta/2) for theta/2 = pi*u2 - pi/2 and q = r/(1 + t^2), a pair
    is r cos(theta) = 2q - r and r sin(theta) = 2qt.  The n values are all
    cosines, then the sines, cut to n.
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
            np.sqrt(np.multiply(r, -2.0 * self.sigma**2, out=r), out=r)
            np.tan(np.subtract(np.multiply(t, math.pi, out=t), math.pi / 2, out=t), out=t)
            np.multiply(np.divide(r, np.add(np.square(t, out=q), 1.0, out=q), out=q), 2.0, out=q)
            np.subtract(q, r, out=r)
            t *= q
        if self.mean:  # skipped at 0, where it would only turn -0.0 into 0.0
            pairs += self.mean
        return pairs.reshape(-1)[:size]

    def cdf(self, x):
        return 0.5 * (1.0 + math.erf((x - self.mean) / (self.sigma * _SQRT2)))


@dataclass(frozen=True)
class Uniform(NoiseModel):
    """Uniform on [mean - half_width, mean + half_width]."""

    mean: float = 0.0
    half_width: float = 1.0

    kind = "uniform"
    _scale_field = "half_width"

    def sample(self, rng, size):
        return rng.uniform(self.mean - self.half_width, self.mean + self.half_width, size)

    def cdf(self, x):
        t = (x - self.mean + self.half_width) / (2.0 * self.half_width)
        return min(max(t, 0.0), 1.0)


@dataclass(frozen=True)
class Laplace(NoiseModel):
    mean: float = 0.0
    diversity: float = 1.0

    kind = "laplace"
    _scale_field = "diversity"

    def sample(self, rng, size):
        return rng.laplace(self.mean, self.diversity, size)

    def cdf(self, x):
        z = (x - self.mean) / self.diversity
        if z < 0:
            return 0.5 * math.exp(z)
        return 1.0 - 0.5 * math.exp(-z)


@dataclass(frozen=True)
class AlphaStable(NoiseModel):
    """Alpha-stable noise in the 1-parameterization documented above.

    ``alpha`` is the stability exponent in (0, 2], ``skew`` the skewness in
    [-1, 1], ``gamma`` the dispersion (> 0) and ``location`` the shift.
    ``cdf_draws`` sizes the table CDF used when no closed form exists
    (alpha=2 and symmetric alpha=1 have closed forms): one sorted table of
    the standard values at that many lattice points per (alpha, skew),
    shared by every scale, whose entries each model counts through its own
    location-scale map.  The default 2^17 points put the CDF within 1.6e-4
    of ``scipy.stats.levy_stable`` on the tested families.
    ``sample`` applies the same map in place to its standard draws.
    """

    alpha: float
    skew: float = 0.0
    gamma: float = 1.0
    location: float = 0.0
    cdf_draws: int = 131_072

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

    def sample(self, rng, size):
        z = _standard_stable(self.alpha, self.skew, rng, size)
        return self._rescale(z, out=z)

    def _rescale(self, z, out=None):
        """Map standard (gamma = 1, location 0) draws ``z`` onto this model.

        With ``out`` (an array, which may be ``z``) the map runs in place
        there; else it returns a new value, so ``cdf`` can bisect a
        read-only table through it.  Positive affine, so non-decreasing
        even in floats.
        """
        if abs(self.alpha - 1.0) < _ALPHA_ONE_EPS:
            beta = -self.skew
            multiplier, shift = self.gamma, (2 / math.pi) * beta * self.gamma * math.log(self.gamma)
        else:
            multiplier, shift = self.gamma ** (1.0 / self.alpha), None
        y = z * multiplier if out is None else np.multiply(z, multiplier, out=out)
        if shift is not None:
            y += shift
        if self.location:  # as in Gaussian.sample
            y += self.location
        return y

    def cdf(self, x):
        if self._is_gaussian_form:
            return 0.5 * (1.0 + math.erf((x - self.location) / (2.0 * math.sqrt(self.gamma))))
        if self._is_cauchy_form:
            return 0.5 + math.atan((x - self.location) / self.gamma) / math.pi
        standard = _empirical_cdf_table(self)
        return bisect.bisect_right(standard, x, key=self._rescale) / standard.size

    @property
    def theorem(self):
        return "finite_variance" if self._is_gaussian_form else "infinite_variance_stable"

    @property
    def has_exact_cdf(self):
        return self._is_gaussian_form or self._is_cauchy_form


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
    """Sorted standard values of one stable shape at the ``draws`` points of
    a rank-1 lattice, built in the returned array and one fixed scratch of
    ``3 * _CHUNK`` values.

    With N = ``draws`` and generator g = round(N / golden ratio), point k
    (k = 0 ... N-1) has angle pi*((k + 1/2)/N - 1/2) and exponential
    -log1p(-y) with y = ((k*g mod N) + 1/2)/N, taken in int64 so k*g is
    exact (for N below 3.8e9).  These replace the sampler's uniforms
    and exponentials in the same transform.  The CDF is an integral over
    (angle, exponential), and lattice points cover that square far more
    evenly than random ones (Sloan & Joe, "Lattice Methods for Multiple
    Integration", 1994).
    """
    beta = -skew
    transform = _cms_standard_alpha_one if abs(alpha - 1.0) < _ALPHA_ONE_EPS else _cms_standard
    step = round(draws / _GOLDEN)
    table = np.ones(draws)
    table[0] = 0.0
    np.cumsum(table, out=table)  # k, exact in float64
    scratch = np.empty((3, min(draws, _CHUNK)))
    for lo in range(0, draws, _CHUNK):
        u = table[lo:lo + _CHUNK]
        w, a, c = scratch[:, : u.size]
        k = c.view(np.int64)  # copyto casts without ufunc buffers
        np.copyto(k, u, casting="unsafe")
        np.remainder(np.multiply(k, step, out=k), draws, out=k)  # k*g mod N
        np.copyto(w, k)
        np.divide(np.add(w, 0.5, out=w), draws, out=w)  # y
        np.negative(np.log1p(np.negative(w, out=w), out=w), out=w)  # the exponential
        np.divide(np.add(u, 0.5, out=u), draws, out=u)
        np.multiply(np.subtract(u, 0.5, out=u), math.pi, out=u)  # the angle
        transform(alpha, beta, u, w, a, c)
    table.sort()
    table.setflags(write=False)
    return table


@lru_cache(maxsize=4)
def _empirical_cdf_table(model: AlphaStable) -> np.ndarray:
    """The shared sorted standard lattice table behind ``model.cdf`` (not a copy).

    ``model.cdf`` counts its entries through ``model._rescale``, so no scaled
    table is built.  The per-model cache stays because ``bench/child.py``
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

