"""The classical leg: bipolar signaling with additive noise and a threshold.

A bit is encoded as -A (bit 0) or +A (bit 1), corrupted by one draw of the
channel noise, and detected as 1 exactly when the received value exceeds the
threshold.  Signals are subthreshold by default (0 < A < threshold): without
noise neither signal level ever crosses the threshold, so noise is what lets
the bits through.  The forbidden-interval predicates hold for any amplitude.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .noise import NoiseModel, finite_real

__all__ = [
    "ChannelConfig",
    "DetectionStats",
    "Interval",
    "encode",
    "detect",
    "transmit_bits",
    "detection_probabilities",
    "forbidden_interval",
    "center_regime",
    "sr_predicted",
]

_ATOL = 1e-12


@dataclass(frozen=True)
class ChannelConfig:
    """Signal amplitude and detection threshold.

    Both numbers must be finite and are stored as floats, and
    ``allow_suprathreshold`` must be a boolean.  Construction enforces the
    subthreshold regime 0 < amplitude < threshold unless
    ``allow_suprathreshold`` is set.
    """

    amplitude: float
    threshold: float
    allow_suprathreshold: bool = False

    def __post_init__(self):
        for name in ("amplitude", "threshold"):
            object.__setattr__(self, name, finite_real(getattr(self, name), f"channel.{name}"))
        if not isinstance(self.allow_suprathreshold, bool):
            raise ValueError(f"channel.allow_suprathreshold must be a boolean, "
                             f"got {self.allow_suprathreshold!r}")
        if not self.amplitude > 0:
            raise ValueError(f"amplitude must be > 0, got {self.amplitude}")
        if not self.subthreshold and not self.allow_suprathreshold:
            raise ValueError(
                f"suprathreshold signal (amplitude {self.amplitude} >= threshold "
                f"{self.threshold}); pass allow_suprathreshold=True to override"
            )

    @property
    def subthreshold(self) -> bool:
        return 0 < self.amplitude < self.threshold


class Interval(NamedTuple):
    """The interval between ``lo`` and ``hi``; :func:`center_regime` places a center in it."""

    lo: float
    hi: float


@dataclass(frozen=True)
class DetectionStats:
    """Conditional detection probabilities p(y|s) and their difference P.

    ``pYS`` naming: p00 = p(y=0|s=0), p01 = p(y=0|s=1), p10 = p(y=1|s=0),
    p11 = p(y=1|s=1).  Only the CDF values p00 and p01 are stored; the rest
    derive from them.  P = p00 - p01 = p11 - p10 is the one channel scalar
    the fidelity depends on.  Whether they are exact is a property of the
    noise model (``has_exact_cdf``), not of the probabilities.
    """

    p00: float
    p01: float

    def __post_init__(self):
        for name in ("p00", "p01"):
            v = getattr(self, name)
            if not -_ATOL <= v <= 1 + _ATOL:
                raise ValueError(f"{name}={v} is not a probability")
        if self.P < -_ATOL:
            raise ValueError(f"P={self.P} must be nonnegative")

    @property
    def p10(self) -> float:
        return 1.0 - self.p00

    @property
    def p11(self) -> float:
        return 1.0 - self.p01

    @property
    def P(self) -> float:
        return self.p00 - self.p01


def encode(bit, config: ChannelConfig):
    """Map bit 0 to -amplitude and bit 1 to +amplitude.

    Accepts a 0/1 (or boolean) scalar, giving a scalar, or an array.  Any
    other integer raises ValueError and a non-integer type TypeError.
    """
    bits = np.asarray(bit).astype(np.intp, casting="safe", copy=False)
    # One reduction: a negative bit is huge when read as unsigned.
    if bits.view(np.uintp).max(initial=0) > 1:
        raise ValueError(f"bits must be 0 or 1, got {np.unique(bits).tolist()}")
    levels = np.array([-config.amplitude, config.amplitude])
    return levels[bits]


def detect(received, config: ChannelConfig) -> np.ndarray:
    """1 iff the received value strictly exceeds the threshold, as int64 array.

    A value exactly at the threshold counts as 0 (a zero-measure event for
    continuous noise; the convention is fixed for reproducibility).
    """
    return (np.asarray(received) > config.threshold).astype(np.int64)


def transmit_bits(bits: np.ndarray, config: ChannelConfig, noise: NoiseModel,
                  rng: np.random.Generator) -> np.ndarray:
    """Vectorized transmission of a bool bit array, one noise draw in C order; bool detections.

    Draws standard noise z and tests ``z > (threshold - amplitude - c)/m`` for
    bit 1 and ``z > (threshold + amplitude - c)/m`` for bit 0, (m, c) =
    ``noise.unit_map``: the event ``detect(noise + encode(bits))`` tests, up
    to rounding at the cut.  Other bit dtypes raise TypeError, before any draw.
    """
    bits = np.asarray(bits)
    if bits.dtype != bool:
        raise TypeError(f"bits must be bool, got dtype {bits.dtype}")
    z = noise.standard.sample(rng, bits.size).reshape(bits.shape)
    # amplitude > 0 and m > 0, so noise past the bit-0 cut is past the bit-1 cut too.
    out = z > noise.to_standard(config.threshold - config.amplitude)
    out &= bits
    out |= z > noise.to_standard(config.threshold + config.amplitude)
    return out


def detection_probabilities(config: ChannelConfig, noise: NoiseModel) -> DetectionStats:
    """Exact (or lattice-table CDF) conditional detection probabilities.

    p00 = cdf(threshold + A) and p01 = cdf(threshold - A): a transmitted 0
    stays below threshold unless the noise exceeds threshold + A, and a
    transmitted 1 unless it exceeds threshold - A.
    """
    return DetectionStats(
        p00=noise.cdf(config.threshold + config.amplitude),
        p01=noise.cdf(config.threshold - config.amplitude),
    )


def forbidden_interval(config: ChannelConfig) -> Interval:
    """The interval from threshold - A to threshold + A."""
    return Interval(config.threshold - config.amplitude, config.threshold + config.amplitude)


def center_regime(config: ChannelConfig, noise: NoiseModel) -> str:
    """Where the noise center (mean or stable location) sits as the scale vanishes.

    ``"inside"`` strictly between the endpoints of the forbidden interval (P
    tends to 1), ``"outside"`` beyond them (P tends to 0), and ``"endpoint"``
    exactly on one.  There a pure scale map has P tend to 1 - F(center) at
    the lower endpoint and F(center) at the upper one, and P never rises
    with the scale.  A model whose center drifts faster than its scale
    shrinks (``noise.center_drift``: only alpha = 1 stable noise with skew !=
    0) counts as inside or outside on the side it drifts to.
    """
    lo, hi = forbidden_interval(config)
    center = noise.center
    if lo < center < hi:
        return "inside"
    if not lo <= center <= hi:
        return "outside"
    if not noise.center_drift:
        return "endpoint"
    return "inside" if (noise.center_drift > 0) == (center == lo) else "outside"


def sr_predicted(config: ChannelConfig, noise: NoiseModel) -> bool:
    """Whether a nonmonotone noise benefit is predicted for this pairing.

    True iff :func:`center_regime` is ``"outside"``: the noise center lies
    outside the closed forbidden interval, since a center exactly on an
    endpoint gets no benefit either.  No subthreshold assumption is needed:
    outside, P tends to 0 as the scale vanishes, so some noise must help.
    """
    return center_regime(config, noise) == "outside"

