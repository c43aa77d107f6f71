"""The classical leg: bipolar signaling with additive noise and a threshold.

A bit is encoded as -A (bit 0) or +A (bit 1), corrupted by one draw of the
channel noise, and detected as 1 exactly when the received value exceeds the
threshold.  Signals are subthreshold by default (0 < A < threshold), which is
the regime where a noise benefit can occur at all: without noise neither
signal level ever crosses the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .noise import NoiseModel, classify, finite_real

__all__ = [
    "ChannelConfig",
    "DetectionStats",
    "Interval",
    "encode",
    "detect",
    "transmit_bits",
    "detection_probabilities",
    "forbidden_interval",
    "sr_predicted",
    "channel_from_json",
    "channel_to_json",
]

_ATOL = 1e-12


@dataclass(frozen=True)
class ChannelConfig:
    """Signal amplitude and detection threshold.

    Construction enforces the subthreshold regime 0 < amplitude < threshold
    unless ``allow_suprathreshold`` is set; the noise-benefit predicates only
    make sense for subthreshold signals.
    """

    amplitude: float
    threshold: float
    allow_suprathreshold: bool = False

    def __post_init__(self):
        if not self.amplitude > 0:
            raise ValueError(f"amplitude must be > 0, got {self.amplitude}")
        if self.amplitude >= self.threshold and not self.allow_suprathreshold:
            raise ValueError(
                f"suprathreshold signal (amplitude {self.amplitude} >= threshold "
                f"{self.threshold}); pass allow_suprathreshold=True to override"
            )

    @property
    def subthreshold(self) -> bool:
        return 0 < self.amplitude < self.threshold


class Interval(NamedTuple):
    """An open interval (lo, hi); endpoints count as outside."""

    lo: float
    hi: float

    def contains_open(self, x: float) -> bool:
        return self.lo < x < self.hi


@dataclass(frozen=True)
class DetectionStats:
    """Conditional detection probabilities p(y|s) and their difference P.

    ``pYS`` naming: p00 = p(y=0|s=0), p01 = p(y=0|s=1), p10 = p(y=1|s=0),
    p11 = p(y=1|s=1).  P = p00 - p01 = p11 - p10 is the one channel scalar
    the fidelity depends on.  ``cdf_exact`` is False when the probabilities
    came from an empirical CDF estimate of ``cdf_draws`` samples.
    """

    p00: float
    p01: float
    p10: float
    p11: float
    P: float
    cdf_exact: bool = True
    cdf_draws: int | None = None

    def __post_init__(self):
        for name in ("p00", "p01", "p10", "p11"):
            v = getattr(self, name)
            if not -_ATOL <= v <= 1 + _ATOL:
                raise ValueError(f"{name}={v} is not a probability")
        if abs(self.p00 + self.p10 - 1.0) > _ATOL:
            raise ValueError(f"p(y|s=0) row sums to {self.p00 + self.p10}, not 1")
        if abs(self.p01 + self.p11 - 1.0) > _ATOL:
            raise ValueError(f"p(y|s=1) row sums to {self.p01 + self.p11}, not 1")
        if abs(self.P - (self.p00 - self.p01)) > _ATOL or abs(self.P - (self.p11 - self.p10)) > _ATOL:
            raise ValueError(f"P={self.P} inconsistent with conditional probabilities")
        if self.P < -_ATOL:
            raise ValueError(f"P={self.P} must be nonnegative")


def encode(bit, config: ChannelConfig):
    """Map bit 0 to -amplitude and bit 1 to +amplitude.  Accepts arrays."""
    return config.amplitude * (2 * bit - 1)


def detect(received, config: ChannelConfig) -> np.ndarray:
    """1 iff the received value strictly exceeds the threshold, as int64 array.

    A value exactly at the threshold counts as 0 (a zero-measure event for
    continuous noise; the convention is fixed for reproducibility).
    """
    return (np.asarray(received) > config.threshold).astype(np.int64)


def transmit_bits(bits: np.ndarray, config: ChannelConfig, noise: NoiseModel,
                  rng: np.random.Generator) -> np.ndarray:
    """Vectorized transmission of a bit array, one noise draw per bit."""
    bits = np.asarray(bits)
    return detect(encode(bits, config) + noise.sample(rng, bits.size), config)


def detection_probabilities(config: ChannelConfig, noise: NoiseModel) -> DetectionStats:
    """Exact (or empirical-CDF) conditional detection probabilities.

    p00 = cdf(threshold + A) and p01 = cdf(threshold - A): a transmitted 0
    stays below threshold unless the noise exceeds threshold + A, and a
    transmitted 1 unless it exceeds threshold - A.
    """
    p00 = noise.cdf(config.threshold + config.amplitude)
    p01 = noise.cdf(config.threshold - config.amplitude)
    return DetectionStats(
        p00=p00,
        p01=p01,
        p10=1.0 - p00,
        p11=1.0 - p01,
        P=p00 - p01,
        cdf_exact=noise.has_exact_cdf,
        cdf_draws=noise.cdf_sample_count,
    )


def forbidden_interval(config: ChannelConfig) -> Interval:
    """The open interval (threshold - A, threshold + A)."""
    return Interval(config.threshold - config.amplitude, config.threshold + config.amplitude)


def sr_predicted(config: ChannelConfig, noise: NoiseModel) -> bool:
    """Whether a nonmonotone noise benefit is predicted for this pairing.

    True iff the noise center (mean or stable location) lies outside the open
    forbidden interval; centers exactly on an endpoint count as outside.
    Only defined for subthreshold configurations.
    """
    if not config.subthreshold:
        raise ValueError("noise-benefit prediction requires a subthreshold configuration")
    return not forbidden_interval(config).contains_open(classify(noise).center)


def channel_from_json(spec) -> ChannelConfig:
    """Build a config from ``{"amplitude": ..., "threshold": ...}``."""
    if not isinstance(spec, dict):
        raise ValueError(f"channel spec must be an object, got {type(spec).__name__}")
    params = dict(spec)
    unknown = set(params) - {"amplitude", "threshold", "allow_suprathreshold"}
    if unknown:
        raise ValueError(f"unknown channel keys: {sorted(unknown)}")
    try:
        amplitude = float(finite_real(params["amplitude"], "channel.amplitude"))
        threshold = float(finite_real(params["threshold"], "channel.threshold"))
    except KeyError as exc:
        raise ValueError(f"channel spec missing key {exc.args[0]!r}") from None
    allow = params.get("allow_suprathreshold", False)
    if not isinstance(allow, bool):
        raise ValueError(f"allow_suprathreshold must be a boolean, got {allow!r}")
    return ChannelConfig(amplitude, threshold, allow)


def channel_to_json(config: ChannelConfig) -> dict:
    return {
        "amplitude": config.amplitude,
        "threshold": config.threshold,
        "allow_suprathreshold": config.allow_suprathreshold,
    }
