"""Classical-channel tests.

Detection probabilities are checked against scipy CDF oracles and against
empirical transmission frequencies; the forbidden-interval predicate is
checked on a fine grid of noise centers including the exact endpoints.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats as sps

from teleport_sr.channel import (
    ChannelConfig,
    DetectionStats,
    detect,
    detection_probabilities,
    encode,
    forbidden_interval,
    sr_predicted,
    transmit_bits,
)
from teleport_sr.cli import config_to_json, parse_run_config
from teleport_sr.noise import AlphaStable, Gaussian, Laplace, Uniform

REF_CHANNEL = ChannelConfig(amplitude=1.1, threshold=1.6)


def parse_channel(spec):
    return parse_run_config({"state": "plus", "channel": spec, "noise": {"kind": "gaussian"}})


class TestChannelConfig:
    def test_rejects_suprathreshold_by_default(self):
        with pytest.raises(ValueError, match="suprathreshold"):
            ChannelConfig(amplitude=1.6, threshold=1.6)

    def test_suprathreshold_override(self):
        cfg = ChannelConfig(amplitude=2.0, threshold=1.6, allow_suprathreshold=True)
        assert not cfg.subthreshold

    def test_rejects_nonpositive_amplitude(self):
        with pytest.raises(ValueError, match="amplitude"):
            ChannelConfig(amplitude=0.0, threshold=1.6)

    def test_json_round_trip(self):
        cfg = parse_channel({"amplitude": 1.1, "threshold": 1.6})
        assert cfg.channel == ChannelConfig(1.1, 1.6)
        assert parse_run_config(config_to_json(cfg)).channel == cfg.channel

    def test_json_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown channel keys"):
            parse_channel({"amplitude": 1.1, "threshold": 1.6, "gain": 2.0})

    def test_json_requires_amplitude_and_threshold(self):
        with pytest.raises(ValueError, match="channel missing key 'threshold'"):
            parse_channel({"amplitude": 1.1})


class TestEncodeDetect:
    def test_encode_bipolar(self):
        assert encode(0, REF_CHANNEL) == pytest.approx(-1.1)
        assert encode(1, REF_CHANNEL) == pytest.approx(1.1)
        # Boolean bits are bits, not masks; scalars stay scalars.
        assert encode(True, REF_CHANNEL) == 1.1 and np.ndim(encode(True, REF_CHANNEL)) == 0
        assert encode(False, REF_CHANNEL) == -1.1
        assert encode(np.array([True, False, True]), REF_CHANNEL).tolist() == [1.1, -1.1, 1.1]
        assert encode(np.array([[0, 1]]), REF_CHANNEL).tolist() == [[-1.1, 1.1]]

    @pytest.mark.parametrize("bit, error", [
        (-1, ValueError), (2, ValueError), (np.array([[0, 1], [2, 0]]), ValueError),
        (0.7, TypeError), (np.array([1.0, 0.0]), TypeError),
    ], ids=["minus-one", "two", "2d-array", "float", "float-array"])
    def test_encode_rejects_non_bits(self, bit, error):
        with pytest.raises(error, match="bits must be 0 or 1|safe"):
            encode(bit, REF_CHANNEL)

    def test_encode_tiny_amplitude_with_override(self):
        cfg = ChannelConfig(1e-4, 1.6)
        assert encode(1, cfg) == pytest.approx(1e-4)

    def test_detect_threshold_rule(self):
        assert detect(1.7, REF_CHANNEL) == 1
        assert detect(1.6, REF_CHANNEL) == 0  # tie resolves to 0
        assert detect(-0.2, REF_CHANNEL) == 0

    def test_detect_array(self):
        out = detect(np.array([1.7, 1.6, -0.2]), REF_CHANNEL)
        np.testing.assert_array_equal(out, [1, 0, 0])


class TestTransmit:
    def test_subthreshold_without_noise_never_detects(self):
        quiet = Gaussian(0.0, 1e-12)
        rng = np.random.default_rng(1)
        for bit in (0, 1):
            out = transmit_bits(np.full(10_000, bit, dtype=bool), REF_CHANNEL, quiet, rng)
            assert not out.any()

    def test_detection_rate_for_one(self):
        # p11 = 1 - Phi(0.5/1.42) = 0.3623768811: scipy-normal oracle
        rng = np.random.default_rng(2)
        out = transmit_bits(np.ones(1_000_000, dtype=bool), REF_CHANNEL, Gaussian(0.0, 1.42), rng)
        assert out.mean() == pytest.approx(0.36237688114362276, abs=0.002)

    def test_detection_rate_for_zero(self):
        # p10 = 1 - Phi(2.7/1.42) = 0.0286242668
        rng = np.random.default_rng(3)
        out = transmit_bits(np.zeros(1_000_000, dtype=bool), REF_CHANNEL, Gaussian(0.0, 1.42), rng)
        assert out.mean() == pytest.approx(0.028624266751806293, abs=0.002)

    @pytest.mark.parametrize("model", [
        Gaussian(0.0, 1.42),
        Uniform(0.3, 2.0),
        Laplace(-0.2, 1.1),
        AlphaStable(1.0, 0.0, 1.11, 0.0),
    ])
    def test_empirical_frequencies_match_probabilities(self, model):
        rng = np.random.default_rng(5)
        stats = detection_probabilities(REF_CHANNEL, model)
        n = 1_000_000
        for bit, expected in ((False, stats.p10), (True, stats.p11)):
            freq = transmit_bits(np.full(n, bit), REF_CHANNEL, model, rng).mean()
            band = 4.0 * math.sqrt(max(expected * (1 - expected), 1e-12) / n)
            assert abs(freq - expected) < max(band, 1e-4)

    @pytest.mark.parametrize("model", [
        Gaussian(0.0, 1.42),
        Laplace(-0.2, 1.1),
        AlphaStable(1.5, 0.5),
    ])
    @pytest.mark.parametrize("dtype", [bool])  # the only dtype transmit_bits takes
    def test_threshold_compares_detect_the_encoded_sum(self, model, dtype):
        # noise > threshold -/+ amplitude is the event noise +/- amplitude > threshold.
        bits = np.random.default_rng(7).integers(0, 2, 1_000_000).astype(dtype)
        out = transmit_bits(bits, REF_CHANNEL, model, np.random.default_rng(8))
        received = model.sample(np.random.default_rng(8), bits.size) + encode(bits, REF_CHANNEL)
        assert out.dtype == bool
        np.testing.assert_array_equal(out, detect(received, REF_CHANNEL))

    def test_keeps_the_bit_checks_of_encode(self):
        # Bits that are not bool raise, naming their dtype, before any draw.
        for bad in (np.array([0, 1, 1]), np.array([0.0, 1.0]), [0, 1]):
            rng = np.random.default_rng(9)
            with pytest.raises(TypeError, match=f"dtype {np.asarray(bad).dtype}"):
                transmit_bits(bad, REF_CHANNEL, Gaussian(0.0, 1.42), rng)
            assert rng.random() == np.random.default_rng(9).random()

    def test_transmit_bits_vectorizes_mixed_bits(self):
        rng = np.random.default_rng(6)
        bits = rng.integers(0, 2, 100_000).astype(bool)
        out = transmit_bits(bits, REF_CHANNEL, Gaussian(0.0, 1.42), rng)
        stats = detection_probabilities(REF_CHANNEL, Gaussian(0.0, 1.42))
        assert out[bits].mean() == pytest.approx(stats.p11, abs=0.01)
        assert out[~bits].mean() == pytest.approx(stats.p10, abs=0.01)


class TestDetectionProbabilities:
    def test_gaussian_reference_point(self):
        model = Gaussian(0.0, 1.42)
        stats = detection_probabilities(REF_CHANNEL, model)
        oracle = sps.norm.cdf(2.7 / 1.42) - sps.norm.cdf(0.5 / 1.42)
        assert stats.P == pytest.approx(oracle, abs=1e-12)
        assert stats.P == pytest.approx(0.3337, abs=2e-4)
        assert model.has_exact_cdf
        assert [f.name for f in dataclasses.fields(stats)] == ["p00", "p01"]

    def test_cauchy_reference_point(self):
        stats = detection_probabilities(REF_CHANNEL, AlphaStable(1.0, 0.0, 1.11, 0.0))
        oracle = (math.atan(2.7 / 1.11) - math.atan(0.5 / 1.11)) / math.pi
        assert stats.P == pytest.approx(oracle, abs=1e-12)
        assert stats.P == pytest.approx(0.2412, abs=1e-4)

    def test_zero_noise_limit(self):
        stats = detection_probabilities(REF_CHANNEL, Gaussian(0.0, 1e-12))
        assert stats.p00 == 1.0
        assert stats.p01 == 1.0
        assert stats.P == 0.0

    def test_rows_and_difference_consistent_by_construction(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            amplitude = float(rng.uniform(0.1, 1.5))
            threshold = float(rng.uniform(amplitude + 0.01, 3.0))
            cfg = ChannelConfig(amplitude, threshold)
            model = Gaussian(float(rng.uniform(-2, 4)), float(rng.uniform(0.05, 3)))
            stats = detection_probabilities(cfg, model)
            assert stats.p00 + stats.p10 == pytest.approx(1.0, abs=1e-15)
            assert stats.p01 + stats.p11 == pytest.approx(1.0, abs=1e-15)
            assert stats.P == stats.p00 - stats.p01
            assert stats.P == pytest.approx(stats.p11 - stats.p10, abs=1e-12)
            assert 0.0 <= stats.P <= 1.0

    def test_monotone_in_amplitude(self):
        for model in (Gaussian(0.2, 0.9), AlphaStable(1.0, 0.0, 0.8, 0.0)):
            values = [
                detection_probabilities(ChannelConfig(a, 1.6), model).P
                for a in np.linspace(0.05, 1.55, 40)
            ]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_empirical_cdf_flag_propagates(self):
        model = AlphaStable(1.5, 0.0, 1.0, 0.0, cdf_draws=50_000)
        stats = detection_probabilities(REF_CHANNEL, model)
        assert not model.has_exact_cdf and model.cdf_draws == 50_000
        assert stats.P >= 0.0

    def test_new_scale_builds_no_scaled_table(self):
        # Every scale counts the one shared standard table through its own
        # map; a scaled copy of it would take 8 bytes per draw, 1.6 MB here.
        family = AlphaStable(1.5, 0.5, cdf_draws=200_003)
        detection_probabilities(REF_CHANNEL, family)  # builds the standard table
        tracemalloc.start()
        try:
            detection_probabilities(REF_CHANNEL, family.with_scale(0.731))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_stats_validation(self):
        with pytest.raises(ValueError, match="not a probability"):
            DetectionStats(p00=1.2, p01=0.3)
        with pytest.raises(ValueError, match="nonnegative"):
            DetectionStats(p00=0.3, p01=0.9)


class TestForbiddenInterval:
    def test_reference_interval(self):
        interval = forbidden_interval(REF_CHANNEL)
        assert interval.lo == pytest.approx(0.5, abs=1e-12)
        assert interval.hi == pytest.approx(2.7, abs=1e-12)

    def test_interval_algebra(self):
        theta = 2.2
        interval = forbidden_interval(ChannelConfig(theta / 2, theta))
        assert interval.lo == pytest.approx(theta / 2)
        assert interval.hi == pytest.approx(3 * theta / 2)

    def test_interval_shrinks_with_amplitude(self):
        widths = [
            forbidden_interval(ChannelConfig(a, 1.6)).hi - forbidden_interval(ChannelConfig(a, 1.6)).lo
            for a in (1.0, 0.1, 1e-3, 1e-6)
        ]
        assert all(b < a for a, b in zip(widths, widths[1:]))
        tiny = forbidden_interval(ChannelConfig(1e-9, 1.6))
        assert tiny.lo == pytest.approx(1.6, abs=1e-8)
        assert tiny.hi == pytest.approx(1.6, abs=1e-8)


class TestSrPredicted:
    def test_gaussian_centers(self):
        assert sr_predicted(REF_CHANNEL, Gaussian(0.0, 1.0))
        assert not sr_predicted(REF_CHANNEL, Gaussian(0.7, 1.0))

    def test_cauchy_center_inside(self):
        assert not sr_predicted(REF_CHANNEL, AlphaStable(1.0, 0.0, 1.0, 0.7))

    def test_endpoint_counts_as_outside(self):
        interval = forbidden_interval(REF_CHANNEL)
        assert sr_predicted(REF_CHANNEL, AlphaStable(1.0, 0.0, 1.0, interval.hi))
        assert sr_predicted(REF_CHANNEL, Gaussian(interval.lo, 1.0))

    def test_flips_exactly_at_endpoints(self):
        interval = forbidden_interval(REF_CHANNEL)
        centers = np.concatenate([
            np.linspace(interval.lo - 0.3, interval.hi + 0.3, 401),
            [interval.lo, interval.hi],
        ])
        for center in centers:
            expected = not (interval.lo < center < interval.hi)
            assert sr_predicted(REF_CHANNEL, Gaussian(float(center), 1.0)) == expected

    def test_requires_subthreshold(self):
        cfg = ChannelConfig(2.0, 1.6, allow_suprathreshold=True)
        with pytest.raises(ValueError, match="subthreshold"):
            sr_predicted(cfg, Gaussian(0.0, 1.0))
