"""Noise-family tests.

The hand-written CDFs are checked against scipy, the samplers against the
CDFs (Kolmogorov-Smirnov), and the stable sampler additionally against the
characteristic function of the documented parameterization, which pins the
skew-sign convention.  Property tests check the location-scale interface
and the CDF bounds over all four families.
"""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats as sps

from teleport_sr import noise
from teleport_sr.cli import config_to_json, parse_run_config
from teleport_sr.noise import (
    AlphaStable,
    Gaussian,
    Laplace,
    NoiseClass,
    Uniform,
    classify,
)

GRID = np.linspace(-8.0, 8.0, 101)


def ks_statistic(samples, reference) -> float:
    """Kolmogorov-Smirnov distance between ``samples`` and ``reference``.

    A noise model's CDF takes one point at a time; a scipy distribution's
    CDF is evaluated once, on the whole sorted sample.
    """
    x = np.sort(np.asarray(samples))
    n = x.size
    if isinstance(reference, noise.NoiseModel):
        values = np.array([reference.cdf(v) for v in x])
    else:
        values = reference.cdf(x)
    steps = np.arange(n + 1) / n
    return max(np.max(steps[1:] - values), np.max(values - steps[:-1]))


class TestValidation:
    def test_scale_parameters_must_be_positive(self):
        with pytest.raises(ValueError, match="sigma"):
            Gaussian(0.0, 0.0)
        with pytest.raises(ValueError, match="half_width"):
            Uniform(0.0, -1.0)
        with pytest.raises(ValueError, match="diversity"):
            Laplace(0.0, 0.0)
        with pytest.raises(ValueError, match="gamma"):
            AlphaStable(1.5, 0.0, 0.0)

    def test_stable_parameter_ranges(self):
        with pytest.raises(ValueError, match="alpha"):
            AlphaStable(0.0)
        with pytest.raises(ValueError, match="alpha"):
            AlphaStable(2.5)
        with pytest.raises(ValueError, match="skew"):
            AlphaStable(1.5, skew=1.2)
        with pytest.raises(ValueError, match="cdf_draws"):
            AlphaStable(1.5, cdf_draws=0)


class TestCdf:
    @pytest.mark.parametrize("model,reference", [
        (Gaussian(0.3, 1.7), sps.norm(0.3, 1.7)),
        (Uniform(-0.2, 0.9), sps.uniform(-1.1, 1.8)),
        (Laplace(0.1, 0.6), sps.laplace(0.1, 0.6)),
        (AlphaStable(1.0, 0.0, 1.11, 0.4), sps.cauchy(0.4, 1.11)),
        (AlphaStable(2.0, 0.0, 0.9, -0.2), sps.norm(-0.2, math.sqrt(1.8))),
    ])
    def test_closed_forms_match_scipy(self, model, reference):
        ours = np.array([model.cdf(x) for x in GRID])
        np.testing.assert_allclose(ours, reference.cdf(GRID), atol=1e-12)

    def test_gaussian_median(self):
        assert Gaussian(2.5, 0.3).cdf(2.5) == pytest.approx(0.5, abs=1e-15)

    def test_cauchy_quartile(self):
        # arctan(1) = pi/4, so one scale above the location sits at 3/4
        model = AlphaStable(1.0, 0.0, 1.11, 0.0)
        assert model.cdf(1.11) == pytest.approx(0.75, abs=1e-15)

    def test_gaussian_band_probability(self):
        model = Gaussian(0.0, 1.42)
        diff = model.cdf(2.7) - model.cdf(0.5)
        assert diff == pytest.approx(0.33375261439181636, abs=1e-12)  # scipy-normal oracle
        assert diff == pytest.approx(0.3337, abs=2e-4)

    @pytest.mark.parametrize("model", [
        Gaussian(0.4, 0.8),
        Uniform(-0.3, 1.2),
        Laplace(0.2, 0.5),
        AlphaStable(1.0, 0.0, 0.7, 0.1),
        AlphaStable(2.0, 0.0, 1.3, 0.0),
        AlphaStable(1.5, 0.0, 1.0, 0.0, cdf_draws=100_000),
        AlphaStable(0.8, -0.4, 0.9, 0.2, cdf_draws=100_000),
    ])
    def test_monotone_with_unit_range(self, model):
        values = [model.cdf(x) for x in np.linspace(-60.0, 60.0, 1000)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)
        assert values[0] < 0.1 and values[-1] > 0.9

    def test_empirical_cdf_is_flagged_and_pure(self):
        model = AlphaStable(1.5, 0.2, 1.0, 0.0, cdf_draws=50_000)
        assert not model.has_exact_cdf
        assert model.cdf_sample_count == 50_000
        assert model.cdf(0.7) == model.cdf(0.7)
        assert AlphaStable(1.5, 0.2, 1.0, 0.0, cdf_draws=50_000).cdf(0.7) == model.cdf(0.7)

    def test_near_one_alpha_uses_cauchy_closed_form(self):
        assert AlphaStable(1.0 + 1e-9, 0.0, 1.0, 0.0).has_exact_cdf
        assert AlphaStable(2.0, 0.7, 1.0, 0.0).has_exact_cdf  # skew vanishes at alpha=2
        assert not AlphaStable(1.0, 0.5, 1.0, 0.0).has_exact_cdf

    @pytest.mark.parametrize("model", [
        AlphaStable(1.5, 0.5, 0.4, 0.0, cdf_draws=5_001),
        AlphaStable(1.5, 0.5, 2.5, -0.3, cdf_draws=5_001),
        AlphaStable(1.0, 0.3, 0.6, 0.2, cdf_draws=5_001),
        AlphaStable(1.0, 0.3, 1.7, 0.2, cdf_draws=5_001),
        AlphaStable(1.0, 0.3, 1e-4, 0.2, cdf_draws=5_001),
    ], ids=["alpha1.5-gamma0.4", "alpha1.5-gamma2.5", "alpha1-gamma0.6", "alpha1-gamma1.7",
            "alpha1-gamma1e-4"])
    def test_table_is_the_sorted_sample_of_the_model(self, model):
        # cdf counts the shared standard table through the model's map; it
        # must equal the empirical CDF of the model's own draws from the table
        # seed, bit for bit, at every draw and on both sides of it.
        rng = np.random.default_rng(np.random.SeedSequence(noise._EMPIRICAL_CDF_SEED))
        expected = np.sort(model.sample(rng, model.cdf_draws))
        points = np.concatenate([expected, np.nextafter(expected, -np.inf),
                                 np.nextafter(expected, np.inf)])
        want = np.searchsorted(expected, points, side="right") / expected.size
        assert [model.cdf(x) for x in points] == want.tolist()


class TestSampler:
    def test_gaussian_mean(self):
        rng = np.random.default_rng(101)
        x = Gaussian(0.0, 1.0).sample(rng, 1_000_000)
        assert abs(x.mean()) < 0.004  # 4-sigma CLT band

    def test_alpha_two_variance(self):
        rng = np.random.default_rng(102)
        for gamma in (0.5, 1.0, 2.3):
            x = AlphaStable(2.0, 0.0, gamma, 0.0).sample(rng, 1_000_000)
            assert x.var() == pytest.approx(2.0 * gamma, rel=0.05)

    def test_cauchy_against_closed_form(self):
        rng = np.random.default_rng(103)
        x = AlphaStable(1.0, 0.0, 1.11, 0.0).sample(rng, 100_000)
        assert ks_statistic(x, sps.cauchy(0.0, 1.11)) < 0.006

    @pytest.mark.parametrize("model", [
        Gaussian(0.7, 1.42),
        Uniform(0.2, 1.5),
        Laplace(-0.4, 0.8),
        AlphaStable(1.0, 0.0, 1.11, 0.0),
        AlphaStable(2.0, 0.0, 0.7, 0.4),
        AlphaStable(1.5, 0.0, 1.0, 0.0, cdf_draws=200_000),
        AlphaStable(1.5, 0.7, 1.3, 0.4, cdf_draws=200_000),
    ])
    def test_sampler_consistent_with_cdf(self, model):
        rng = np.random.default_rng(104)
        assert ks_statistic(model.sample(rng, 100_000), model) < 0.01

    @pytest.mark.parametrize("model", [
        AlphaStable(1.5, 0.7, 1.3, 0.4),
        AlphaStable(1.0, -0.5, 0.8, -0.3),
        AlphaStable(0.8, -0.6, 0.5, 0.1),
        AlphaStable(1.2, 1.0, 1.0, 0.0),
    ])
    def test_stable_sampler_matches_characteristic_function(self, model):
        # The empirical characteristic function is an unbiased, bounded
        # estimator, so it cleanly validates the skewed cases that have no
        # closed-form CDF.
        rng = np.random.default_rng(105)
        x = model.sample(rng, 300_000)
        for omega in (-1.7, -0.6, 0.35, 1.0, 2.2):
            if abs(model.alpha - 1.0) < 1e-8:
                exponent = (1j * model.location * omega
                            - model.gamma * abs(omega)
                            * (1 - 2j * model.skew * np.sign(omega) * math.log(abs(omega)) / math.pi))
            else:
                exponent = (1j * model.location * omega
                            - model.gamma * abs(omega) ** model.alpha
                            * (1 + 1j * model.skew * np.sign(omega) * math.tan(math.pi * model.alpha / 2)))
            empirical = np.exp(1j * omega * x).mean()
            assert abs(empirical - cmath.exp(exponent)) < 0.01

    def test_replay_and_shapes(self):
        model = AlphaStable(1.5, 0.3, 1.0, 0.0)
        a = model.sample(np.random.default_rng(7), 100)
        b = model.sample(np.random.default_rng(7), 100)
        np.testing.assert_array_equal(a, b)
        scalar = model.sample(np.random.default_rng(7))
        assert isinstance(scalar, float)
        assert scalar == model.sample(np.random.default_rng(7))


class TestClassify:
    def test_gaussian_is_finite_variance(self):
        c = classify(Gaussian(0.7, 1.0))
        assert c.kind is NoiseClass.FINITE_VARIANCE
        assert c.center == 0.7
        assert c.scale == 1.0

    def test_cauchy_is_infinite_variance(self):
        c = classify(AlphaStable(1.0, 0.0, 1.11, 0.0))
        assert c.kind is NoiseClass.INFINITE_VARIANCE_STABLE
        assert c.center == 0.0
        assert c.scale == 1.11

    def test_alpha_two_is_finite_variance(self):
        c = classify(AlphaStable(2.0, 0.0, 0.9, -0.2))
        assert c.kind is NoiseClass.FINITE_VARIANCE
        assert c.center == -0.2
        assert c.scale == pytest.approx(1.8)

    def test_uniform_and_laplace_variances(self):
        assert classify(Uniform(0.0, 1.2)).scale == pytest.approx(1.2**2 / 3)
        assert classify(Laplace(0.0, 0.8)).scale == pytest.approx(2 * 0.8**2)

    def test_infinite_variance_has_no_variance_accessor(self):
        with pytest.raises(ValueError, match="infinite variance"):
            AlphaStable(1.7, 0.0, 1.0, 0.0).variance


class TestScaleInterface:
    @pytest.mark.parametrize("model,expected", [
        (Gaussian(0.3, 1.42), 1.42),
        (Uniform(0.3, 0.7), 0.7),
        (Laplace(0.3, 0.5), 0.5),
        (AlphaStable(1.5, 0.2, 1.11, 0.3), 1.11),
    ])
    def test_scale_and_with_scale(self, model, expected):
        assert model.scale == expected
        rescaled = model.with_scale(2.0)
        assert rescaled.scale == 2.0
        assert rescaled.center == model.center
        assert type(rescaled) is type(model)

    def test_with_scale_preserves_stable_shape(self):
        model = AlphaStable(1.5, 0.2, 1.11, 0.3, cdf_draws=5000)
        rescaled = model.with_scale(0.7)
        assert (rescaled.alpha, rescaled.skew, rescaled.location) == (1.5, 0.2, 0.3)
        assert rescaled.cdf_draws == 5000


def parse_noise(spec):
    """The run config of the reference channel with noise section ``spec``."""
    return parse_run_config({"state": "plus", "channel": {"amplitude": 1.1, "threshold": 1.6},
                             "noise": spec})


def config_round_trip(model):
    cfg = dataclasses.replace(parse_noise({"kind": "gaussian"}), noise=model)
    return parse_run_config(config_to_json(cfg)).noise


class TestJson:
    @pytest.mark.parametrize("model", [
        Gaussian(0.7, 1.42),
        Uniform(-0.1, 0.9),
        Laplace(0.0, 0.8),
        AlphaStable(1.5, -0.3, 1.11, 0.2),
    ])
    def test_round_trip(self, model):
        assert config_round_trip(model) == model

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown noise kind"):
            parse_noise({"kind": "levy-flight"})

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown gaussian noise keys"):
            parse_noise({"kind": "gaussian", "mean": 0.0, "stddev": 1.0})

    def test_non_numeric_parameter(self):
        with pytest.raises(ValueError, match="must be a number"):
            parse_noise({"kind": "gaussian", "mean": "zero"})

    def test_not_an_object(self):
        with pytest.raises(ValueError, match="must be an object"):
            parse_noise("gaussian")

    def test_missing_required_key(self):
        with pytest.raises(ValueError, match="alpha_stable noise missing key 'alpha'"):
            parse_noise({"kind": "alpha_stable", "gamma": 1.0})


CENTERS = st.floats(-10.0, 10.0)
SCALES = st.floats(1e-3, 1e3)
# Stable models draw alpha from the closed-form points and the whole range;
# small cdf_draws keep the empirical tables cheap.
MODELS = st.one_of(
    st.builds(Gaussian, CENTERS, SCALES),
    st.builds(Uniform, CENTERS, SCALES),
    st.builds(Laplace, CENTERS, SCALES),
    st.builds(AlphaStable, st.one_of(st.sampled_from([1.0, 2.0]), st.floats(0.2, 2.0)),
              st.floats(-1.0, 1.0), SCALES, CENTERS, st.integers(1, 300)),
)
SCALE_KEYS = {"gaussian": "sigma", "uniform": "half_width", "laplace": "diversity",
              "alpha_stable": "gamma"}


class TestProperties:
    @given(model=MODELS, scale=SCALES)
    def test_with_scale_replaces_only_the_scale(self, model, scale):
        rescaled = model.with_scale(scale)
        assert type(rescaled) is type(model)
        assert rescaled.scale == scale
        assert rescaled.center == model.center
        before, after = dataclasses.asdict(model), dataclasses.asdict(rescaled)
        assert {k for k in before if before[k] != after[k]} <= {SCALE_KEYS[model.kind]}

    @given(model=MODELS)
    def test_json_round_trip(self, model):
        assert config_round_trip(model) == model

    @given(model=MODELS, xs=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=20))
    def test_cdf_is_monotone_within_unit_interval(self, model, xs):
        values = [model.cdf(x) for x in sorted(xs)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a <= b for a, b in zip(values, values[1:]))
