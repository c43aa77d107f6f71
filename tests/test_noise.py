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
import sys
import threading
import tracemalloc
import warnings
from functools import lru_cache

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
    Uniform,
)

GRID = np.linspace(-8.0, 8.0, 101)
# (alpha, skew) families whose default table is checked against references.
TABLE_FAMILIES = [
    (0.5, 0.0), (0.8, 0.0), (0.8, -0.6), (1.2, 0.0), (1.2, 0.7), (1.5, 0.0), (1.5, 0.5),
    (1.8, -0.3), (1.95, 1.0),
]


def lattice_values(alpha, skew, n, dtype):
    """The transform at the ``n`` lattice points, unsorted, computed in ``dtype``.

    Angle and exponential are computed in float64 as ``_standard_table``
    documents them and rounded once to ``dtype``.
    """
    k = np.arange(n)
    step = round(n / ((1 + math.sqrt(5)) / 2))
    u = (math.pi * ((k + 0.5) / n - 0.5)).astype(dtype)
    w = (-np.log1p(-((k * step % n + 0.5) / n))).astype(dtype)
    transform = noise._cms_standard_alpha_one if alpha == 1.0 else noise._cms_standard
    transform(alpha, -skew, u, w, np.empty(n, dtype), np.empty(n, dtype))
    return u


def ks_statistic(samples, reference) -> float:
    """Kolmogorov-Smirnov distance between ``samples`` and ``reference``.

    A noise model's CDF takes one point at a time, except an empirical-table
    stable model's: that is its table's empirical CDF at the standardized
    points (x - c)/m (in float64, as ``cdf`` takes them), evaluated on the
    whole sorted sample once it matches ``cdf`` bit for bit on 1,000 of the
    points.  A scipy distribution's CDF is evaluated once, on the whole
    sorted sample.
    """
    x = np.sort(np.asarray(samples))
    n = x.size
    if isinstance(reference, noise.NoiseModel) and not reference.has_exact_cdf:
        table = noise._empirical_cdf_table(reference)
        m, c = reference.unit_map
        values = np.searchsorted(table.astype(np.float64), (x - c) / m, side="right") / table.size
        picks = slice(None, None, max(1, n // 1000))
        assert [reference.cdf(v) for v in x[picks]] == values[picks].tolist()
    elif isinstance(reference, noise.NoiseModel):
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

    def test_cdf_draws_stop_where_the_lattice_product_leaves_int64(self):
        # The table takes k*g in int64 for k < N, g = round(N/golden): exact
        # while (N - 1)*g < 2^63.  Only the constructors run: a table of the
        # largest size would take 15 GB.
        golden = (1 + math.sqrt(5)) / 2
        for n in (3_863_124_311, 3_863_124_312):
            assert ((n - 1) * round(n / golden) < 2**63) == (n == 3_863_124_311)
        assert AlphaStable(1.5, 0.5, cdf_draws=3_863_124_311).cdf_draws == 3_863_124_311
        for n in (3_863_124_312, 10**12, 10**400):  # 10^400 is past a float's range
            with pytest.raises(ValueError, match="^cdf_draws must be at most 3863124311"):
                AlphaStable(1.5, 0.5, cdf_draws=n)

    def test_gaussian_scale_that_overflows_the_radius_is_refused(self):
        # Any finite sigma > 0 is a model: the map is (sigma, mean) and the
        # standard radius carries no sigma, so sigma**2 (past 1e154) and the
        # largest squared radius (past 1.56e153) are never formed.
        for sigma in (1e200, 1e154, 1.57e153):
            model = Gaussian(0.0, sigma)
            assert model.unit_map == (sigma, 0.0)
            assert model.cdf(2.7) == 0.5
        assert Gaussian(0.0, 1.0).with_scale(1e201).scale == 1e201

        class ExtremeRadius:  # the largest radius uniform, then a zero angle
            def random(self, shape):
                return np.array([[1.0 - 2.0**-53], [0.5]])

        assert np.isfinite(Gaussian(-1e308, 1.56e153).sample(ExtremeRadius(), 2)).all()

    def test_uniform_bounds_that_overflow_are_refused(self):
        # Bounds mean +- half_width past a float are never formed: the CDF
        # answers with the model wholly above x, around it, or below it.
        for mean, below in ((1e308, 0.0), (0.0, 0.5), (-1e308, 1.0)):
            assert Uniform(mean, 1e308).cdf(2.7) == below
        draws = Uniform(1e308, 7e307).sample(np.random.default_rng(5), 1000)
        assert np.isfinite(draws).all()

    def test_stable_scale_that_overflows_the_map_is_refused(self):
        # gamma**(1/alpha) overflows, and at alpha = 1 the skewed shift
        # (2/pi)*beta*gamma*ln(gamma) does.
        for model in (dict(alpha=0.5, gamma=1e300), dict(alpha=1.0, skew=0.5, gamma=1e306)):
            with pytest.raises(ValueError, match="alpha_stable gamma"):
                AlphaStable(**model)
        with pytest.raises(ValueError, match="alpha_stable gamma"):
            AlphaStable(0.5).with_scale(1e200)
        assert AlphaStable(1.0, gamma=1e306).scale == 1e306  # no shift when symmetric
        assert AlphaStable(0.5, gamma=1e150).scale == 1e150


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
        assert model.cdf(0.7) == model.cdf(0.7)
        assert AlphaStable(1.5, 0.2, 1.0, 0.0, cdf_draws=50_000).cdf(0.7) == model.cdf(0.7)

    def test_racing_threads_build_one_standard_table(self, monkeypatch):
        # A fresh cache counts the builds; no other test looks up this draw
        # count.  A short switch interval makes the two threads race for the
        # table, which the table lock lets only one of them build.
        monkeypatch.setattr(noise, "_standard_table",
                            lru_cache(maxsize=4)(noise._standard_table.__wrapped__))
        models = [AlphaStable(1.5, 0.5, gamma, cdf_draws=200_011) for gamma in (0.7, 1.3)]
        values = [None, None]

        def evaluate(i):
            values[i] = models[i].cdf(0.3)

        threads = [threading.Thread(target=evaluate, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert noise._standard_table.cache_info().misses == 1
        assert values == [model.cdf(0.3) for model in models]

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
        # cdf(x) is the count of the sorted float32 lattice values <= (x - c)/m,
        # compared in float64, bit for bit, at every value's image under the
        # map and on both sides of it.  The points are Python floats, as the
        # channel's cuts are: NumPy compares those with a float32 in float32.
        m, c = model.unit_map
        standard = np.sort(lattice_values(model.alpha, model.skew, model.cdf_draws,
                                          np.float32).astype(np.float64))
        images = c + m * standard
        points = np.concatenate([images, np.nextafter(images, -np.inf),
                                 np.nextafter(images, np.inf)])
        want = np.searchsorted(standard, (points - c) / m, side="right") / standard.size
        assert [model.cdf(x) for x in points.tolist()] == want.tolist()

    @pytest.mark.parametrize("alpha,skew", TABLE_FAMILIES)
    def test_default_table_matches_levy_stable(self, alpha, skew):
        # scipy's S1 parameterization with beta = -skew and scale 1 is the
        # documented standard shape; it is accurate to ~1e-9 for |alpha - 1|
        # >= 0.05.  The default lattice is within 1.6e-4 on these families.
        model = AlphaStable(alpha, skew)
        xs = np.linspace(-5.0, 8.0, 53)
        reference = sps.levy_stable.cdf(xs, alpha, -skew)
        ours = np.array([model.cdf(x) for x in xs])
        assert np.max(np.abs(ours - reference)) <= 2.5e-4

    @pytest.mark.parametrize("skew", [0.3, -0.5, 0.7])
    def test_default_skewed_alpha_one_table_matches_a_large_sample(self, skew):
        # scipy is off by up to 1.6e-3 near alpha = 1 with skew != 0, so the
        # reference is the empirical CDF of 4 * 10^6 sampler draws, to 5 of
        # its own standard errors.
        draws = 4_000_000
        reference = np.sort(noise._standard_stable(1.0, skew, np.random.default_rng(113), draws))
        xs = np.linspace(-5.0, 8.0, 53)
        want = np.searchsorted(reference, xs, side="right") / draws
        sigma = np.sqrt(want * (1.0 - want) / draws)
        model = AlphaStable(1.0, skew)
        ours = np.array([model.cdf(x) for x in xs])
        assert np.all(np.abs(ours - want) <= 5.0 * sigma)

    @pytest.mark.parametrize("alpha,skew", TABLE_FAMILIES)
    def test_default_table_is_within_two_steps_of_a_float64_table(self, alpha, skew):
        # Rounding the lattice values to float32 moves the counted CDF by at
        # most a step or two of 1/N against the same lattice in float64.
        model = AlphaStable(alpha, skew)
        n = model.cdf_draws
        wide = np.sort(lattice_values(alpha, skew, n, np.float64))
        xs = np.linspace(-5.0, 8.0, 53)
        want = np.searchsorted(wide, xs, side="right") / n
        ours = np.array([model.cdf(x) for x in xs])
        assert np.max(np.abs(ours - want)) <= 2 / n

    @pytest.mark.parametrize("skew", [0.0, 1.0])
    def test_values_past_float32_are_stored_as_inf(self, skew):
        # At alpha 0.2 one default-size lattice value exceeds float32's
        # range; it is stored as +-inf, silently, and nothing becomes NaN.
        size = AlphaStable(0.2, skew).cdf_draws
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = noise._standard_table.__wrapped__(0.2, skew, size)
        wide = np.sort(lattice_values(0.2, skew, size, np.float64))
        past = np.abs(wide) > np.finfo(np.float32).max
        assert past.any()
        assert not np.isnan(table).any()
        np.testing.assert_array_equal(np.isinf(table), past)
        np.testing.assert_array_equal(table[past], np.copysign(np.inf, wide[past]))

    @pytest.mark.parametrize("alpha,skew", [(1.5, 0.5), (1.0, 0.3), (0.8, -1.0)])
    def test_table_passes_do_not_change_the_table(self, monkeypatch, alpha, skew):
        # The build runs _TABLE_CHUNK points at a time; sizes on each side of
        # one and many pass boundaries give the sorted lattice values of one
        # whole-array transform byte for byte, and so does a patched pass of
        # 8 points on sizes around its boundaries.
        def check(sizes):
            for n in sizes:
                table = noise._standard_table.__wrapped__(alpha, skew, n)
                want = np.sort(lattice_values(alpha, skew, n, np.float32))
                assert table.tobytes() == want.tobytes()

        chunk = noise._TABLE_CHUNK
        check((chunk - 1, chunk, chunk + 1, 1 << 17))
        monkeypatch.setattr(noise, "_TABLE_CHUNK", 8)
        check((7, 8, 9, 15, 16, 17, 29))

    def test_default_table_holds_only_its_output_and_a_fixed_scratch(self):
        # 2^17 float32 entries of 4 bytes plus one pass of _TABLE_CHUNK
        # points, whose float64 and int64 temporaries and float32 exponentials
        # and scratch rows are freed before the next pass: well within the
        # bound's two float64 rows of _CHUNK values.
        size = AlphaStable(1.5, 0.5).cdf_draws
        assert size == 1 << 17
        tracemalloc.start()
        try:
            table = noise._standard_table.__wrapped__(1.5, 0.5, size)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.size == size and table.dtype == np.float32
        assert peak <= 4 * size + 2 * 8 * noise._CHUNK + 64 * 1024


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

    @staticmethod
    def box_muller_trig_form(u, mean, sigma, n):
        """Textbook Box-Muller on radius uniforms u[0] and angle uniforms u[1]."""
        r = sigma * np.sqrt(-2.0 * np.log(1.0 - u[0]))
        theta = 2 * math.pi * u[1] - math.pi
        return np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n] + mean

    @pytest.mark.parametrize("n", [1_000_000, 999_999])
    def test_gaussian_draws_match_the_trig_form(self, n):
        # Cosines from 2q - r and sines from 2qt; the uniforms are the
        # radius row, then the angle row, of one equal-seeded draw.
        got = Gaussian(0.7, 1.42).sample(np.random.default_rng(107), n)
        u = np.random.default_rng(107).random((2, (n + 1) // 2))
        np.testing.assert_allclose(got, self.box_muller_trig_form(u, 0.7, 1.42, n),
                                   rtol=0, atol=1e-12)

    def test_gaussian_extreme_uniforms_give_finite_draws(self):
        top = 1.0 - 2.0**-53  # largest value Generator.random returns
        u = np.array([[0.0, 0.0, 0.0, top, top, top], [0.0, 0.5, top, 0.0, 0.5, top]])

        class FixedUniforms:
            def random(self, shape):
                assert shape == u.shape
                return u.copy()

        got = Gaussian(0.0, 1.42).sample(FixedUniforms(), u.size)
        assert np.isfinite(got).all()
        np.testing.assert_array_equal(got[[0, 1, 2, 6, 7, 8]], 0.0)
        np.testing.assert_allclose(got, self.box_muller_trig_form(u, 0.0, 1.42, u.size),
                                   rtol=0, atol=1e-12)

    def test_gaussian_against_scipy_normal(self):
        x = Gaussian(0.7, 1.42).sample(np.random.default_rng(108), 1_000_000)
        assert sps.kstest(x, sps.norm(0.7, 1.42).cdf).pvalue > 1e-3

    @pytest.mark.parametrize("model", [Uniform(0.2, 1.5), Laplace(-0.4, 0.8)])
    def test_one_draw_of_2n_is_two_draws_of_n(self, model):
        # Why their Monte Carlo numbers kept every bit when estimate_fidelity
        # went from two noise draws per block to one.
        n = 20_001
        rng = np.random.default_rng(109)
        two = np.concatenate([model.sample(rng, n), model.sample(rng, n)])
        np.testing.assert_array_equal(model.sample(np.random.default_rng(109), 2 * n), two)

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

    @pytest.mark.parametrize("skew", [-1.0, -0.5, 0.0, 0.5, 1.0])
    @pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0, 1.05, 1.2, 1.5, 1.8, 1.95, 2.0])
    def test_standard_draws_match_the_trig_form(self, alpha, skew):
        # The sampler takes sin and cos from half-angle tangents; the
        # textbook trig form on the same angles and exponentials is the
        # reference, to rounding, and the sorted order must not change.
        n = 100_000
        rng = np.random.default_rng(106)
        u = rng.uniform(-math.pi / 2, math.pi / 2, n)
        w = rng.exponential(1.0, n)
        beta = -skew
        if alpha == 1.0:
            b = math.pi / 2 + beta * u
            log_term = np.log((math.pi / 2) * w * np.cos(u) / b)
            want = (2 / math.pi) * (b * np.tan(u) - beta * log_term)
        else:
            t = beta * math.tan(math.pi * alpha / 2)
            a = alpha * (u + math.atan(t) / alpha)
            want = ((1.0 + t * t) ** (1.0 / (2 * alpha)) * np.sin(a) / np.cos(u) ** (1.0 / alpha)
                    * (np.cos(u - a) / w) ** ((1.0 - alpha) / alpha))
        got = noise._standard_stable(alpha, skew, np.random.default_rng(106), n)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
        np.testing.assert_array_equal(np.argsort(got, kind="stable"),
                                      np.argsort(want, kind="stable"))

    @pytest.mark.parametrize("alpha", [1.5, 1.0, pytest.param(None, id="gaussian")])
    def test_chunks_do_not_change_the_draws(self, monkeypatch, alpha):
        # Whole is one pass (sizes below the default chunk); the patched
        # chunk splits the same draws at every boundary case, in draws for
        # the stable transform and in pairs (sizes 15-17) for the Gaussian
        # sampler (alpha None).
        def draw(size):
            rng = np.random.default_rng(8)
            if alpha is None:
                return Gaussian(0.7, 1.42).sample(rng, size)
            return noise._standard_stable(alpha, 0.5, rng, size)

        whole = {size: draw(size) for size in (7, 8, 9, 15, 16, 17, 29)}
        monkeypatch.setattr(noise, "_CHUNK", 8)
        for size, want in whole.items():
            got = draw(size)
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("size,draw", [
        (10**6, lambda rng, n: noise._standard_stable(1.5, 0.5, rng, n)),
        (200_000, lambda rng, n: AlphaStable(1.5, 0.5, 0.7, 0.3).sample(rng, n)),
    ], ids=["standard", "sample"])
    def test_stable_draws_hold_only_the_output_and_a_fixed_scratch(self, size, draw):
        # 8 bytes per draw (the returned array) plus three rows of _CHUNK
        # values: the exponentials and the rescale take no full-size array.
        tracemalloc.start()
        try:
            out = draw(np.random.default_rng(110), size)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.size == size
        assert peak <= 8 * size + 3 * 8 * noise._CHUNK + 64 * 1024

    @pytest.mark.parametrize("n", [7, noise._CHUNK + 1])
    @pytest.mark.parametrize("skew", [0.0, 0.3])
    def test_alpha_one_draws_exponentials_only_when_skewed(self, n, skew):
        # Symmetric alpha = 1 (Cauchy) multiplies its exponentials by zero,
        # so it draws the angles only; skewed, the angles then n exponentials.
        rng = np.random.default_rng(111)
        noise._standard_stable(1.0, skew, rng, n)
        want = np.random.default_rng(111)
        want.uniform(-math.pi / 2, math.pi / 2, n)
        if skew:
            want.standard_exponential(n)
        assert rng.random() == want.random()

    @pytest.mark.parametrize("model", [
        Gaussian(0.7, 1.42),
        Uniform(-0.3, 1.7),
        Laplace(0.2, 0.8),
        AlphaStable(1.5, 0.5, 0.7, 0.3),
        AlphaStable(1.0, 0.3, 0.7, -0.2),
    ])
    def test_sample_is_the_standard_draw_through_the_map(self, model):
        # One map (m, c) per model: its draws are c + m*z for the standard
        # draws z, bit for bit, and its CDF is the standard CDF at (x - c)/m.
        m, c = model.unit_map
        assert (m, c) != (1.0, 0.0)
        assert model.standard.unit_map == (1.0, 0.0)
        n = noise._CHUNK + 1
        z = model.standard.sample(np.random.default_rng(112), n)
        np.testing.assert_array_equal(model.sample(np.random.default_rng(112), n), c + m * z)
        for x in (-1.3, 0.0, 0.45, 2.7):
            assert model.cdf(x) == model.standard.cdf((x - c) / m)

    @pytest.mark.parametrize("model", [
        Uniform(1e308, 1e308), Gaussian(0.0, 1e308), Laplace(-1e308, 1e308),
    ], ids=["uniform", "gaussian", "laplace"])
    def test_draw_past_a_float_is_inf_without_a_warning(self, model):
        # c + m*z rounds past the largest float to +-inf, as Python floats do.
        m, c = model.unit_map
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = model.sample(np.random.default_rng(4), 1000)
        z = model.standard.sample(np.random.default_rng(4), 1000)
        assert np.isinf(got).any()
        assert got.tolist() == [c + m * float(v) for v in z]

    def test_replay_and_shapes(self):
        # sample(rng, n) is n float64 draws in a 1-D array, replayed by an equal seed.
        for model in (Gaussian(0.7, 1.42), Uniform(0.2, 1.5), Laplace(-0.4, 0.8),
                      AlphaStable(1.5, 0.3, 1.0, 0.0), AlphaStable(1.0, 0.3, 1.0, 0.0)):
            for n in (1, 7, noise._CHUNK + 1):
                a = model.sample(np.random.default_rng(7), n)
                assert a.shape == (n,) and a.dtype == np.float64
                np.testing.assert_array_equal(a, model.sample(np.random.default_rng(7), n))


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

    @given(alpha=st.one_of(st.sampled_from([1.0, 2.0]), st.floats(0.2, 2.0)),
           skew=st.floats(-1.0, 1.0), size=st.integers(1, 5000))
    def test_standard_table_is_sorted_and_finite(self, alpha, skew, size):
        table = noise._standard_table.__wrapped__(alpha, skew, size)
        assert table.shape == (size,)
        assert np.isfinite(table).all()
        assert np.all(table[1:] >= table[:-1])

    @given(model=MODELS, xs=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=20))
    def test_cdf_is_monotone_within_unit_interval(self, model, xs):
        values = [model.cdf(x) for x in sorted(xs)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a <= b for a, b in zip(values, values[1:]))
