"""Fidelity-engine tests.

The closed fidelity formula is checked against the brute-force mixed-state
route, Monte Carlo estimates against the closed formula with CLT bands, and
the optimal-noise search against stationarity closed forms plus a dense grid.
Property tests check the closed form's band [1/2, 1] and worker-independent
sweeps over random states, channels and all four noise families, and the
paper's two vanishing-noise theorems over random channels and centers for the
families with a closed-form CDF.
"""

import csv
import io
import math
import threading
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from teleport_sr import analysis, noise
from teleport_sr.analysis import (
    EntanglementResource,
    MonotoneRegimeError,
    analytic_at,
    analytic_fidelity,
    check_scales,
    default_scale_grid,
    estimate_fidelity,
    find_optimal_noise,
    sweep,
    theorem_limit_check,
)
from teleport_sr.channel import (
    ChannelConfig,
    DetectionStats,
    Interval,
    detect,
    detection_probabilities,
    encode,
    forbidden_interval,
    sr_predicted,
)
from teleport_sr.noise import AlphaStable, Gaussian, Laplace, Uniform
from teleport_sr.qstate import (
    QubitState,
    bell_measure,
    bob_mixed_state,
    fidelity_against,
    pauli_weights,
)
from test_noise import MODELS

REF_CHANNEL = ChannelConfig(amplitude=1.1, threshold=1.6)
PLUS = QubitState.preset("plus")
PERFECT = EntanglementResource(1.0)

# Stationarity closed forms over the reference interval (lo, hi) = (0.5, 2.7):
# sigma_opt solves (hi^2 - lo^2) = 2 sigma^2 ln(hi/lo); gamma_opt^2 = lo*hi.
SIGMA_OPT = math.sqrt((2.7**2 - 0.5**2) / (2 * math.log(2.7 / 0.5)))
GAMMA_OPT = math.sqrt(0.5 * 2.7)
# Laplace: b_opt = (hi - lo) / ln(hi/lo).
LAPLACE_OPT = (2.7 - 0.5) / math.log(2.7 / 0.5)


def random_state(rng) -> QubitState:
    raw = rng.normal(size=4)
    return QubitState.normalized(complex(raw[0], raw[1]), complex(raw[2], raw[3]))


def random_stats(rng) -> DetectionStats:
    a, b = sorted(rng.uniform(0, 1, 2))
    return DetectionStats(p00=b, p01=a)


class TestAnalyticFidelity:
    def test_floor_at_zero_p(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            w = pauli_weights(random_state(rng))
            fw = EntanglementResource(float(rng.uniform(0, 1)))
            assert analytic_fidelity(w, 0.0, fw) == 0.5

    def test_ceiling_at_perfect_detection(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            w = pauli_weights(random_state(rng))
            assert analytic_fidelity(w, 1.0, PERFECT) == pytest.approx(1.0, abs=1e-12)

    def test_plus_state_reference_point(self):
        f = analytic_fidelity(pauli_weights(PLUS), 0.33375261439181636, PERFECT)
        assert f == pytest.approx(0.6669, abs=1e-4)

    def test_rejects_out_of_range_p(self):
        w = pauli_weights(PLUS)
        with pytest.raises(ValueError, match="in \\[0, 1\\]"):
            analytic_fidelity(w, 1.5, PERFECT)
        with pytest.raises(ValueError, match="in \\[0, 1\\]"):
            analytic_fidelity(w, -0.2, PERFECT)

    def test_range_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(10_000):
            w = pauli_weights(random_state(rng))
            f = analytic_fidelity(w, float(rng.uniform(0, 1)),
                                  EntanglementResource(float(rng.uniform(0, 1))))
            assert 0.5 <= f <= 1.0

    def test_monotone_in_p(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            w = pauli_weights(random_state(rng))
            values = [analytic_fidelity(w, p, PERFECT) for p in np.linspace(0, 1, 101)]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_werner_linearity(self):
        # Exact up to the final roundings: both sides re-add 1/2, which can
        # move the last bit, so the comparison allows 2^-52 and nothing more.
        rng = np.random.default_rng(5)
        for _ in range(2000):
            w = pauli_weights(random_state(rng))
            p = float(rng.uniform(0, 1))
            fw = float(rng.uniform(0, 1))
            lhs = analytic_fidelity(w, p, EntanglementResource(fw)) - 0.5
            rhs = fw * (analytic_fidelity(w, p, PERFECT) - 0.5)
            assert abs(lhs - rhs) <= 2.0**-52

    def test_resource_validation(self):
        with pytest.raises(ValueError, match="werner_f"):
            EntanglementResource(1.2)
        with pytest.raises(ValueError, match="werner_f"):
            EntanglementResource(-0.1)


class TestOracleEquivalence:
    def test_closed_form_matches_mixed_state_route(self):
        rng = np.random.default_rng(6)
        for _ in range(10_000):
            state = random_state(rng)
            stats = random_stats(rng)
            via_rho = fidelity_against(state, bob_mixed_state(state, stats))
            via_formula = analytic_fidelity(pauli_weights(state), stats.P, PERFECT)
            assert abs(via_rho - via_formula) <= 1e-12

    def test_channel_driven_stats_agree_too(self):
        rng = np.random.default_rng(7)
        models = [Gaussian(0.0, 1.42), AlphaStable(1.0, 0.0, 1.11, 0.0), Laplace(0.3, 0.8)]
        for model in models:
            stats = detection_probabilities(REF_CHANNEL, model)
            for _ in range(50):
                state = random_state(rng)
                via_rho = fidelity_against(state, bob_mixed_state(state, stats))
                via_formula = analytic_fidelity(pauli_weights(state), stats.P, PERFECT)
                assert abs(via_rho - via_formula) <= 1e-12


class TestEstimateFidelity:
    def test_gaussian_reference_point(self):
        rng = np.random.default_rng(12)
        est = estimate_fidelity(PLUS, REF_CHANNEL, Gaussian(0.0, 1.42), PERFECT, 1_000_000, rng)
        assert est == pytest.approx(0.6669, abs=0.002)

    def test_cauchy_reference_point(self):
        rng = np.random.default_rng(13)
        est = estimate_fidelity(PLUS, REF_CHANNEL, AlphaStable(1.0, 0.0, 1.11, 0.0),
                                PERFECT, 1_000_000, rng)
        assert est == pytest.approx(0.6206, abs=0.002)

    def test_fully_mixed_resource_is_exactly_half(self):
        rng = np.random.default_rng(14)
        est = estimate_fidelity(PLUS, REF_CHANNEL, Gaussian(0.0, 1.42),
                                EntanglementResource(0.0), 10_000, rng)
        assert est == 0.5

    def test_fully_mixed_resource_pins_every_trial(self):
        # A single-trial estimate is that trial's fidelity.
        rng = np.random.default_rng(9)
        for _ in range(100):
            est = estimate_fidelity(PLUS, REF_CHANNEL, Gaussian(0.0, 1.42),
                                    EntanglementResource(0.0), 1, rng)
            assert est == 0.5

    def test_werner_mixing_is_affine(self):
        # Same stream, so the same trials: each trial's fidelity is
        # fw * overlap + (1 - fw) / 2, and so is their mean up to rounding.
        rng = np.random.default_rng(8)
        for _ in range(50):
            fw = float(rng.uniform(0, 1))
            seed = int(rng.integers(2**32))
            pure, mixed = (
                estimate_fidelity(PLUS, REF_CHANNEL, Gaussian(0.0, 1.42), resource, 200,
                                  np.random.default_rng(seed))
                for resource in (PERFECT, EntanglementResource(fw))
            )
            assert mixed == pytest.approx(fw * pure + (1 - fw) / 2, abs=1e-14)

    def test_perfect_detection_gives_unit_fidelity(self):
        # Narrow uniform noise centered in the interval detects perfectly,
        # so the rotation always matches the measurement.
        rng = np.random.default_rng(10)
        assert estimate_fidelity(PLUS, REF_CHANNEL, Uniform(1.6, 0.05), PERFECT,
                                 10_000, rng) == 1.0

    def test_zero_noise_limit_averages_to_half(self):
        # No detection, so the net correction is the measured bits themselves;
        # over uniform bits the overlap averages (1 + qz + qx + qxz) / 4 = 1/2.
        rng = np.random.default_rng(11)
        state = random_state(rng)
        est = estimate_fidelity(state, REF_CHANNEL, Gaussian(0.0, 1e-12), PERFECT, 4000, rng)
        assert est == pytest.approx(0.5, abs=0.035)

    def test_counts_give_the_mean_of_per_trial_values(self):
        # Rebuild every trial from the same stream: its fidelity is the
        # Werner-mixed overlap of its net correction, table[2 * e1 + e2].
        state = random_state(np.random.default_rng(17))
        model, resource, trials = Laplace(0.3, 1.2), EntanglementResource(0.8), 50_000
        est = estimate_fidelity(state, REF_CHANNEL, model, resource, trials,
                                np.random.default_rng(18))
        rng = np.random.default_rng(18)
        s1, s2 = bell_measure(rng, trials)
        y1, y2 = (detect(model.sample(rng, trials) + encode(bits, REF_CHANNEL), REF_CHANNEL)
                  for bits in (s1, s2))
        e1, e2 = y1 ^ s1, y2 ^ s2
        per_trial = 0.8 * pauli_weights(state).overlap_table()[2 * e1 + e2] + (1 - 0.8) / 2
        assert est == pytest.approx(per_trial.mean(), abs=1e-15)

    @pytest.mark.parametrize("model,trials,seed,expected", [
        (Gaussian(0.0, 1.42), 10_000, 1, "0x1.2a8f7055ea769p-1"),
        (Laplace(0.3, 1.2), 10_000, 2, "0x1.2d0e9a0c5c350p-1"),
        (AlphaStable(1.5, 0.5, 1.0, 0.0), 70_000, 3, "0x1.363bf12a8888ep-1"),  # > one block
        (AlphaStable(1.0, 0.0, 1.11, 0.0), 10_000, 4, "0x1.19f36a4725ec4p-1"),
    ], ids=["gaussian", "laplace", "stable-1.5-skew-0.5", "cauchy"])
    def test_random_stream_is_pinned(self, model, trials, seed, expected):
        # The stream contract, bit for bit: a change that moves these values
        # changes every Monte Carlo column and must restate the contract.
        state = QubitState.normalized(0.6, 0.48 + 0.64j)
        est = estimate_fidelity(state, REF_CHANNEL, model, EntanglementResource(0.8), trials,
                                np.random.default_rng(seed))
        assert est.hex() == expected

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trials"):
            estimate_fidelity(PLUS, REF_CHANNEL, Gaussian(0.0, 1.0), PERFECT, 0,
                              np.random.default_rng(0))

    def test_replay_is_deterministic(self):
        a = estimate_fidelity(PLUS, REF_CHANNEL, Gaussian(0.0, 1.42), PERFECT, 5000,
                              np.random.default_rng(15))
        b = estimate_fidelity(PLUS, REF_CHANNEL, Gaussian(0.0, 1.42), PERFECT, 5000,
                              np.random.default_rng(15))
        assert a == b

    def test_clt_consistency_over_random_scenarios(self):
        # 4-sigma Hoeffding band, >= 95 of 100 scenarios must land inside.
        rng = np.random.default_rng(16)
        trials = 2000
        band = 4 * 0.5 / math.sqrt(trials)
        families = [
            lambda r: Gaussian(float(r.uniform(-1, 4)), float(r.uniform(0.1, 3))),
            lambda r: Uniform(float(r.uniform(-1, 4)), float(r.uniform(0.1, 3))),
            lambda r: Laplace(float(r.uniform(-1, 4)), float(r.uniform(0.1, 3))),
            lambda r: AlphaStable(1.0, 0.0, float(r.uniform(0.1, 3)), float(r.uniform(-1, 4))),
        ]
        hits = 0
        for k in range(100):
            state = random_state(rng)
            amplitude = float(rng.uniform(0.2, 1.5))
            cfg = ChannelConfig(amplitude, float(rng.uniform(amplitude + 0.05, 3.0)))
            model = families[k % 4](rng)
            fw = EntanglementResource(float(rng.uniform(0, 1)))
            analytic = analytic_fidelity(
                pauli_weights(state), detection_probabilities(cfg, model).P, fw
            )
            est = estimate_fidelity(state, cfg, model, fw, trials, rng)
            hits += abs(est - analytic) <= band
        assert hits >= 95

    @pytest.mark.parametrize("trials", [1, 6, 7, 8, 14, 15])
    def test_trials_run_in_bounded_blocks(self, monkeypatch, trials):
        # Memory is flat in the trial count when no draw exceeds one block:
        # per block one Bell draw of n and one noise draw of 2 n (y1, y2).
        monkeypatch.setattr(analysis, "_BLOCK", 7)
        bell_sizes, noise_sizes = [], []
        bell_measure, sample = analysis.bell_measure, Gaussian.sample

        def spy_bell(rng, size):
            bell_sizes.append(size)
            return bell_measure(rng, size)

        def spy_sample(self, rng, size):
            noise_sizes.append(size)
            return sample(self, rng, size)

        monkeypatch.setattr(analysis, "bell_measure", spy_bell)
        monkeypatch.setattr(Gaussian, "sample", spy_sample)
        estimate_fidelity(PLUS, REF_CHANNEL, Gaussian(0.0, 1.42), PERFECT, trials,
                          np.random.default_rng(3))
        blocks = math.ceil(trials / 7)
        assert len(bell_sizes) == blocks and len(noise_sizes) == blocks
        assert noise_sizes == [2 * n for n in bell_sizes]
        assert max(bell_sizes) <= 7
        assert sum(bell_sizes) == trials

    @pytest.mark.parametrize("trials", [1, 6, 7, 8, 14, 15])
    def test_blocks_are_consecutive_single_block_calls(self, monkeypatch, trials):
        # A blocked call draws what single-block calls of sizes 7, 7, ...,
        # remainder draw one after another from the same stream, and
        # averages their trials.
        monkeypatch.setattr(analysis, "_BLOCK", 7)
        args = (PLUS, REF_CHANNEL, Gaussian(0.0, 1.42), EntanglementResource(0.8))
        blocked = estimate_fidelity(*args, trials, np.random.default_rng(21))
        rng = np.random.default_rng(21)
        sizes = [min(7, trials - start) for start in range(0, trials, 7)]
        weighted = sum(n * estimate_fidelity(*args, n, rng) for n in sizes) / trials
        assert blocked == pytest.approx(weighted, abs=1e-15)

    def test_blocked_sweep_is_worker_independent(self, monkeypatch):
        monkeypatch.setattr(analysis, "_BLOCK", 7)
        kwargs = dict(state=PLUS, config=REF_CHANNEL, noise_family=Gaussian(0.0, 1.0),
                      scales=default_scale_grid(6), runs=3, trials_per_run=50,
                      resource=EntanglementResource(0.8), master_seed=5)
        one, two = (sweep(**kwargs, workers=w) for w in (1, 2))
        assert one.to_csv() == two.to_csv()
        assert one.to_json_dict() == two.to_json_dict()


class TestSweep:
    def small(self, **overrides):
        kwargs = dict(
            state=PLUS, config=REF_CHANNEL, noise_family=Gaussian(0.0, 1.0),
            scales=default_scale_grid(12), runs=4, trials_per_run=400,
            resource=PERFECT, smoothing_window=5, master_seed=99, workers=1,
        )
        kwargs.update(overrides)
        return sweep(**kwargs)

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="empty"):
            self.small(scales=[])
        with pytest.raises(ValueError, match="positive"):
            self.small(scales=[-0.1, 1.0])
        with pytest.raises(ValueError, match="finite"):
            self.small(scales=[0.5, math.nan])
        with pytest.raises(ValueError, match="increasing"):
            self.small(scales=[1.0, 0.5])
        with pytest.raises(ValueError, match="runs"):
            self.small(runs=0)
        with pytest.raises(ValueError, match="odd"):
            self.small(smoothing_window=4)

    def test_default_grid_shape(self):
        grid = default_scale_grid()
        assert len(grid) == 60
        assert grid[0] > 0.01
        assert grid[-1] == pytest.approx(3.0, abs=1e-15)

    def test_deterministic_and_worker_independent(self):
        a = self.small()
        b = self.small()
        c = self.small(workers=7)
        assert a.to_csv() == b.to_csv() == c.to_csv()

    @pytest.mark.parametrize("family,expected", [
        (Gaussian(0.0, 1.0), ["0x1.45a1cac083126p-1", "0x1.52f1a9fbe76c8p-1"]),
        (AlphaStable(1.5, 0.5, 1.0, 0.0), ["0x1.6f9db22d0e55fp-1", "0x1.5ba5e353f7cedp-1"]),
    ], ids=["gaussian", "stable-1.5-skew-0.5"])
    def test_stream_layout_is_pinned(self, family, expected):
        # One stream per (scale, run) cell, bit for bit: a sweep that shares
        # one stream per run across the scales moves these values.
        res = self.small(noise_family=family, scales=[0.8, 1.5], runs=2, trials_per_run=500)
        assert [m.hex() for m in res.mc_mean] == expected

    def test_stable_sweep_builds_one_standard_table(self, monkeypatch):
        # A fresh cache counts this sweep's builds; no other test looks up
        # this draw count at the sweep's scales, so no model lookup is cached
        # yet.
        monkeypatch.setattr(noise, "_standard_table",
                            lru_cache(maxsize=4)(noise._standard_table.__wrapped__))
        family = AlphaStable(1.5, 0.5, cdf_draws=200_003)
        two = self.small(noise_family=family, workers=2)
        assert noise._standard_table.cache_info().misses == 1
        assert two.to_csv() == self.small(noise_family=family).to_csv()

    def test_every_cdf_call_runs_on_the_calling_thread(self, monkeypatch):
        threads = []
        cdf = AlphaStable.cdf

        def spy(model, x):
            threads.append(threading.get_ident())
            return cdf(model, x)

        monkeypatch.setattr(AlphaStable, "cdf", spy)
        self.small(noise_family=AlphaStable(1.5, 0.5, cdf_draws=1000), workers=2)
        assert len(threads) == 2 * 12
        assert set(threads) == {threading.get_ident()}

    def test_seed_changes_mc_but_not_analytic(self):
        a = self.small()
        b = self.small(master_seed=100)
        assert a.analytic_f == b.analytic_f
        assert a.mc_mean != b.mc_mean

    def test_band_and_smoothing_consistency(self):
        res = self.small()
        for mean, lo, hi in zip(res.mc_mean, res.mc_min, res.mc_max):
            assert lo <= mean <= hi
        # centered window-5 moving average, truncated at the edges
        mc = np.array(res.mc_mean)
        for i in range(len(mc)):
            expected = mc[max(0, i - 2): i + 3].mean()
            assert res.mc_smoothed[i] == pytest.approx(expected, abs=1e-15)

    def test_analytic_column_matches_direct_evaluation(self):
        res = self.small()
        w = pauli_weights(PLUS)
        for scale, value in zip(res.scales, res.analytic_f):
            stats = detection_probabilities(REF_CHANNEL, Gaussian(0.0, scale))
            assert value == pytest.approx(analytic_fidelity(w, stats.P, PERFECT), abs=1e-15)

    def test_csv_shape_and_round_trip(self):
        res = self.small()
        text = res.to_csv()
        rows = list(csv.DictReader(io.StringIO(text)))
        assert list(rows[0]) == ["scale", "scale_squared", "analytic_f", "mc_mean",
                                 "mc_min", "mc_max", "mc_smoothed"]
        assert len(rows) == len(res.scales)
        assert float(rows[3]["mc_mean"]) == res.mc_mean[3]
        assert float(rows[3]["scale_squared"]) == res.scales[3] ** 2

    def test_metadata_records_the_run(self):
        res = self.small()
        meta = res.metadata
        assert meta["runs"] == 4
        assert meta["trials_per_run"] == 400
        assert meta["smoothing_window"] == 5
        assert meta["master_seed"] == 99
        assert meta["noise_kind"] == "gaussian"
        assert meta["cdf_exact"] is True
        assert meta["werner_f"] == 1.0

    def test_nonmonotone_signature_when_center_outside(self):
        res = self.small(scales=default_scale_grid(), runs=2, trials_per_run=200)
        assert abs(res.analytic_f[0] - 0.5) < 1e-3
        assert max(res.analytic_f) > res.analytic_f[0] + 0.1

    def test_monotone_decay_when_center_inside(self):
        res = self.small(noise_family=Gaussian(0.7, 1.0), runs=1, trials_per_run=50)
        values = res.analytic_f
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert all(values[0] > v for v in values[1:])

    def test_json_dict_rows(self):
        res = self.small()
        payload = res.to_json_dict()
        assert len(payload["rows"]) == len(res.scales)
        assert payload["rows"][2]["mc_max"] == res.mc_max[2]
        assert payload["metadata"]["runs"] == 4

    def test_int_amplitudes_are_recorded_as_floats(self):
        state = self.small(state=QubitState(1, 0)).metadata["state"]
        assert repr(state) == repr(self.small(state=QubitState(1.0, 0.0)).metadata["state"])
        assert state["alpha"] == [1.0, 0.0] and isinstance(state["alpha"][0], float)

    def test_result_rejects_infeasible_fidelities(self):
        from teleport_sr.analysis import SweepResult
        ok = self.small()
        broken = dict(
            scales=ok.scales, analytic_f=ok.analytic_f, mc_mean=ok.mc_mean,
            mc_min=(-0.2,) + ok.mc_min[1:], mc_max=ok.mc_max,
            mc_smoothed=ok.mc_smoothed, metadata=ok.metadata,
        )
        with pytest.raises(ValueError, match="feasible fidelity band"):
            SweepResult(**broken)


class TestFindOptimalNoise:
    def test_gaussian_optimum_against_stationarity(self):
        best = find_optimal_noise(PLUS, REF_CHANNEL, Gaussian(0.0, 1.0), PERFECT, (0.01, 3.0))
        assert best.scale == pytest.approx(SIGMA_OPT, abs=1e-4)
        assert best.fidelity == pytest.approx(0.6669091005492567, abs=1e-6)
        assert best.fidelity > 2 / 3

    def test_cauchy_optimum_against_stationarity(self):
        best = find_optimal_noise(PLUS, REF_CHANNEL, AlphaStable(1.0, 0.0, 1.0, 0.0),
                                  PERFECT, (0.01, 3.0))
        assert best.scale == pytest.approx(GAMMA_OPT, abs=1e-4)
        assert best.fidelity == pytest.approx(0.6206459348827493, abs=1e-6)
        assert best.fidelity < 2 / 3

    def test_laplace_optimum_against_stationarity(self):
        best = find_optimal_noise(PLUS, REF_CHANNEL, Laplace(0.0, 1.0), PERFECT, (0.01, 3.0))
        assert best.scale == pytest.approx(LAPLACE_OPT, rel=5e-7)

    def test_dense_grid_cross_check(self):
        # On (0.01, 0.6) the Uniform P is 0 up to 0.5, a plateau golden
        # section alone leaves toward 0.01; the maximum sits on the upper bound.
        # On (2.8, 3.0) every family's maximum sits on the lower bound.
        w = pauli_weights(PLUS)
        families = (Gaussian(0.0, 1.0), Laplace(0.0, 1.0), AlphaStable(1.0, 0.0, 1.0, 0.0),
                    Uniform(0.0, 1.0))
        for bounds in ((0.01, 3.0), (0.01, 0.6), (2.8, 3.0)):
            grid = np.linspace(*bounds, 3001)
            for family in families:
                values = [
                    analytic_fidelity(w, detection_probabilities(REF_CHANNEL, family.with_scale(s)).P, PERFECT)
                    for s in grid
                ]
                brute = float(grid[int(np.argmax(values))])
                best = find_optimal_noise(PLUS, REF_CHANNEL, family, PERFECT, bounds)
                assert abs(best.scale - brute) <= float(grid[1] - grid[0]), (family, bounds)
                assert best.fidelity >= max(values) - 1e-9, (family, bounds)

    def test_monotone_regime_signal(self):
        with pytest.raises(MonotoneRegimeError, match="monotone"):
            find_optimal_noise(PLUS, REF_CHANNEL, Gaussian(0.7, 1.0), PERFECT, (0.01, 3.0))

    @pytest.mark.parametrize("center", [0.5, 2.7])
    def test_endpoint_is_monotone(self, center):
        with pytest.raises(MonotoneRegimeError, match="closed forbidden interval"):
            find_optimal_noise(PLUS, REF_CHANNEL, Gaussian(center, 1.0), PERFECT, (0.01, 3.0))

    def test_bounds_validation(self):
        # The arguments are checked before the regime: a center inside the
        # forbidden interval (mean 1.0) gets the same ValueError.
        for mean in (0.0, 1.0):
            for bounds in ((0.0, 3.0), (0.5,), ("a", "b"), (2.0, 1.0)):
                with pytest.raises(ValueError, match="bounds"):
                    find_optimal_noise(PLUS, REF_CHANNEL, Gaussian(mean, 1.0), PERFECT, bounds)


class TestTheoremLimit:
    def test_gaussian_center_outside(self):
        report = theorem_limit_check(PLUS, REF_CHANNEL, Gaussian(0.0, 1.0),
                                     small_scales=(1e-1, 1e-2, 1e-3))
        assert not report.center_inside
        assert report.expected_limit == 0.5
        assert report.within_tolerance
        assert 0.5 <= report.analytic_f[-1] <= 0.5 + 1e-9

    def test_gaussian_center_inside(self):
        report = theorem_limit_check(PLUS, REF_CHANNEL, Gaussian(0.7, 1.0),
                                     small_scales=(1e-1, 1e-2, 1e-3))
        assert report.center_inside
        assert report.expected_limit == 1.0
        assert report.analytic_f[-1] >= 1.0 - 1e-9
        assert report.within_tolerance

    def test_cauchy_slow_tail_limit(self):
        report = theorem_limit_check(PLUS, REF_CHANNEL, AlphaStable(1.0, 0.0, 1.0, 0.0),
                                     small_scales=(1e-2, 1e-4, 1e-6))
        assert report.analytic_f[-1] <= 0.5 + 1e-5
        assert report.within_tolerance

    @pytest.mark.parametrize("family", [Uniform(0.0, 1.0), Laplace(0.0, 1.0)])
    def test_other_finite_variance_families(self, family):
        # the finite-variance statement is distribution-free
        outside = theorem_limit_check(PLUS, REF_CHANNEL, family,
                                      small_scales=(1e-1, 1e-2, 1e-3))
        assert outside.expected_limit == 0.5 and outside.within_tolerance
        inside = theorem_limit_check(PLUS, REF_CHANNEL, type(family)(0.7, 1.0),
                                     small_scales=(1e-1, 1e-2, 1e-3))
        assert inside.expected_limit == 1.0 and inside.within_tolerance

    @pytest.mark.parametrize("family", [Gaussian, Uniform, Laplace,
                                        lambda c, s: AlphaStable(1.0, 0.0, s, c)],
                             ids=["gaussian", "uniform", "laplace", "cauchy"])
    @pytest.mark.parametrize("end", ["lo", "hi"])
    def test_symmetric_endpoint_limit(self, family, end):
        # On an endpoint P tends to F(center) = 1/2, so plus tends to 3/4.
        center = getattr(forbidden_interval(REF_CHANNEL), end)
        report = theorem_limit_check(PLUS, REF_CHANNEL, family(center, 1.0))
        assert report.regime == "endpoint" and not report.center_inside
        assert report.expected_limit == analytic_fidelity(pauli_weights(PLUS), 0.5)
        assert report.expected_limit == pytest.approx(0.75)
        assert report.within_tolerance

    @pytest.mark.parametrize("end", ["lo", "hi"])
    def test_skewed_endpoint_limit_is_the_cdf_at_the_center(self, end):
        center = getattr(forbidden_interval(REF_CHANNEL), end)
        model = AlphaStable(1.5, 0.5, 1.0, center, cdf_draws=20_000)
        report = theorem_limit_check(PLUS, REF_CHANNEL, model,
                                     EntanglementResource(0.8))
        at_center = model.cdf(center)
        p = 1.0 - at_center if end == "lo" else at_center
        assert abs(p - 0.5) > 0.01
        assert report.regime == "endpoint"
        assert report.expected_limit == analytic_fidelity(pauli_weights(PLUS), p,
                                                          EntanglementResource(0.8))
        assert report.within_tolerance

    def test_interval_narrower_than_a_float_has_both_endpoints_at_the_center(self):
        # threshold -+ 1e-17 both round to 1.6, so P is 0 at every scale.
        report = theorem_limit_check(PLUS, ChannelConfig(1e-17, 1.6), Gaussian(1.6, 1.0))
        assert report.regime == "endpoint"
        assert report.expected_limit == 0.5 and report.within_tolerance

    def test_skewed_alpha_one_endpoint_takes_the_regime_of_its_drift(self):
        # Skew 0.5 drifts into the interval from its lower endpoint: the
        # inside limit applies, approached so slowly that 1e-6 misses it.
        report = theorem_limit_check(PLUS, REF_CHANNEL, AlphaStable(1.0, 0.5, 1.0, 0.5))
        assert report.regime == "inside" and report.center_inside
        assert report.expected_limit == 1.0
        assert list(report.analytic_f) == sorted(report.analytic_f)
        assert not report.within_tolerance

    def test_grid_must_descend(self):
        with pytest.raises(ValueError, match="descend"):
            theorem_limit_check(PLUS, REF_CHANNEL, Gaussian(0.0, 1.0),
                                small_scales=(1e-3, 1e-2))
        with pytest.raises(ValueError, match="positive"):
            theorem_limit_check(PLUS, REF_CHANNEL, Gaussian(0.0, 1.0), small_scales=())

    def test_report_carries_interval_and_center(self):
        report = theorem_limit_check(PLUS, REF_CHANNEL, Gaussian(0.7, 1.0))
        assert report.center == 0.7
        assert report.interval == pytest.approx((0.5, 2.7))
        assert len(report.scales) == len(report.analytic_f)

    def test_report_interval_is_the_forbidden_interval(self):
        report = theorem_limit_check(PLUS, REF_CHANNEL, Gaussian(0.7, 1.0))
        assert isinstance(report.interval, Interval)
        assert report.interval == forbidden_interval(REF_CHANNEL)


class TestOwnNumbers:
    """Every value checks its own numbers: a ValueError that names the field."""

    @pytest.mark.parametrize("build,field", [
        (lambda: Gaussian(math.nan), "mean"),
        (lambda: Laplace(0.0, math.inf), "diversity"),
        (lambda: AlphaStable(1.5, location=math.nan), "location"),
        (lambda: AlphaStable(1.5, cdf_draws=True), "cdf_draws"),
        (lambda: ChannelConfig(1.1, math.inf), "threshold"),
        (lambda: ChannelConfig(2.0, 1.6, allow_suprathreshold="no"), "allow_suprathreshold"),
        (lambda: sweep(PLUS, REF_CHANNEL, Gaussian(), [1.0], runs=True, trials_per_run=10), "runs"),
        (lambda: sweep(PLUS, REF_CHANNEL, Gaussian(), [1.0], runs=2.5, trials_per_run=10), "runs"),
        (lambda: estimate_fidelity(PLUS, REF_CHANNEL, Gaussian(), PERFECT, True,
                                   np.random.default_rng(0)), "trials"),
        (lambda: sweep(PLUS, REF_CHANNEL, Gaussian(), ["0.5", "1.0"], runs=1, trials_per_run=10),
         "scales"),
        (lambda: find_optimal_noise(PLUS, REF_CHANNEL, Gaussian(), scale_bounds=("0.5", "2")),
         "scale bounds"),
        *[(lambda b=b: find_optimal_noise(PLUS, REF_CHANNEL, Gaussian(), scale_bounds=b),
           "scale bounds") for b in ((0.5,), (0.5, 1.0, 2.0))],
        (lambda: check_scales([True, 2.0], "grid"), "grid"),
        *[(lambda c=c: default_scale_grid(c), "count") for c in (True, 0, 2.0)],
        *[(lambda seed=seed: sweep(PLUS, REF_CHANNEL, Gaussian(), [1.0], runs=1, trials_per_run=10,
                                   master_seed=seed), "master_seed") for seed in (True, 1.5, -1)],
    ], ids=["gaussian-nan-mean", "laplace-inf-diversity", "stable-nan-location",
            "stable-bool-cdf_draws", "channel-inf-threshold", "channel-str-allow",
            "sweep-bool-runs",
            "sweep-float-runs", "estimate-bool-trials", "sweep-string-scales",
            "optimum-string-bounds", "optimum-one-bound", "optimum-three-bounds",
            "bool-scale", "grid-bool-count", "grid-zero-count", "grid-float-count",
            "sweep-bool-master_seed",
            "sweep-float-master_seed", "sweep-negative-master_seed"])
    def test_rejects_and_names_the_field(self, build, field):
        with pytest.raises(ValueError, match=field):
            build()


STATES = st.one_of(
    st.sampled_from(["zero", "one", "plus", "i-plus"]).map(QubitState.preset),
    st.builds(lambda a, b, c, d: QubitState.normalized(complex(a, b), complex(c, d)),
              st.floats(0.1, 1.0), *[st.floats(-1.0, 1.0)] * 3),
)
SUBTHRESHOLD = st.builds(lambda a, gap: ChannelConfig(a, a + gap),
                         st.floats(0.01, 5.0), st.floats(1e-3, 5.0))
# The families with a closed-form CDF, each built from (center, scale).
EXACT_FAMILIES = st.sampled_from([Gaussian, Uniform, Laplace,
                                  lambda center, scale: AlphaStable(1.0, 0.0, scale, center)])
LOG_GRID = [float(s) for s in np.logspace(-3, 3, 61)]


@st.composite
def theorem_cases(draw, where: str):
    """A subthreshold channel and an exact-CDF family whose center lies
    ``where``: inside or outside the forbidden interval, at least 0.1 from
    both endpoints, or exactly on an endpoint."""
    amplitude = draw(st.floats(0.15, 2.0))
    config = ChannelConfig(amplitude, amplitude + draw(st.floats(0.05, 3.0)))
    lo, hi = forbidden_interval(config)
    if where == "inside":
        center = draw(st.floats(lo + 0.1, hi - 0.1))
    elif where == "outside":
        gap = draw(st.floats(0.1, 3.0))
        center = draw(st.sampled_from([lo - gap, hi + gap]))
    else:
        center = draw(st.sampled_from([lo, hi]))
    return config, draw(EXACT_FAMILIES)(center, 1.0)


def expected_limit(regime: str, werner_f: float) -> float:
    """The vanishing-noise limit for ``plus`` under a symmetric family: 1/2 +
    w/2 inside, 1/2 outside, and the fidelity at P = F(center) = 1/2 on an
    endpoint."""
    if regime == "endpoint":
        return analytic_fidelity(pauli_weights(PLUS), 0.5, EntanglementResource(werner_f))
    return 0.5 + 0.5 * werner_f if regime == "inside" else 0.5


def fidelity_on_log_grid(config, model):
    w = pauli_weights(PLUS)
    return [analytic_at(w, config, model.with_scale(s), PERFECT) for s in LOG_GRID]


class TestProperties:
    # F - 1/2 scales with the Werner weight, so the shape over the grid is
    # checked for a perfect pair and the limit for any weight.
    @given(case=st.one_of(theorem_cases("inside"), theorem_cases("endpoint")),
           werner_f=st.floats(0.0, 1.0))
    def test_noise_only_hurts_with_the_center_inside(self, case, werner_f):
        config, model = case
        report = theorem_limit_check(PLUS, config, model, EntanglementResource(werner_f))
        assert report.regime in ("inside", "endpoint")
        assert report.expected_limit == expected_limit(report.regime, werner_f)
        assert report.within_tolerance
        assert not sr_predicted(config, model)
        values = fidelity_on_log_grid(config, model)
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    @given(case=st.one_of(theorem_cases("outside"), theorem_cases("endpoint")),
           werner_f=st.floats(0.0, 1.0))
    def test_noise_helps_with_the_center_outside(self, case, werner_f):
        # Outside the closed interval noise helps; on an endpoint it does not.
        config, model = case
        report = theorem_limit_check(PLUS, config, model, EntanglementResource(werner_f))
        assert report.expected_limit == expected_limit(report.regime, werner_f)
        assert report.within_tolerance
        outside = report.regime == "outside"
        assert sr_predicted(config, model) == outside
        values = fidelity_on_log_grid(config, model)
        assert (max(values) > max(values[0], values[-1])) == outside

    @given(state=STATES, config=SUBTHRESHOLD, model=MODELS, werner_f=st.floats(0.0, 1.0))
    def test_fidelity_band_and_nonnegative_detection_gap(self, state, config, model, werner_f):
        assert detection_probabilities(config, model).P >= 0.0
        value = analytic_at(pauli_weights(state), config, model, EntanglementResource(werner_f))
        assert 0.5 <= value <= 1.0

    @settings(max_examples=25)
    @given(state=STATES, config=SUBTHRESHOLD, model=MODELS, werner_f=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32))
    def test_small_sweep_is_worker_independent(self, state, config, model, werner_f, seed):
        kwargs = dict(state=state, config=config, noise_family=model, scales=[0.3, 1.0, 2.5],
                      runs=2, trials_per_run=50, resource=EntanglementResource(werner_f),
                      smoothing_window=3, master_seed=seed)
        one, two = (sweep(**kwargs, workers=w) for w in (1, 2))
        assert one.to_csv() == two.to_csv()
