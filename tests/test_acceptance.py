"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all
even when everything passes).  Monte Carlo criteria use a fixed master seed,
so the suite is deterministic; the statistical bands were sized so that the
criteria also hold across seeds.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats as sps

from teleport_sr.analysis import (
    EntanglementResource,
    analytic_fidelity,
    default_scale_grid,
    estimate_fidelity,
    find_optimal_noise,
    sweep,
    theorem_limit_check,
)
from teleport_sr.channel import ChannelConfig, DetectionStats, detection_probabilities
from teleport_sr.cli import main as cli_main
from teleport_sr.noise import AlphaStable, Gaussian
from teleport_sr.qstate import (
    QubitState,
    bell_measure,
    bob_mixed_state,
    fidelity_against,
    pauli_weights,
)

MASTER_SEED = 20080722

PLUS = QubitState.preset("plus")
CHANNEL = ChannelConfig(amplitude=1.1, threshold=1.6)
PERFECT = EntanglementResource(1.0)

# Closed-form stationarity points of P(scale) over the interval (0.5, 2.7).
SIGMA_OPT = math.sqrt((2.7**2 - 0.5**2) / (2 * math.log(2.7 / 0.5)))   # 1.4447448...
GAMMA_OPT = math.sqrt(0.5 * 2.7)                                        # 1.1618950...


def report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {num:2d} ({label}): {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def random_state(rng) -> QubitState:
    raw = rng.normal(size=4)
    return QubitState.normalized(complex(raw[0], raw[1]), complex(raw[2], raw[3]))


def test_criterion_01_gaussian_sweep_reproduction():
    start = time.perf_counter()
    result = sweep(PLUS, CHANNEL, Gaussian(0.0, 1.0), default_scale_grid(),
                   runs=100, trials_per_run=10_000, resource=PERFECT,
                   smoothing_window=5, master_seed=MASTER_SEED)
    elapsed = time.perf_counter() - start
    smoothed = np.array(result.mc_smoothed)
    peak = float(smoothed.max())
    peak_scale = result.scales[int(smoothed.argmax())]
    ok = (abs(peak - 0.668) <= 0.010) and (1.3 <= peak_scale <= 1.6) and (elapsed < 60.0)
    report(1, "gaussian noise-benefit sweep", ok,
           f"smoothed peak {peak:.4f} (target 0.668+-0.010) at scale {peak_scale:.3f} "
           f"(target [1.3, 1.6]), {elapsed:.1f}s (< 60s)")


def test_criterion_02_cauchy_sweep_reproduction():
    result = sweep(PLUS, CHANNEL, AlphaStable(1.0, 0.0, 1.0, 0.0), default_scale_grid(),
                   runs=100, trials_per_run=10_000, resource=PERFECT,
                   smoothing_window=5, master_seed=MASTER_SEED)
    smoothed = np.array(result.mc_smoothed)
    peak = float(smoothed.max())
    peak_scale = result.scales[int(smoothed.argmax())]
    ok = (abs(peak - 0.621) <= 0.010) and (1.0 <= peak_scale <= 1.3) and (peak < 2 / 3)
    report(2, "cauchy noise-benefit sweep", ok,
           f"smoothed peak {peak:.4f} (target 0.621+-0.010, < 2/3) at scale {peak_scale:.3f} "
           f"(target [1.0, 1.3])")


def test_criterion_03_no_benefit_inside_interval():
    weights = pauli_weights(PLUS)
    failures = []
    for family in (Gaussian(0.7, 1.0), AlphaStable(1.0, 0.0, 1.0, 0.7)):
        values = [
            analytic_fidelity(weights, detection_probabilities(CHANNEL, family.with_scale(s)).P, PERFECT)
            for s in default_scale_grid()
        ]
        nonincreasing = all(b <= a for a, b in zip(values, values[1:]))
        first_dominates = all(values[0] > v for v in values[1:])
        if not (nonincreasing and first_dominates):
            failures.append(family.kind)
    report(3, "monotone decay for centered noise", not failures,
           "analytic fidelity nonincreasing on the default grid for gaussian mean 0.7 "
           f"and cauchy location 0.7; failures: {failures or 'none'}")


def test_criterion_04_analytic_optima():
    gauss = find_optimal_noise(PLUS, CHANNEL, Gaussian(0.0, 1.0), PERFECT, (0.01, 3.0))
    cauchy = find_optimal_noise(PLUS, CHANNEL, AlphaStable(1.0, 0.0, 1.0, 0.0), PERFECT, (0.01, 3.0))

    # Dense-grid cross-check of both searches on P(scale) from scipy CDFs.
    grid = np.linspace(0.01, 3.0, 5000)
    step = float(grid[1] - grid[0])
    p_gauss = sps.norm.cdf(2.7 / grid) - sps.norm.cdf(0.5 / grid)
    p_cauchy = (np.arctan(2.7 / grid) - np.arctan(0.5 / grid)) / np.pi
    grid_sigma = float(grid[np.argmax(p_gauss)])
    grid_gamma = float(grid[np.argmax(p_cauchy)])

    f_gauss_target = 0.5 + 0.5 * float(sps.norm.cdf(2.7 / SIGMA_OPT) - sps.norm.cdf(0.5 / SIGMA_OPT))
    f_cauchy_target = 0.5 + 0.5 * float((math.atan(2.7 / GAMMA_OPT) - math.atan(0.5 / GAMMA_OPT)) / math.pi)

    ok = (
        abs(gauss.scale - 1.4448) <= 1e-3
        and abs(gauss.scale - SIGMA_OPT) <= 1e-4
        and abs(gauss.scale - grid_sigma) <= step
        and abs(gauss.fidelity - 0.6669) <= 1e-3
        and abs(gauss.fidelity - f_gauss_target) <= 1e-6
        and gauss.fidelity - 2 / 3 >= 1e-4
        and abs(cauchy.scale - 1.1619) <= 1e-3
        and abs(cauchy.scale - GAMMA_OPT) <= 1e-4
        and abs(cauchy.scale - grid_gamma) <= step
        and abs(cauchy.fidelity - 0.6206) <= 1e-3
        and abs(cauchy.fidelity - f_cauchy_target) <= 1e-6
        and cauchy.fidelity < 2 / 3
    )
    report(4, "analytic optima", ok,
           f"gaussian scale {gauss.scale:.5f} (oracle {SIGMA_OPT:.5f}) F {gauss.fidelity:.5f} "
           f"(> 2/3 by {gauss.fidelity - 2/3:.1e}); cauchy scale {cauchy.scale:.5f} "
           f"(oracle {GAMMA_OPT:.5f}) F {cauchy.fidelity:.5f} (< 2/3)")


def test_criterion_05_theorem_limits():
    checks = [
        ("gaussian outside", Gaussian(0.0, 1.0), (1e-1, 1e-2, 1e-3), 0.5),
        ("gaussian inside", Gaussian(0.7, 1.0), (1e-1, 1e-2, 1e-3), 1.0),
        ("cauchy outside", AlphaStable(1.0, 0.0, 1.0, 0.0), (1e-2, 1e-4, 1e-6), 0.5),
        ("cauchy inside", AlphaStable(1.0, 0.0, 1.0, 0.7), (1e-2, 1e-4, 1e-6), 1.0),
    ]
    gaps = {}
    for label, family, grid, limit in checks:
        rep = theorem_limit_check(PLUS, CHANNEL, family, PERFECT, grid)
        gaps[label] = abs(rep.analytic_f[-1] - limit)
        assert rep.expected_limit == limit
    ok = all(gap <= 1e-5 for gap in gaps.values())
    detail = ", ".join(f"{k}: gap {v:.2e}" for k, v in gaps.items())
    report(5, "vanishing-noise limits", ok, detail + " (tolerance 1e-5)")


def test_criterion_06_oracle_equivalence():
    rng = np.random.default_rng(MASTER_SEED)
    worst = 0.0
    for _ in range(10_000):
        state = random_state(rng)
        a, b = sorted(rng.uniform(0, 1, 2))
        stats = DetectionStats(p00=b, p01=a)
        fw = float(rng.uniform(0, 1))
        rho = bob_mixed_state(state, stats).matrix
        mixed = fw * rho + (1 - fw) * np.eye(2) / 2
        via_density = fidelity_against(state, mixed)
        via_formula = analytic_fidelity(pauli_weights(state), stats.P, EntanglementResource(fw))
        worst = max(worst, abs(via_density - via_formula))
    ok = worst <= 1e-12
    report(6, "mixed-state route vs closed form", ok,
           f"max |difference| {worst:.2e} over 10^4 random triples (tolerance 1e-12)")


def test_criterion_07_measurement_bit_statistics():
    rng = np.random.default_rng(MASTER_SEED)
    b1, b2 = bell_measure(rng, size=1_000_000)
    freq_err = 0.0
    for s1 in (0, 1):
        for s2 in (0, 1):
            freq = float(np.mean((b1 == s1) & (b2 == s2)))
            freq_err = max(freq_err, abs(freq - 0.25))
    corr = float(np.corrcoef(b1, b2)[0, 1])
    ok = freq_err < 0.0015 and abs(corr) < 0.004
    report(7, "measurement bit statistics", ok,
           f"max pair-frequency error {freq_err:.5f} (< 0.0015), |corr| {abs(corr):.5f} (< 0.004)")


def test_criterion_08_stable_sampler_validation():
    rng = np.random.default_rng(MASTER_SEED)
    cauchy = AlphaStable(1.0, 0.0, 1.11, 0.0)
    x = np.sort(cauchy.sample(rng, 100_000))
    n = x.size
    reference = sps.cauchy(0.0, 1.11).cdf(x)
    steps = np.arange(n + 1) / n
    ks = max(float(np.max(steps[1:] - reference)), float(np.max(reference - steps[:-1])))

    var_errs = []
    for gamma in (0.7, 1.42):
        y = AlphaStable(2.0, 0.0, gamma, 0.0).sample(rng, 1_000_000)
        var_errs.append(abs(float(y.var()) / (2 * gamma) - 1.0))
    ok = ks < 0.006 and all(err < 0.05 for err in var_errs)
    report(8, "stable sampler", ok,
           f"alpha=1 KS {ks:.5f} (< 0.006); alpha=2 variance error "
           + ", ".join(f"{e:.3%}" for e in var_errs) + " (< 5%)")


def test_criterion_09_entanglement_quality_scaling():
    rng = np.random.default_rng(MASTER_SEED)
    worst = 0.0
    for _ in range(5000):
        w = pauli_weights(random_state(rng))
        p = float(rng.uniform(0, 1))
        fw = float(rng.uniform(0, 1))
        lhs = analytic_fidelity(w, p, EntanglementResource(fw)) - 0.5
        rhs = fw * (analytic_fidelity(w, p, PERFECT) - 0.5)
        worst = max(worst, abs(lhs - rhs))
    # 2^-52 is the double-rounding floor of re-adding the 1/2 offset; there
    # is no statistical allowance here.
    exact = worst <= 2.0**-52

    mc = estimate_fidelity(PLUS, CHANNEL, Gaussian(0.0, 1.42),
                           EntanglementResource(0.0), 10_000,
                           np.random.default_rng(MASTER_SEED))
    ok = exact and mc == 0.5
    report(9, "entanglement-quality scaling", ok,
           f"max linearity defect {worst:.2e} (<= 2^-52); fully-mixed MC estimate {mc!r} == 0.5")


def test_criterion_10_byte_level_determinism(tmp_path, monkeypatch, capsys):
    config = {
        "state": "plus",
        "channel": {"amplitude": 1.1, "threshold": 1.6},
        "noise": {"kind": "gaussian", "mean": 0.0, "sigma": 1.0},
        "sweep": {"runs": 5, "trials": 400, "window": 3, "bounds": [0.2, 2.8], "count": 12},
        "seed": MASTER_SEED,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))

    outputs = {}
    for label, threads in (("first", "1"), ("second", "1"), ("parallel", "8")):
        monkeypatch.setenv("TELEPORT_SR_THREADS", threads)
        out_dir = tmp_path / label
        code = cli_main(["sweep", "--config", str(config_path), "--out", str(out_dir)])
        assert code == 0
        outputs[label] = tuple(
            (out_dir / name).read_bytes() for name in ("sweep.csv", "sweep.json", "sweep.svg")
        )
    capsys.readouterr()
    ok = outputs["first"] == outputs["second"] == outputs["parallel"]
    report(10, "byte-level determinism", ok,
           "csv/json/svg identical across rerun and across worker counts 1 and 8")
