"""Independent correctness checks of CLI outputs, computed with scipy.

Every workload uses the ``plus`` state, for which the X correction is
irrelevant and a trial succeeds exactly when the second bit arrives intact.
So the fidelity is F = (1 + P) / 2 with P = cdf(t + A) - cdf(t - A), and one
trial is a Bernoulli variable with variance (1 - P**2) / 4.  The CDF comes
from ``scipy.stats``: ``norm`` for Gaussian noise and, for stable noise in
the package's convention, ``levy_stable(alpha, beta=-skew,
scale=gamma**(1/alpha))``.  Each check returns a list of problems; an empty
list means the output is correct.

The checks need only the standard library.  The oracle values themselves
need scipy, so the benchmark computes them in a separate process
(``python3 bench/oracle.py <request.json> <answer.json>``): the driver stays
small, and the peak memory its children report through ``wait4`` is theirs,
not an inherited high-water mark of the driver.
"""

from __future__ import annotations

import json
import math
import sys

AMPLITUDE = 1.1
THRESHOLD = 1.6

Z_MAX = 5.0  # per-scale |mc_mean - F| / SEM
ANALYTIC_ATOL = 2e-3  # |analytic_f - F|; the empirical stable CDF is ~3e-4 off
PEAK_F = (0.668, 0.010)  # Gaussian smoothed peak: value, tolerance
PEAK_SCALE = (1.3, 1.6)
OPTIMUM_ATOL = 1e-3  # fidelity_opt below the dense-grid maximum
OPTIMUM_OVER = 2e-3  # fidelity_opt above it (the table's resolution)


def detection_p(noise: dict, scale: float) -> float:
    """P = cdf(t + A) - cdf(t - A) for ``noise`` with its scale set."""
    import numpy as np
    from scipy.stats import levy_stable, norm

    x = np.array([THRESHOLD - AMPLITUDE, THRESHOLD + AMPLITUDE])
    if noise["kind"] == "gaussian":
        lo, hi = norm.cdf(x, loc=noise["mean"], scale=scale)
    elif noise["kind"] == "alpha_stable":
        alpha = noise["alpha"]
        lo, hi = levy_stable.cdf(x, alpha, -noise["skew"], loc=noise["location"],
                                 scale=scale ** (1.0 / alpha))
    else:
        raise ValueError(f"no oracle for noise kind {noise['kind']!r}")
    return float(hi - lo)


def fidelity(p: float) -> float:
    return 0.5 * (1.0 + p)


def sem(p: float, trials: int) -> float:
    """Standard error of a mean of ``trials`` plus-state trial fidelities."""
    return math.sqrt((1.0 - p * p) / 4.0 / trials)


def check_sweep(doc: dict, oracle_p, check_peak: bool) -> list[str]:
    """Check a parsed ``sweep.json`` against per-scale oracle P values."""
    rows = doc["rows"]
    meta = doc["metadata"]
    total = meta["runs"] * meta["trials_per_run"]
    problems = []
    if len(rows) != len(oracle_p):
        return [f"{len(rows)} rows for {len(oracle_p)} scales"]
    for row, p in zip(rows, oracle_p):
        f = fidelity(p)
        z = (row["mc_mean"] - f) / sem(p, total)
        if not abs(z) <= Z_MAX:
            problems.append(f"scale {row['scale']:.4g}: mc_mean z = {z:.2f}")
        if not abs(row["analytic_f"] - f) <= ANALYTIC_ATOL:
            problems.append(f"scale {row['scale']:.4g}: analytic_f {row['analytic_f']} vs {f}")
    if check_peak:
        best = max(rows, key=lambda r: r["mc_smoothed"])
        value, tol = PEAK_F
        if not (abs(best["mc_smoothed"] - value) <= tol
                and PEAK_SCALE[0] <= best["scale"] <= PEAK_SCALE[1]):
            problems.append(f"smoothed peak {best['mc_smoothed']} at scale {best['scale']}")
    return problems


def check_simulate(out: dict, p: float, trials: int) -> list[str]:
    f = fidelity(p)
    problems = []
    z = (out["fidelity_estimate"] - f) / sem(p, trials)
    if not abs(z) <= Z_MAX:
        problems.append(f"fidelity_estimate z = {z:.2f}")
    if not abs(out["analytic_fidelity"] - f) <= 1e-9:
        problems.append(f"analytic_fidelity {out['analytic_fidelity']} vs {f}")
    if out["trials"] != trials:
        problems.append(f"trials {out['trials']} != {trials}")
    return problems


def grid_max(noise: dict, lo: float, hi: float) -> float:
    """Oracle maximum of F over [lo, hi]: a dense grid, then a finer one."""
    import numpy as np

    coarse = np.linspace(lo, hi, 300)
    f = [fidelity(detection_p(noise, s)) for s in coarse]
    i = int(np.argmax(f))
    step = coarse[1] - coarse[0]
    fine = np.linspace(max(lo, coarse[i] - step), min(hi, coarse[i] + step), 41)
    return max(max(f), *(fidelity(detection_p(noise, s)) for s in fine))


def check_optimum(out: dict, f_max: float) -> list[str]:
    got = out["fidelity_opt"]
    if not f_max - OPTIMUM_ATOL <= got <= f_max + OPTIMUM_OVER:
        return [f"fidelity_opt {got} vs oracle maximum {f_max}"]
    return []


def check_theorem(out: dict) -> list[str]:
    # The noise center 0 lies outside (t - A, t + A), so F must fall to 1/2.
    problems = []
    if out["center_inside"] or out["expected_limit"] != 0.5:
        problems.append(f"center_inside {out['center_inside']}, limit {out['expected_limit']}")
    if out["within_tolerance"] is not True:
        problems.append("theorem-check reports within_tolerance false")
    return problems


def answer(request: dict) -> dict:
    """``{"p": [[noise, scale], ...], "max": [[noise, lo, hi], ...]}`` -> values."""
    return {"p": [detection_p(noise, scale) for noise, scale in request.get("p", [])],
            "max": [grid_max(noise, lo, hi) for noise, lo, hi in request.get("max", [])]}


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as handle:
        values = answer(json.load(handle))
    with open(sys.argv[2], "w", encoding="utf-8") as handle:
        json.dump(values, handle)
