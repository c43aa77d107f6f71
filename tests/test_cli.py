"""Command-line front-end tests.

Commands run in-process through ``main``; file outputs land in pytest tmp
directories.  Determinism contracts are byte-level.
"""

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, strategies as st

import teleport_sr
from teleport_sr import analysis, cli
from teleport_sr.analysis import MonotoneRegimeError, analytic_at
from teleport_sr.channel import (
    Interval,
    center_regime,
    detection_probabilities,
    forbidden_interval,
    sr_predicted,
)
from teleport_sr.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_MONOTONE,
    EXIT_OK,
    config_hash,
    config_to_json,
    main,
    parse_run_config,
)
from teleport_sr.noise import Gaussian
from teleport_sr.qstate import pauli_weights


def base_config():
    return {
        "state": "plus",
        "channel": {"amplitude": 1.1, "threshold": 1.6},
        "noise": {"kind": "gaussian", "mean": 0.0, "sigma": 1.42},
        "resource": {"werner_f": 1.0},
        "sweep": {"runs": 2, "trials": 300, "window": 3,
                  "scales": [0.3, 0.8, 1.3, 1.8, 2.3]},
        "seed": 7,
    }


CENTERS = st.floats(-10.0, 10.0)
SCALES = st.floats(1e-3, 1e3)
PAIRS = st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2)
STATES = st.one_of(
    st.sampled_from(["zero", "one", "plus", "i-plus"]),
    st.fixed_dictionaries({"alpha": st.floats(0.1, 1.0), "beta": PAIRS, "normalize": st.just(True)}),
)
CHANNELS = st.builds(
    lambda a, gap: {"amplitude": a, "threshold": a + gap, "allow_suprathreshold": not a < a + gap},
    st.floats(0.01, 5.0), st.floats(-1.0, 5.0))
NOISES = st.one_of(*(
    st.fixed_dictionaries({"kind": st.just(kind)}, optional={center: CENTERS, scale: SCALES})
    for kind, center, scale in (("gaussian", "mean", "sigma"), ("uniform", "mean", "half_width"),
                                ("laplace", "mean", "diversity"))
), st.fixed_dictionaries(
    {"kind": st.just("alpha_stable"), "alpha": st.floats(0.2, 2.0)},
    optional={"skew": st.floats(-1.0, 1.0), "gamma": SCALES, "location": CENTERS,
              "cdf_draws": st.integers(1, 10**6)}))
# The three sweep forms: defaults, bounds + count, and an explicit grid.
SWEEPS = st.one_of(
    st.just({}),
    st.builds(lambda lo, ratio, count: {"bounds": [lo, lo * (1.0 + ratio)], "count": count},
              st.floats(1e-3, 10.0), st.floats(0.01, 10.0), st.integers(1, 200)),
    st.builds(lambda grid: {"scales": sorted(grid)},
              st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=20, unique=True)),
)
CONFIGS = st.fixed_dictionaries({
    "state": STATES, "channel": CHANNELS, "noise": NOISES,
    "resource": st.fixed_dictionaries({"werner_f": st.floats(0.0, 1.0)}),
    "sweep": SWEEPS, "seed": st.integers(0, 2**63),
})


# Noise at scales near a float's limit, and the start of the error that
# refuses it where its map to the standard shape overflows: only the stable
# map can, so Gaussian and uniform noise answer.
OVERFLOWING = [
    ({"kind": "gaussian", "sigma": 1e200}, "gaussian sigma 1e+200"),
    ({"kind": "uniform", "mean": 1e308, "half_width": 1e308}, "uniform half_width 1e+308"),
    ({"kind": "alpha_stable", "alpha": 0.5, "gamma": 1e300}, "alpha_stable gamma 1e+300"),
]


@pytest.fixture
def config_path(tmp_path):
    def write(cfg, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(cfg))
        return str(path)
    return write


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseRunConfig:
    def test_full_round_trip(self):
        cfg = parse_run_config(base_config())
        assert cfg.noise == Gaussian(0.0, 1.42)
        assert cfg.runs == 2 and cfg.trials == 300 and cfg.window == 3
        assert cfg.seed == 7
        again = parse_run_config(config_to_json(cfg))
        assert again == cfg

    def test_defaults(self):
        cfg = parse_run_config({
            "state": "zero",
            "channel": {"amplitude": 1.1, "threshold": 1.6},
            "noise": {"kind": "gaussian"},
        })
        assert cfg.resource.werner_f == 1.0
        assert cfg.runs == 100 and cfg.trials == 10_000 and cfg.window == 5
        assert len(cfg.scales) == 60
        assert cfg.seed == 0
        assert cfg.bounds == (0.01, 3.0)
        nulls = parse_run_config({
            "state": "zero",
            "channel": {"amplitude": 1.1, "threshold": 1.6},
            "noise": {"kind": "gaussian"},
            "resource": None,
            "sweep": None,
        })
        assert nulls == cfg

    @given(raw=CONFIGS)
    def test_config_to_json_round_trips_exactly(self, raw):
        cfg = parse_run_config(raw)
        again = parse_run_config(json.loads(json.dumps(config_to_json(cfg))))
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)

    @pytest.mark.parametrize("noise", [
        {"kind": "gaussian", "mean": 0, "sigma": 1},
        {"kind": "uniform", "mean": -1, "half_width": 2},
        {"kind": "laplace", "mean": 3, "diversity": 1},
        {"kind": "alpha_stable", "alpha": 2, "skew": 0, "gamma": 1, "location": 0},
    ], ids=["gaussian", "uniform", "laplace", "stable"])
    def test_int_and_float_spellings_hash_alike(self, noise):
        raw = base_config()
        raw["noise"] = noise
        as_ints = parse_run_config(raw)
        raw["noise"] = {k: float(v) if isinstance(v, int) else v for k, v in noise.items()}
        as_floats = parse_run_config(raw)
        assert as_ints == as_floats
        assert config_to_json(as_ints) == config_to_json(as_floats)
        assert config_hash(as_ints) == config_hash(as_floats)

    def test_amplitude_pairs(self):
        raw = base_config()
        raw["state"] = {"alpha": [0.6, 0.0], "beta": [0.0, 0.8]}
        cfg = parse_run_config(raw)
        assert cfg.state.alpha == 0.6
        assert cfg.state.beta == 0.8j

    def test_state_normalize_flag(self):
        raw = base_config()
        raw["state"] = {"alpha": 3.0, "beta": 4.0, "normalize": True}
        cfg = parse_run_config(raw)
        assert abs(cfg.state.alpha - 0.6) < 1e-15
        raw["state"]["normalize"] = False
        with pytest.raises(ValueError, match="not normalized"):
            parse_run_config(raw)

    def test_rejects_unknown_keys_everywhere(self):
        for mutate in (
            lambda c: c.update(extra=1),
            lambda c: c["channel"].update(gain=2),
            lambda c: c["noise"].update(spread=2),
            lambda c: c["sweep"].update(repeats=3),
            lambda c: c["resource"].update(purity=0.9),
        ):
            raw = base_config()
            mutate(raw)
            with pytest.raises(ValueError, match="unknown"):
                parse_run_config(raw)

    def test_rejects_scales_plus_bounds(self):
        raw = base_config()
        raw["sweep"]["bounds"] = [0.1, 2.0]
        with pytest.raises(ValueError, match="not both"):
            parse_run_config(raw)

    def test_bounds_and_count_build_the_grid(self):
        raw = base_config()
        raw["sweep"] = {"bounds": [0.5, 2.5], "count": 10}
        cfg = parse_run_config(raw)
        assert len(cfg.scales) == 10
        assert cfg.scales[-1] == pytest.approx(2.5)
        assert cfg.scales[0] > 0.5
        assert cfg.bounds == (0.5, 2.5)

    def test_seed_override_and_validation(self):
        assert parse_run_config(base_config(), seed_override=42).seed == 42
        raw = base_config()
        raw["seed"] = -3
        with pytest.raises(ValueError, match="seed"):
            parse_run_config(raw)

    def test_missing_sections(self):
        with pytest.raises(ValueError, match="config missing key 'noise'"):
            parse_run_config({"state": "plus", "channel": {"amplitude": 1, "threshold": 2}})


class TestWeightsCommand:
    """The Pauli weights that ``probs`` prints."""

    def test_plus_preset(self, capsys, config_path):
        code, out, _ = run_cli(capsys, ["probs", "--config", config_path(base_config())])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["qx"] == pytest.approx(1.0, abs=1e-12)
        assert payload["qz"] == pytest.approx(0.0, abs=1e-12)
        assert payload["qxz"] == pytest.approx(0.0, abs=1e-12)

    def test_zero_preset_is_exact(self, capsys, config_path):
        raw = base_config()
        raw["state"] = "zero"
        code, out, _ = run_cli(capsys, ["probs", "--config", config_path(raw)])
        assert code == EXIT_OK
        weights = {key: json.loads(out)[key] for key in ("qx", "qz", "qxz")}
        assert weights == {"qx": 0.0, "qz": 1.0, "qxz": 0.0}

    def test_real_amplitudes(self, capsys, config_path):
        raw = base_config()
        raw["state"] = {"alpha": 0.6, "beta": 0.8}
        code, out, _ = run_cli(capsys, ["probs", "--config", config_path(raw)])
        payload = json.loads(out)
        assert payload["qx"] == pytest.approx(0.9216, abs=1e-12)
        assert payload["qz"] == pytest.approx(0.0784, abs=1e-12)

    def test_csv_format(self, capsys, config_path):
        raw = base_config()
        raw["state"] = "zero"
        code, out, _ = run_cli(capsys, ["probs", "--format", "csv",
                                        "--config", config_path(raw)])
        assert code == EXIT_OK
        assert out.splitlines()[0] == "key,value"
        assert "qz,1.0" in out.splitlines()

    def test_invalid_config_exits_2_with_diagnostic(self, capsys, config_path):
        raw = base_config()
        raw["state"] = {"alpha": 0.6, "beta": 0.7}
        code, _, err = run_cli(capsys, ["probs", "--config", config_path(raw)])
        assert code == EXIT_CONFIG
        assert "not normalized" in err


class TestCheckIntervalCommand:
    """The forbidden interval and noise-benefit prediction that ``probs`` prints."""

    def test_center_outside(self, capsys, config_path):
        code, out, _ = run_cli(capsys, ["probs", "--config", config_path(base_config())])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["interval"] == pytest.approx([0.5, 2.7])
        assert payload["center"] == 0.0
        assert payload["sr_predicted"] is True

    def test_center_inside(self, capsys, config_path):
        raw = base_config()
        raw["noise"]["mean"] = 0.7
        _, out, _ = run_cli(capsys, ["probs", "--config", config_path(raw)])
        assert json.loads(out)["sr_predicted"] is False

    def test_cauchy_on_upper_endpoint(self, capsys, config_path):
        raw = base_config()
        raw["noise"] = {"kind": "alpha_stable", "alpha": 1.0, "gamma": 1.0, "location": 2.7}
        _, out, _ = run_cli(capsys, ["probs", "--config", config_path(raw)])
        payload = json.loads(out)
        assert payload["center"] == 2.7
        assert payload["regime"] == "endpoint"
        assert payload["sr_predicted"] is False


@pytest.mark.parametrize("noise,center_key", [
    ({"kind": "gaussian"}, "mean"), ({"kind": "uniform"}, "mean"), ({"kind": "laplace"}, "mean"),
    ({"kind": "alpha_stable", "alpha": 1.0}, "location"),
], ids=["gaussian", "uniform", "laplace", "cauchy"])
@pytest.mark.parametrize("center", [0.5, 2.7], ids=["lo", "hi"])
def test_endpoints_get_one_answer(capsys, config_path, noise, center_key, center):
    # A center on an endpoint gets no noise benefit: probs predicts
    # none, optimum reports the monotone regime, and theorem-check expects
    # the limit 3/4 that its values reach.
    raw = base_config()
    raw["noise"] = {**noise, center_key: center}
    path = config_path(raw)
    _, out, _ = run_cli(capsys, ["probs", "--config", path])
    interval = json.loads(out)
    assert (interval["regime"], interval["sr_predicted"]) == ("endpoint", False)
    code, out, _ = run_cli(capsys, ["optimum", "--config", path])
    assert code == EXIT_MONOTONE and json.loads(out)["regime"] == "monotone"
    _, out, _ = run_cli(capsys, ["theorem-check", "--config", path])
    report = json.loads(out)
    assert (report["regime"], report["center_inside"]) == ("endpoint", False)
    assert report["expected_limit"] == pytest.approx(0.75, abs=1e-15)
    assert report["within_tolerance"] is True


class TestProbsCommand:
    def test_reference_config_is_the_closed_form(self, capsys, config_path):
        # The detection probabilities, then each of the other keys exactly as
        # its library call gives it, in this order.
        cfg = parse_run_config(base_config())
        stats = detection_probabilities(cfg.channel, cfg.noise)
        weights = pauli_weights(cfg.state)
        interval = forbidden_interval(cfg.channel)
        code, out, err = run_cli(capsys, ["probs", "--config", config_path(base_config())])
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out) == {
            "p00": stats.p00, "p01": stats.p01, "p10": stats.p10, "p11": stats.p11,
            "P": stats.P, "cdf_exact": True, "cdf_draws": None,
            "qx": weights.qx, "qz": weights.qz, "qxz": weights.qxz,
            "interval": [interval.lo, interval.hi],
            "center": cfg.noise.center,
            "regime": center_regime(cfg.channel, cfg.noise),
            "sr_predicted": sr_predicted(cfg.channel, cfg.noise),
            "theorem": cfg.noise.theorem,
            "analytic_fidelity": analytic_at(weights, cfg.channel, cfg.noise, cfg.resource),
        }
        assert list(json.loads(out)) == [
            "p00", "p01", "p10", "p11", "P", "cdf_exact", "cdf_draws", "qx", "qz", "qxz",
            "interval", "center", "regime", "sr_predicted", "theorem", "analytic_fidelity"]

    def test_gaussian_point(self, capsys, config_path):
        code, out, _ = run_cli(capsys, ["probs", "--config", config_path(base_config())])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["P"] == pytest.approx(0.33375261439181636, abs=1e-12)
        assert payload["p00"] + payload["p10"] == pytest.approx(1.0)
        assert payload["cdf_exact"] is True

    def test_empirical_cdf_flag(self, capsys, config_path):
        raw = base_config()
        raw["noise"] = {"kind": "alpha_stable", "alpha": 1.5, "gamma": 1.0,
                        "location": 0.0, "cdf_draws": 20000}
        _, out, _ = run_cli(capsys, ["probs", "--config", config_path(raw)])
        payload = json.loads(out)
        assert payload["cdf_exact"] is False
        assert payload["cdf_draws"] == 20000


class TestSimulateCommand:
    def test_deterministic_and_near_analytic(self, capsys, config_path):
        raw = base_config()
        raw["sweep"]["trials"] = 20_000
        path = config_path(raw)
        code, out1, _ = run_cli(capsys, ["simulate", "--config", path])
        assert code == EXIT_OK
        _, out2, _ = run_cli(capsys, ["simulate", "--config", path])
        assert out1 == out2
        payload = json.loads(out1)
        band = 4 * 0.5 / math.sqrt(payload["trials"])
        assert abs(payload["fidelity_estimate"] - payload["analytic_fidelity"]) < band

    def test_seed_flag_changes_the_draw(self, capsys, config_path):
        path = config_path(base_config())
        _, out1, _ = run_cli(capsys, ["simulate", "--config", path, "--seed", "1"])
        _, out2, _ = run_cli(capsys, ["simulate", "--config", path, "--seed", "2"])
        assert json.loads(out1)["fidelity_estimate"] != json.loads(out2)["fidelity_estimate"]


class TestSweepCommand:
    def test_grid_whose_square_overflows_exits_2(self, capsys, config_path, tmp_path):
        # (1e201)**2 is inf, which sweep.json would hold as Infinity: not JSON.
        raw = dict(base_config(), noise={"kind": "alpha_stable", "alpha": 1.0},
                   sweep={"bounds": [1.0, 1e201], "count": 3, "runs": 1, "trials": 10})
        path = config_path(raw)
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, ["sweep", "--config", path, "--out", str(out_dir)])
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.startswith("config error: scales reach 1e+201") and "scale_squared" in err
        assert not out_dir.exists()
        code, out, err = run_cli(capsys, ["optimum", "--config", path])
        assert (code, err) == (EXIT_OK, "")
        assert 1.0 <= json.loads(out)["scale_opt"] <= 1e201

    def test_writes_csv_json_svg(self, capsys, config_path, tmp_path):
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(capsys, ["sweep", "--config", config_path(base_config()),
                                        "--out", str(out_dir)])
        assert code == EXIT_OK
        paths = json.loads(out)
        csv_text = (out_dir / "sweep.csv").read_text()
        assert csv_text.splitlines()[0] == "scale,scale_squared,analytic_f,mc_mean,mc_min,mc_max,mc_smoothed"
        assert len(csv_text.splitlines()) == 6
        payload = json.loads((out_dir / "sweep.json").read_text())
        assert len(payload["rows"]) == 5
        assert paths["svg"].endswith("sweep.svg")

    def test_sweep_json_config_round_trips(self, capsys, config_path, tmp_path):
        out_dir = tmp_path / "out"
        run_cli(capsys, ["sweep", "--config", config_path(base_config()), "--out", str(out_dir)])
        payload = json.loads((out_dir / "sweep.json").read_text())
        cfg = parse_run_config(payload["config"])
        assert cfg.runs == 2 and cfg.trials == 300
        assert len(payload["config_sha256"]) == 64

    def test_no_svg_flag(self, capsys, config_path, tmp_path):
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(capsys, ["sweep", "--config", config_path(base_config()),
                                        "--out", str(out_dir), "--no-svg"])
        assert code == EXIT_OK
        assert json.loads(out)["svg"] is None
        assert not (out_dir / "sweep.svg").exists()

    def test_sweep_json_records_the_versions(self, capsys, config_path, tmp_path):
        # Provenance rides next to the config hash; reruns stay byte-identical.
        path = config_path(base_config())
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        run_cli(capsys, ["sweep", "--config", path, "--out", str(a_dir)])
        run_cli(capsys, ["sweep", "--config", path, "--out", str(b_dir)])
        payload = json.loads((a_dir / "sweep.json").read_text())
        assert payload["teleport_sr_version"] == teleport_sr.__version__
        assert payload["numpy_version"] == np.__version__
        for name in ("sweep.csv", "sweep.json", "sweep.svg"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_single_trial_rerun_is_byte_identical(self, capsys, config_path, tmp_path):
        raw = base_config()
        raw["sweep"].update(runs=1, trials=1)
        path = config_path(raw)
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        run_cli(capsys, ["sweep", "--config", path, "--out", str(a_dir)])
        run_cli(capsys, ["sweep", "--config", path, "--out", str(b_dir)])
        for name in ("sweep.csv", "sweep.json", "sweep.svg"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_worker_count_does_not_change_output(self, capsys, config_path, tmp_path, monkeypatch):
        path = config_path(base_config())
        outputs = {}
        for workers in ("1", "8"):
            monkeypatch.setenv("TELEPORT_SR_THREADS", workers)
            out_dir = tmp_path / f"w{workers}"
            run_cli(capsys, ["sweep", "--config", path, "--out", str(out_dir)])
            outputs[workers] = (out_dir / "sweep.csv").read_bytes()
        assert outputs["1"] == outputs["8"]

    def test_svg_is_well_formed_with_hash_and_reference_lines(self, capsys, config_path, tmp_path):
        out_dir = tmp_path / "out"
        run_cli(capsys, ["sweep", "--config", config_path(base_config()), "--out", str(out_dir)])
        text = (out_dir / "sweep.svg").read_text()
        root = ET.fromstring(text)  # raises if malformed
        assert root.tag.endswith("svg")
        assert "config-sha256:" in text
        assert "classical limit" in text
        assert "fidelity floor" in text
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 3  # min band, max band, smoothed curve

    def test_unwritable_out_dir_exits_3(self, capsys, config_path, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        code, _, err = run_cli(capsys, ["sweep", "--config", config_path(base_config()),
                                        "--out", str(blocker)])
        assert code == EXIT_IO
        assert "output error" in err

    def test_without_out_writes_into_the_current_directory(self, capsys, config_path, tmp_path,
                                                           monkeypatch):
        path = config_path(base_config())
        run_cli(capsys, ["sweep", "--config", path, "--out", str(tmp_path / "elsewhere")])
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, ["sweep", "--config", path])
        assert code == EXIT_OK
        assert json.loads(out)["csv"] == os.path.join(".", "sweep.csv")
        # The recorded config and its hash describe the computation, not the place.
        for name in ("sweep.csv", "sweep.json", "sweep.svg"):
            assert (tmp_path / name).read_bytes() == (tmp_path / "elsewhere" / name).read_bytes()
        assert "out_dir" not in json.loads((tmp_path / "sweep.json").read_text())["config"]

    def test_stale_temp_file_does_not_block_the_sweep(self, capsys, config_path, tmp_path):
        # A run killed mid-write leaves its temp; a later run may have the same PID.
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        stale = out_dir / f"sweep.csv.{os.getpid()}.tmp"
        stale.write_text("stale")
        code, _, err = run_cli(capsys, ["sweep", "--config", config_path(base_config()),
                                        "--out", str(out_dir)])
        assert (code, err) == (EXIT_OK, "")
        assert stale.read_text() == "stale"
        assert sorted(os.listdir(out_dir)) == sorted(
            ["sweep.csv", "sweep.json", "sweep.svg", stale.name])

    def test_bad_thread_env_is_a_config_error(self, capsys, config_path, monkeypatch):
        monkeypatch.setenv("TELEPORT_SR_THREADS", "many")
        code, _, err = run_cli(capsys, ["sweep", "--config", config_path(base_config())])
        assert code == EXIT_CONFIG
        assert "TELEPORT_SR_THREADS" in err

    def test_zero_threads_is_a_config_error(self, capsys, config_path, monkeypatch, tmp_path):
        monkeypatch.setenv("TELEPORT_SR_THREADS", "0")
        code, _, err = run_cli(capsys, ["sweep", "--config", config_path(base_config()),
                                        "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "TELEPORT_SR_THREADS must be an integer >= 1, got '0'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("raw", ["many", "0", "-2", "1.5", ""])
    def test_bad_thread_env_gives_one_message(self, capsys, config_path, monkeypatch, tmp_path, raw):
        monkeypatch.setenv("TELEPORT_SR_THREADS", raw)
        code, out, err = run_cli(capsys, ["sweep", "--config", config_path(base_config()),
                                          "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == f"config error: TELEPORT_SR_THREADS must be an integer >= 1, got {raw!r}\n"
        assert not (tmp_path / "out").exists()

    def test_outputs_follow_the_umask(self, capsys, config_path, tmp_path):
        out_dir = tmp_path / "out"
        run_cli(capsys, ["sweep", "--config", config_path(base_config()), "--out", str(out_dir)])
        with open(out_dir / "probe", "w"):
            pass
        mode = os.stat(out_dir / "probe").st_mode
        for name in ("sweep.csv", "sweep.json", "sweep.svg"):
            assert os.stat(out_dir / name).st_mode == mode

    def test_failed_rename_leaves_no_temp_file(self, capsys, config_path, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, ["sweep", "--config", config_path(base_config()),
                                        "--out", str(out_dir)])
        assert code == EXIT_IO
        assert "rename refused" in err
        assert os.listdir(out_dir) == []


class TestOptimumCommand:
    def test_gaussian(self, capsys, config_path):
        code, out, _ = run_cli(capsys, ["optimum", "--config", config_path(base_config())])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["scale_opt"] == pytest.approx(1.4448, abs=1e-3)
        assert payload["fidelity_opt"] == pytest.approx(0.6669, abs=1e-3)

    def test_cauchy(self, capsys, config_path):
        raw = base_config()
        raw["noise"] = {"kind": "alpha_stable", "alpha": 1.0, "gamma": 1.0, "location": 0.0}
        _, out, _ = run_cli(capsys, ["optimum", "--config", config_path(raw)])
        payload = json.loads(out)
        assert payload["scale_opt"] == pytest.approx(1.1619, abs=1e-3)
        assert payload["fidelity_opt"] == pytest.approx(0.6206, abs=1e-3)

    def test_monotone_regime_exits_4(self, capsys, config_path):
        raw = base_config()
        raw["noise"]["mean"] = 0.7
        code, out, _ = run_cli(capsys, ["optimum", "--config", config_path(raw)])
        assert code == EXIT_MONOTONE
        payload = json.loads(out)
        assert payload["regime"] == "monotone"
        assert payload["center"] == 0.7
        code, out, err = run_cli(capsys, ["optimum", "--config", config_path(raw),
                                          "--format", "csv"])
        assert (code, err) == (EXIT_MONOTONE, "")
        assert out == 'key,value\nregime,monotone\ncenter,0.7\ninterval,"[0.5,2.7]"\n'

    @pytest.mark.parametrize("scales, bounds", [([0.7], [0.35, 0.7]),
                                                ([0.5, 1.0, 2.0], [0.5, 2.0])],
                             ids=["single-scale", "scale-list"])
    def test_explicit_scales_set_the_searched_interval(self, capsys, config_path, scales,
                                                       bounds):
        # First to last scale, or [s/2, s] for a single scale s.
        raw = base_config()
        raw["sweep"]["scales"] = scales
        assert parse_run_config(raw).bounds == tuple(bounds)
        code, out, err = run_cli(capsys, ["optimum", "--config", config_path(raw)])
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["bounds"] == bounds

    @pytest.mark.parametrize("mean, code, predicted", [(0.0, EXIT_MONOTONE, False),
                                                       (5.0, EXIT_OK, True)])
    def test_suprathreshold_channel_gets_an_answer(self, capsys, config_path, mean, code,
                                                    predicted):
        # The forbidden interval is [-0.4, 3.6]: mean 0 is inside it, mean 5 outside.
        raw = base_config()
        raw["channel"] = {"amplitude": 2.0, "threshold": 1.6, "allow_suprathreshold": True}
        raw["noise"]["mean"] = mean
        path = config_path(raw)
        got, out, err = run_cli(capsys, ["probs", "--config", path])
        assert (got, err) == (EXIT_OK, "")
        assert json.loads(out)["sr_predicted"] is predicted
        got, out, err = run_cli(capsys, ["optimum", "--config", path])
        assert (got, err) == (code, "")
        assert ("scale_opt" in json.loads(out)) is predicted


class TestTheoremCheckCommand:
    def test_default_grid(self, capsys, config_path):
        code, out, _ = run_cli(capsys, ["theorem-check", "--config", config_path(base_config())])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["expected_limit"] == 0.5
        assert payload["within_tolerance"] is True
        assert payload["rows"][-1]["scale"] == 1e-6

    def test_custom_small_scales(self, capsys, config_path):
        raw = base_config()
        raw["noise"]["mean"] = 0.7
        raw["sweep"]["small_scales"] = [0.1, 0.001]
        _, out, _ = run_cli(capsys, ["theorem-check", "--config", config_path(raw)])
        payload = json.loads(out)
        assert payload["expected_limit"] == 1.0
        assert payload["center_inside"] is True
        assert len(payload["rows"]) == 2

    def test_inside_limit_follows_the_werner_weight(self, capsys, config_path):
        raw = base_config()
        raw["noise"] = {"kind": "gaussian", "mean": 1.6, "sigma": 1.0}
        raw["resource"]["werner_f"] = 0.8
        _, out, _ = run_cli(capsys, ["theorem-check", "--config", config_path(raw)])
        payload = json.loads(out)
        assert payload["center_inside"] is True
        assert payload["expected_limit"] == 0.9
        assert payload["within_tolerance"] is True


class TestTheoremKey:
    """Both commands that report the interval name the theorem that covers the noise."""

    @pytest.mark.parametrize("noise,theorem", [
        ({"kind": "gaussian"}, "finite_variance"),
        ({"kind": "uniform"}, "finite_variance"),
        ({"kind": "laplace"}, "finite_variance"),
        ({"kind": "alpha_stable", "alpha": 2.0, "skew": 0.5}, "finite_variance"),
        ({"kind": "alpha_stable", "alpha": 1.0}, "infinite_variance_stable"),
        ({"kind": "alpha_stable", "alpha": 1.5, "skew": 0.5, "cdf_draws": 10_000},
         "infinite_variance_stable"),
    ], ids=["gaussian", "uniform", "laplace", "stable-2", "cauchy", "stable-1.5"])
    @pytest.mark.parametrize("command", ["probs", "theorem-check"])
    def test_theorem_follows_the_variance(self, capsys, config_path, command, noise, theorem):
        raw = base_config()
        raw["noise"] = noise
        code, out, _ = run_cli(capsys, [command, "--config", config_path(raw)])
        assert code == EXIT_OK
        assert json.loads(out)["theorem"] == theorem


@pytest.mark.parametrize("command", ["probs", "optimum", "theorem-check"])
def test_csv_rows_hold_the_json_values(capsys, config_path, command):
    # Lists and objects hold commas and quotes, so their CSV fields are quoted.
    path = config_path(base_config())
    _, out, _ = run_cli(capsys, [command, "--config", path])
    payload = json.loads(out)
    _, out, _ = run_cli(capsys, [command, "--config", path, "--format", "csv"])
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["key", "value"]
    assert all(len(row) == 2 for row in rows)
    assert [key for key, _ in rows[1:]] == list(payload)
    for key, text in rows[1:]:
        value = payload[key]
        assert (text if isinstance(value, str) else json.loads(text)) == value


PRINTING = ["probs", "simulate", "optimum", "theorem-check"]


class TestOptions:
    """One flat parser: options go anywhere, and each command takes only its own."""

    @pytest.mark.parametrize("command", PRINTING)
    def test_printing_options_before_or_after_the_command(self, capsys, config_path, command):
        options = ["--config", config_path(base_config()), "--seed", "3", "--format", "csv"]
        after = run_cli(capsys, [command] + options)
        before = run_cli(capsys, options + [command])
        assert after[0] == EXIT_OK and after[1].startswith("key,value\n")
        assert before == after

    def test_sweep_options_before_or_after_the_command(self, capsys, config_path, tmp_path):
        path = config_path(base_config())
        outputs = []
        for name, argv in (("after", ["sweep", "--config", path, "--seed", "3", "--no-svg"]),
                           ("before", ["--no-svg", "--seed", "3", "--config", path, "sweep"])):
            out_dir = tmp_path / name
            code, out, _ = run_cli(capsys, argv + ["--out", str(out_dir)])
            assert code == EXIT_OK
            assert json.loads(out)["svg"] is None
            assert not (out_dir / "sweep.svg").exists()
            outputs.append([(out_dir / f).read_bytes() for f in ("sweep.csv", "sweep.json")])
        assert outputs[0] == outputs[1]

    # Each case is named by its command and flag, so it keeps its name when
    # another command comes or goes.
    @pytest.mark.parametrize("command,option", [
        *(pytest.param(command, option, id=command + option[0]) for command in PRINTING
          for option in (["--out", "x"], ["--svg"], ["--no-svg"])),
        pytest.param("sweep", ["--format", "csv"], id="sweep--format"),
    ])
    def test_option_of_another_command_exits_2(self, capsys, config_path, tmp_path,
                                               command, option):
        argv = [command, "--config", config_path(base_config())] + option
        if command == "sweep":
            argv += ["--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == EXIT_CONFIG
        assert captured.out == ""
        assert f"error: unrecognized arguments: {' '.join(option)}\n" in captured.err
        assert not (tmp_path / "out").exists()

    def test_help_names_every_command(self, capsys):
        # The help text also names every option, under either flag.
        for flag in ("--help", "-h"):
            with pytest.raises(SystemExit) as exc:
                main([flag])
            assert exc.value.code == EXIT_OK
            out = capsys.readouterr().out
            for name in PRINTING + ["sweep", "--config", "--seed", "--out", "--svg", "--no-svg",
                                    "--format"]:
                assert name in out

    # Each line is malformed, so it exits 2 before the config is read; "--conf"
    # is refused as an abbreviation.
    @pytest.mark.parametrize("argv", [
        pytest.param(["--config", "{config}"], id="no-command"),
        pytest.param(["probs"], id="no-config"),
        pytest.param(["weights", "--config", "{config}"], id="unknown-command"),
        pytest.param(["probs", "optimum", "--config", "{config}"], id="second-command"),
        pytest.param(["probs", "--config"], id="option-without-value"),
        pytest.param(["probs", "--config", "--seed", "3"], id="option-before-option"),
        pytest.param(["probs", "--config", "{config}", "--seed", "x"], id="seed-not-int"),
        pytest.param(["probs", "--config", "{config}", "--format", "xml"], id="format-xml"),
        pytest.param(["probs", "--conf", "{config}"], id="abbreviation"),
    ])
    def test_malformed_line_exits_2(self, capsys, config_path, argv):
        path = config_path(base_config())
        with pytest.raises(SystemExit) as exc:
            main([arg.format(config=path) for arg in argv])
        captured = capsys.readouterr()
        assert exc.value.code == EXIT_CONFIG
        assert captured.out == ""
        assert "teleport-sr: error: " in captured.err

    def test_equals_form_prints_the_same_bytes(self, capsys, config_path):
        path = config_path(base_config())
        spaced = run_cli(capsys, ["simulate", "--config", path, "--seed", "3"])
        joined = run_cli(capsys, ["simulate", f"--config={path}", "--seed=3"])
        assert spaced[0] == EXIT_OK
        assert joined == spaced


# Runs each argv list through ``main`` in a fresh interpreter and prints the
# exit codes and the modules loaded beyond what a bare interpreter holds.
FOOTPRINT = """
import sys
bare = set(sys.modules)
import contextlib, io, json
from teleport_sr.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps({"codes": codes, "loaded": sorted(set(sys.modules) - bare)}))
"""

# Modules the closed-form commands must not load: OpenSSL's hasher, the thread
# pool and numpy's random module, which only the Monte Carlo commands need, and
# ElementTree, which no command loads any more: sweep writes its SVG as text.
MONTE_CARLO_ONLY = {"_hashlib", "xml.etree.ElementTree", "concurrent.futures", "numpy.random"}


def footprint(runs, threads: str = "1") -> dict:
    package_root = os.path.dirname(os.path.dirname(teleport_sr.__file__))
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT, json.dumps(runs)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": package_root,
                               "TELEPORT_SR_THREADS": threads})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestImportFootprint:
    """The closed-form commands load nothing that only the sweep uses."""

    def test_closed_form_commands_skip_the_sweep_only_modules(self, config_path):
        stable = base_config()
        stable["noise"] = {"kind": "alpha_stable", "alpha": 1.5, "skew": 0.5}
        paths = [config_path(base_config(), "gaussian.json"), config_path(stable, "stable.json")]
        runs = [[command, "--config", path, "--format", fmt]
                for command in ("probs", "optimum", "theorem-check")
                for path in paths for fmt in ("json", "csv")]
        result = footprint(runs)
        assert result["codes"] == [EXIT_OK] * len(runs)
        assert MONTE_CARLO_ONLY.isdisjoint(result["loaded"])

    def sweep_footprint(self, config_path, tmp_path, threads: str) -> list:
        raw = base_config()
        raw["sweep"].update(runs=1, trials=10)
        result = footprint([["sweep", "--config", config_path(raw),
                             "--out", str(tmp_path / "out")]], threads)
        assert result["codes"] == [EXIT_OK]
        assert "xml.etree.ElementTree" not in result["loaded"]
        return result["loaded"]

    def test_sweep_loads_the_pool_and_the_hasher(self, config_path, tmp_path):
        loaded = self.sweep_footprint(config_path, tmp_path, "2")
        assert {"concurrent.futures", "_hashlib"} <= set(loaded)

    def test_one_worker_sweep_loads_the_hasher_but_no_pool(self, config_path, tmp_path):
        # Its cells are one block each, so nothing here runs off the calling thread.
        loaded = self.sweep_footprint(config_path, tmp_path, "1")
        assert "_hashlib" in loaded
        assert "concurrent.futures" not in loaded

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_no_command_loads_argparse(self, config_path, tmp_path, threads):
        # The command line is parsed by hand: argparse imports gettext, and
        # building its parser imports locale.
        raw = base_config()
        raw["sweep"].update(runs=1, trials=10)
        path = config_path(raw)
        runs = [[command, "--config", path] for command in PRINTING]
        runs.append(["sweep", "--config", path, "--out", str(tmp_path / "out")])
        result = footprint(runs, threads)
        assert result["codes"] == [EXIT_OK] * len(runs)
        assert {"argparse", "gettext", "locale"}.isdisjoint(result["loaded"])

    @pytest.mark.parametrize("trials", [analysis._BLOCK, analysis._BLOCK + 1,
                                        2 * analysis._BLOCK])
    def test_simulate_loads_the_pool_past_one_block(self, config_path, trials):
        # A call runs one thread per full block, up to the usable CPUs: a
        # partial second block runs inline, after the first.
        raw = base_config()
        raw["sweep"]["trials"] = trials
        result = footprint([["simulate", "--config", config_path(raw)]])
        assert result["codes"] == [EXIT_OK]
        pooled = trials >= 2 * analysis._BLOCK and analysis._cpu_count() > 1
        assert ("concurrent.futures" in result["loaded"]) == pooled


class TestExitCodeTable:
    """``main`` alone prints: a handler returns its mapping or raises, and
    ``main`` picks the stream, the message and the exit code."""

    @pytest.fixture
    def probs_raises(self, monkeypatch):
        def install(exc):
            def cmd_probs(cfg, args):
                raise exc
            monkeypatch.setitem(cli._COMMANDS, "probs", cmd_probs)
        return install

    @pytest.mark.parametrize("exc, code, err", [
        (ValueError("bad value"), EXIT_CONFIG, "config error: bad value\n"),
        (OSError("disk full"), EXIT_IO, "output error: disk full\n"),
        (PermissionError(13, "Permission denied"), EXIT_IO,
         "output error: [Errno 13] Permission denied\n"),
    ], ids=["value-error", "os-error", "permission-error"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_errors_go_to_stderr(self, capsys, config_path, probs_raises, exc, code, err, fmt):
        probs_raises(exc)
        argv = ["probs", "--config", config_path(base_config()), "--format", fmt]
        assert run_cli(capsys, argv) == (code, "", err)

    @pytest.mark.parametrize("fmt, out", [
        ("json", '{"regime":"monotone","center":1.0,"interval":[0.5,2.7]}\n'),
        ("csv", 'key,value\nregime,monotone\ncenter,1.0\ninterval,"[0.5,2.7]"\n'),
    ], ids=["json", "csv"])
    def test_monotone_regime_goes_to_stdout(self, capsys, config_path, probs_raises, fmt, out):
        probs_raises(MonotoneRegimeError(1.0, Interval(0.5, 2.7)))
        argv = ["probs", "--config", config_path(base_config()), "--format", fmt]
        assert run_cli(capsys, argv) == (EXIT_MONOTONE, out, "")

    def test_returned_mapping_is_printed(self, capsys, config_path, monkeypatch):
        monkeypatch.setitem(cli._COMMANDS, "probs", lambda cfg, args: {"a": [1, 2], "b": "x"})
        path = config_path(base_config())
        assert run_cli(capsys, ["probs", "--config", path]) == (
            EXIT_OK, '{"a":[1,2],"b":"x"}\n', "")
        assert run_cli(capsys, ["probs", "--config", path, "--format", "csv"]) == (
            EXIT_OK, 'key,value\na,"[1,2]"\nb,x\n', "")

    @pytest.mark.parametrize("command, fmt", [("probs", "json"), ("probs", "csv"),
                                              ("sweep", None)])
    def test_broken_stdout_is_an_output_error(self, capsys, config_path, monkeypatch, tmp_path,
                                              command, fmt):
        class BrokenPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", BrokenPipe())
        argv = [command, "--config", config_path(base_config())]
        argv += ["--out", str(tmp_path)] if fmt is None else ["--format", fmt]
        assert main(argv) == EXIT_IO
        assert capsys.readouterr().err == "output error: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_handlers_return_a_mapping_and_print_nothing(self, capsys, tmp_path, command):
        cfg = parse_run_config(base_config())
        args = argparse.Namespace(command=command, config=None, seed=None, out=str(tmp_path),
                                  svg=True, format="csv")
        mapping = cli._COMMANDS[command](cfg, args)
        assert capsys.readouterr() == ("", "")
        assert isinstance(mapping, dict) and mapping
        assert json.loads(json.dumps(mapping)) == mapping


class TestTopLevelErrors:
    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["probs", "--config", str(tmp_path / "absent.json")])
        assert code == EXIT_CONFIG
        assert "cannot read" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, ["probs", "--config", str(path)])
        assert code == EXIT_CONFIG

    def test_config_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{}")
        code, _, err = run_cli(capsys, ["probs", "--config", str(path)])
        assert code == EXIT_CONFIG
        assert "cannot read" in err

    @pytest.mark.parametrize("path, literal, field", [
        (("noise", "mean"), "NaN", "'mean'"),
        (("channel", "threshold"), "Infinity", "channel.threshold"),
        (("channel", "threshold"), "1e999", "channel.threshold"),
        (("channel", "threshold"), "1" + "0" * 400, "channel.threshold"),
        (("channel", "threshold"), "true", "channel.threshold"),
        (("channel", "amplitude"), '"1.1"', "channel.amplitude"),
        (("resource", "werner_f"), '"0.5"', "resource.werner_f"),
        (("state",), '{"alpha": NaN, "beta": 1}', "state.alpha"),
        (("sweep", "scales"), "[NaN]", "sweep.scales"),
        (("noise",), '{"kind": "alpha_stable"}', "missing key 'alpha'"),
        (("channel",), "5", "channel must be an object"),
        (("channel", "gain"), "2", "unknown channel keys: ['gain']"),
        (("noise", "kind"), '"levy"', "unknown noise kind 'levy'"),
        (("noise", "kind"), '["gaussian"]', "unknown noise kind ['gaussian']"),
        (("channel", "allow_suprathreshold"), '"no"', "channel.allow_suprathreshold"),
        (("sweep", "count"), "5", "not both"),
        (("state",), '{"alpha": 1, "beta": 0, "normalize": 1}', "state.normalize"),
        (("sweep", "scales"), "0.5", "sweep.scales"),
        (("sweep",), '{"bounds": [0.5, 1.0, 2.0]}', "sweep.bounds"),
        (("sweep", "window"), "4", "sweep.window"),
        (("out_dir",), "7", "unknown config keys: ['out_dir']"),
    ], ids=["nan-mean", "inf-threshold", "1e999-threshold", "huge-int-threshold",
            "bool-threshold", "string-amplitude", "string-werner-f", "nan-alpha",
            "nan-scale", "missing-stable-alpha", "non-object-channel", "unknown-channel-key",
            "unknown-noise-kind", "list-noise-kind", "string-allow-suprathreshold",
            "count-next-to-scales", "int-normalize", "number-scales", "three-bounds",
            "even-window", "number-out-dir"])
    def test_non_finite_or_mistyped_number_exits_2(self, capsys, tmp_path, path, literal, field):
        raw = base_config()
        holder = raw
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = "@BAD@"
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw).replace('"@BAD@"', literal))
        code, out, err = run_cli(capsys, ["optimum", "--config", str(config)])
        assert code == EXIT_CONFIG
        assert out == ""
        assert field in err

    @pytest.mark.parametrize("command, noise, sweep, where", [
        *((command, noise, {}, where) for command in ("probs", "simulate", "sweep", "optimum")
          for noise, where in OVERFLOWING),
        # Bounds that reach such a scale, in the sweep grid or the optimum scan.
        *((command, {"kind": "gaussian"}, {"bounds": [1.0, 1e201], "count": 3}, "gaussian sigma")
          for command in ("sweep", "optimum")),
    ])
    def test_scale_that_overflows_the_sampler_exits_2(self, capsys, config_path, tmp_path,
                                                      command, noise, sweep, where):
        # Only a stable map that overflows a float, and a sweep grid whose
        # scale_squared column would, still exit 2.  Gaussian and uniform
        # noise at these scales answer with their limits: the trial path
        # compares standard draws with standardized cuts, and never
        # multiplies a draw by the scale.
        raw = dict(base_config(), noise=noise, sweep=dict(sweep, runs=1, trials=10))
        argv = [command, "--config", config_path(raw)]
        code, out, err = run_cli(capsys, argv + (["--out", str(tmp_path / "out")]
                                                 if command == "sweep" else []))
        if noise["kind"] == "alpha_stable":
            assert (code, out) == (EXIT_CONFIG, "")
            assert err.startswith(f"config error: {where}") and "overflows a float" in err
            return
        if command == "sweep" and "bounds" in sweep:
            # 1e201 squared overflows: the sweep.json column would read Infinity.
            assert (code, out) == (EXIT_CONFIG, "")
            assert "scale_squared overflows a float" in err
            assert not (tmp_path / "out").exists()
            return
        assert (code, err) == (EXIT_OK, "")
        # A uniform model centered at 1e308 and every Gaussian at sigma >= 1e200
        # leave the detections independent of the bit: P = 0, fidelity 1/2.
        flat = noise["kind"] == "uniform"
        if command == "probs":
            p = json.loads(out)
            assert p["p00"] == p["p01"] == (0.0 if noise["kind"] == "uniform" else 0.5)
        elif command == "simulate":
            assert json.loads(out)["analytic_fidelity"] == 0.5
        elif command == "sweep":
            rows = json.loads((tmp_path / "out" / "sweep.json").read_text())["rows"]
            assert (max(row["analytic_f"] for row in rows) == 0.5) == flat
        else:
            _, reference, _ = run_cli(capsys, ["optimum", "--config",
                                               config_path(base_config(), "reference.json")])
            want = 0.5 if noise["kind"] == "uniform" else json.loads(reference)["fidelity_opt"]
            assert json.loads(out)["fidelity_opt"] == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("command, noise, want", [
        # The map's scale gamma**2 = 1e300 is finite; the trial path never
        # multiplies a draw by it, so none of the 4 * 10^4 draws overflows.
        ("simulate", {"alpha": 0.5, "gamma": 1e150}, EXIT_OK),
        # The cuts standardize to ~1e213, past float32: compared in float64,
        # every table value lies below them.
        ("probs", {"alpha": 1.5, "skew": 0.5, "gamma": 1e-320}, EXIT_OK),
        # gamma**2 underflows to a zero scale.
        ("probs", {"alpha": 0.5, "gamma": 1e-200}, EXIT_CONFIG),
    ], ids=["huge-scale", "scale-past-float32", "scale-underflows"])
    def test_stable_map_at_the_float_edges(self, capsys, config_path, command, noise, want):
        raw = base_config()
        raw.update(noise=dict(noise, kind="alpha_stable"), sweep={"trials": 20_000})
        code, out, err = run_cli(capsys, [command, "--config", config_path(raw)])
        assert code == want
        if want == EXIT_CONFIG:
            assert out == "" and err.startswith("config error: alpha_stable gamma")
        elif command == "simulate":
            assert err == "" and 0.0 <= json.loads(out)["fidelity_estimate"] <= 1.0
        else:
            p = json.loads(out)
            assert err == "" and p["p00"] == p["p01"] == 1.0

    @pytest.mark.parametrize("command", ["probs", "theorem-check", "optimum"])
    @pytest.mark.parametrize("section, value, message", [
        ("noise", {"kind": "alpha_stable", "alpha": 1.5, "skew": 0.5, "cdf_draws": 10**12},
         "cdf_draws must be at most 3863124311"),
        ("channel", {"amplitude": 1e308, "threshold": 1.7e308},
         "channel threshold 1.7e+308 +- amplitude 1e+308 overflows a float"),
        ("state", {"alpha": [1e200, 0], "beta": 0}, "state is not normalized"),
        ("state", {"alpha": [1.7e308, 1.7e308], "beta": 0},
         "state.alpha has a modulus too large for a float"),
        ("state", {"alpha": [1.7e308, 1.7e308], "beta": 0, "normalize": True},
         "state.alpha has a modulus too large for a float"),
        ("sweep", {"count": 10**21}, "sweep.count 1000000000000000000000 is too large"),
    ], ids=["cdf-draws-past-int64", "interval-overflows", "square-overflows",
            "modulus-overflows", "modulus-overflows-normalize", "count-past-numpy-size"])
    def test_value_past_int64_or_a_float_exits_2(self, capsys, config_path, command, section,
                                                 value, message):
        # A table index product past int64, a forbidden interval whose end
        # reads Infinity, an amplitude whose square or modulus overflows and
        # a grid longer than numpy's largest array are config errors, not
        # tracebacks or non-JSON output.
        raw = dict(base_config(), **{section: value})
        code, out, err = run_cli(capsys, [command, "--config", config_path(raw)])
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.startswith(f"config error: {message}")

    def test_count_whose_grid_memory_cannot_hold_exits_2(self, capsys, config_path,
                                                         monkeypatch):
        # Raised, not allocated: where memory is overcommitted, a request
        # for 10^12 grid values can succeed.
        def out_of_memory(*args):
            raise MemoryError
        monkeypatch.setattr(cli, "default_scale_grid", out_of_memory)
        raw = dict(base_config(), sweep={"count": 10**12})
        code, out, err = run_cli(capsys, ["probs", "--config", config_path(raw)])
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.startswith("config error: sweep.count 1000000000000 is too large")

    def test_negative_seed_flag(self, capsys, config_path):
        code, _, err = run_cli(capsys, ["probs", "--config", config_path(base_config()),
                                        "--seed", "-1"])
        assert code == EXIT_CONFIG
        assert "seed" in err


def test_module_entry_point(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_config()))
    # Run from the directory that holds the imported package, so the child
    # finds it whether it was installed or put on the path by pytest.
    package_root = os.path.dirname(os.path.dirname(teleport_sr.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "teleport_sr", "probs", "--config", str(path)],
        capture_output=True, text=True, cwd=package_root,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["qx"] == pytest.approx(1.0, abs=1e-12)
