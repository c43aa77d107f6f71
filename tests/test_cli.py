"""Command-line front-end tests.

Commands run in-process through ``main``; file outputs land in pytest tmp
directories.  Determinism contracts are byte-level.
"""

import json
import math
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from teleport_sr.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_MONOTONE,
    EXIT_OK,
    ConfigError,
    config_to_json,
    main,
    parse_run_config,
)
from teleport_sr.noise import Gaussian


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
        assert cfg.seed == 0 and cfg.out_dir == "."

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
        with pytest.raises(ConfigError, match="not normalized"):
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
            with pytest.raises(ConfigError, match="unknown"):
                parse_run_config(raw)

    def test_rejects_scales_plus_bounds(self):
        raw = base_config()
        raw["sweep"]["bounds"] = [0.1, 2.0]
        with pytest.raises(ConfigError, match="not both"):
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
        with pytest.raises(ConfigError, match="seed"):
            parse_run_config(raw)

    def test_missing_sections(self):
        with pytest.raises(ConfigError, match="missing required key"):
            parse_run_config({"state": "plus", "channel": {"amplitude": 1, "threshold": 2}})


class TestWeightsCommand:
    def test_plus_preset(self, capsys, config_path):
        code, out, _ = run_cli(capsys, ["weights", "--config", config_path(base_config())])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["qx"] == pytest.approx(1.0, abs=1e-12)
        assert payload["qz"] == pytest.approx(0.0, abs=1e-12)
        assert payload["qxz"] == pytest.approx(0.0, abs=1e-12)

    def test_zero_preset_is_exact(self, capsys, config_path):
        raw = base_config()
        raw["state"] = "zero"
        code, out, _ = run_cli(capsys, ["weights", "--config", config_path(raw)])
        assert code == EXIT_OK
        assert json.loads(out) == {"qx": 0.0, "qz": 1.0, "qxz": 0.0}

    def test_real_amplitudes(self, capsys, config_path):
        raw = base_config()
        raw["state"] = {"alpha": 0.6, "beta": 0.8}
        code, out, _ = run_cli(capsys, ["weights", "--config", config_path(raw)])
        payload = json.loads(out)
        assert payload["qx"] == pytest.approx(0.9216, abs=1e-12)
        assert payload["qz"] == pytest.approx(0.0784, abs=1e-12)

    def test_csv_format(self, capsys, config_path):
        raw = base_config()
        raw["state"] = "zero"
        code, out, _ = run_cli(capsys, ["weights", "--format", "csv",
                                        "--config", config_path(raw)])
        assert code == EXIT_OK
        assert out.splitlines()[0] == "key,value"
        assert "qz,1.0" in out.splitlines()

    def test_invalid_config_exits_2_with_diagnostic(self, capsys, config_path):
        raw = base_config()
        raw["state"] = {"alpha": 0.6, "beta": 0.7}
        code, _, err = run_cli(capsys, ["weights", "--config", config_path(raw)])
        assert code == EXIT_CONFIG
        assert "not normalized" in err


class TestCheckIntervalCommand:
    def test_center_outside(self, capsys, config_path):
        code, out, _ = run_cli(capsys, ["check-interval", "--config", config_path(base_config())])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["interval"] == pytest.approx([0.5, 2.7])
        assert payload["center"] == 0.0
        assert payload["sr_predicted"] is True

    def test_center_inside(self, capsys, config_path):
        raw = base_config()
        raw["noise"]["mean"] = 0.7
        _, out, _ = run_cli(capsys, ["check-interval", "--config", config_path(raw)])
        assert json.loads(out)["sr_predicted"] is False

    def test_cauchy_on_upper_endpoint(self, capsys, config_path):
        raw = base_config()
        raw["noise"] = {"kind": "alpha_stable", "alpha": 1.0, "gamma": 1.0, "location": 2.7}
        _, out, _ = run_cli(capsys, ["check-interval", "--config", config_path(raw)])
        payload = json.loads(out)
        assert payload["center"] == 2.7
        assert payload["sr_predicted"] is True


class TestProbsCommand:
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

    def test_bad_thread_env_is_a_config_error(self, capsys, config_path, monkeypatch):
        monkeypatch.setenv("TELEPORT_SR_THREADS", "many")
        code, _, err = run_cli(capsys, ["sweep", "--config", config_path(base_config())])
        assert code == EXIT_CONFIG
        assert "TELEPORT_SR_THREADS" in err


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


class TestTopLevelErrors:
    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["weights", "--config", str(tmp_path / "absent.json")])
        assert code == EXIT_CONFIG
        assert "cannot read" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, ["weights", "--config", str(path)])
        assert code == EXIT_CONFIG

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
    ], ids=["nan-mean", "inf-threshold", "1e999-threshold", "huge-int-threshold",
            "bool-threshold", "string-amplitude", "string-werner-f", "nan-alpha",
            "nan-scale"])
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

    def test_negative_seed_flag(self, capsys, config_path):
        code, _, err = run_cli(capsys, ["weights", "--config", config_path(base_config()),
                                        "--seed", "-1"])
        assert code == EXIT_CONFIG
        assert "seed" in err


def test_module_entry_point(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_config()))
    proc = subprocess.run(
        [sys.executable, "-m", "teleport_sr", "weights", "--config", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["qx"] == pytest.approx(1.0, abs=1e-12)
