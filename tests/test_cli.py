"""Command-line front-end tests.

Commands run in-process through ``main``; file outputs land in pytest tmp
directories.  Determinism contracts are byte-level.
"""

import csv
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, strategies as st

import teleport_sr
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
    """Both interval commands name the theorem that covers the noise."""

    @pytest.mark.parametrize("noise,theorem", [
        ({"kind": "gaussian"}, "finite_variance"),
        ({"kind": "uniform"}, "finite_variance"),
        ({"kind": "laplace"}, "finite_variance"),
        ({"kind": "alpha_stable", "alpha": 2.0, "skew": 0.5}, "finite_variance"),
        ({"kind": "alpha_stable", "alpha": 1.0}, "infinite_variance_stable"),
        ({"kind": "alpha_stable", "alpha": 1.5, "skew": 0.5, "cdf_draws": 10_000},
         "infinite_variance_stable"),
    ], ids=["gaussian", "uniform", "laplace", "stable-2", "cauchy", "stable-1.5"])
    @pytest.mark.parametrize("command", ["check-interval", "theorem-check"])
    def test_theorem_follows_the_variance(self, capsys, config_path, command, noise, theorem):
        raw = base_config()
        raw["noise"] = noise
        code, out, _ = run_cli(capsys, [command, "--config", config_path(raw)])
        assert code == EXIT_OK
        assert json.loads(out)["theorem"] == theorem


@pytest.mark.parametrize("command", ["check-interval", "optimum", "theorem-check"])
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


PRINTING = ["weights", "check-interval", "probs", "simulate", "optimum", "theorem-check"]


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

    @pytest.mark.parametrize("command,option", [
        *((command, option) for command in PRINTING
          for option in (["--out", "x"], ["--svg"], ["--no-svg"])),
        ("sweep", ["--format", "csv"]),
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
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == EXIT_OK
        out = capsys.readouterr().out
        for command in PRINTING + ["sweep"]:
            assert command in out

    def test_import_builds_no_parser(self):
        # The parser is built on the first call of main, so importing the
        # module does not pay for it.
        code = "import teleport_sr.cli as cli; print(cli._parser.cache_info().currsize)"
        package_root = os.path.dirname(os.path.dirname(teleport_sr.__file__))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              cwd=package_root)
        assert proc.returncode == 0
        assert proc.stdout == "0\n"


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

    def test_config_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{}")
        code, _, err = run_cli(capsys, ["weights", "--config", str(path)])
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
        (("out_dir",), "7", "out_dir"),
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

    def test_negative_seed_flag(self, capsys, config_path):
        code, _, err = run_cli(capsys, ["weights", "--config", config_path(base_config()),
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
        [sys.executable, "-m", "teleport_sr", "weights", "--config", str(path)],
        capture_output=True, text=True, cwd=package_root,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["qx"] == pytest.approx(1.0, abs=1e-12)
