"""Golden test: the exact stdout of the printing CLI commands on nine configs.

Every config is the reference channel (amplitude 1.1, threshold 1.6) with the
``i-plus`` state, Werner weight 0.9 and seed 7; only the noise differs.  The
test pins, byte for byte:

- ``probs``, ``simulate`` and ``theorem-check`` in json for all nine
  configs, and in csv for two;
- in the same cases, the ``weights`` and ``check-interval`` sections of
  ``probs``: the keys those two removed commands printed, which must still
  print the bytes the commands did;
- ``optimum`` for the six configs whose CDF has a closed form.  On a table
  CDF the optimum is the argmax over the table's steps, which a last-ulp
  change in numpy's float32 ``tan`` or ``pow`` can move;
- the ``sweep.csv``, ``sweep.svg`` and ``sweep.json`` that ``sweep`` writes on
  BASE's grid for three configs.  ``sweep.json`` records the numpy version:
  the test checks it against the running numpy, then pins the file with a
  placeholder in its place.  ``sweep``'s stdout names its temporary output
  paths, so it is not pinned.

The expected output is ``golden_stdout.json`` and ``golden_sweep.json`` next
to this file.  Regenerate both with

    PYTHONPATH=src python tests/test_golden.py

A change that alters that file must say in CHANGES.md which outputs moved
and why.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from teleport_sr.cli import main

GOLDEN = Path(__file__).with_name("golden_stdout.json")
GOLDEN_SWEEP = Path(__file__).with_name("golden_sweep.json")

BASE = {
    "state": "i-plus",
    "channel": {"amplitude": 1.1, "threshold": 1.6},
    "resource": {"werner_f": 0.9},
    "sweep": {"bounds": [0.1, 3.0], "count": 12, "runs": 5, "trials": 20_000},
    "seed": 7,
}
NOISES = {
    "gaussian": {"kind": "gaussian", "mean": 0.0, "sigma": 1.42},
    "gaussian-shifted": {"kind": "gaussian", "mean": -0.7, "sigma": 0.9},
    "uniform": {"kind": "uniform", "mean": -0.3, "half_width": 1.7},
    "laplace": {"kind": "laplace", "mean": 0.2, "diversity": 0.8},
    "cauchy": {"kind": "alpha_stable", "alpha": 1.0, "gamma": 1.11},
    "stable-1.5": {"kind": "alpha_stable", "alpha": 1.5, "skew": 0.5, "location": 0.2},
    "stable-1-skewed": {"kind": "alpha_stable", "alpha": 1.0, "skew": 0.5, "gamma": 0.8},
    "stable-0.5": {"kind": "alpha_stable", "alpha": 0.5, "skew": -0.3, "gamma": 0.6},
    "stable-2": {"kind": "alpha_stable", "alpha": 2.0, "gamma": 0.7, "location": -0.1},
}
TABLE_CDF = {"stable-1.5", "stable-1-skewed", "stable-0.5"}
COMMANDS = ("probs", "simulate", "theorem-check")
# The keys of ``probs`` that the ``weights`` and ``check-interval`` commands
# printed before ``probs`` took them over, pinned as those commands' stdout.
SECTIONS = {
    "weights": ("qx", "qz", "qxz"),
    "check-interval": ("interval", "center", "regime", "sr_predicted", "theorem"),
}
CSV_CONFIGS = ("gaussian", "stable-1.5")
SWEEP_CONFIGS = ("gaussian", "cauchy", "stable-1.5")
SWEEP_FILES = ("sweep.csv", "sweep.svg", "sweep.json")
NUMPY_VERSION = '"numpy_version": "<numpy>"'

CASES = [
    *((command, name, "json") for name in NOISES for command in (*SECTIONS, *COMMANDS)),
    *((command, name, "csv") for name in CSV_CONFIGS for command in (*SECTIONS, *COMMANDS)),
    *(("optimum", name, "json") for name in NOISES if name not in TABLE_CDF),
]


def case_id(command, name, fmt):
    return f"{command} {name} {fmt}"


def section(out: str, fmt: str, keys) -> str:
    """The stdout ``out`` of ``probs`` cut down to ``keys``, in ``probs``'s order."""
    if fmt == "json":
        payload = json.loads(out)
        return json.dumps({key: payload[key] for key in payload if key in keys},
                          separators=(",", ":")) + "\n"
    header, *rows = out.splitlines(keepends=True)
    return header + "".join(row for row in rows if row.split(",", 1)[0] in keys)


def call(argv) -> str:
    """The stdout of ``main(argv)``, which must exit 0 and print nothing to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (0, "")
    return out.getvalue()


def write_config(name, directory: Path) -> str:
    path = directory / f"{name}.json"
    path.write_text(json.dumps(dict(BASE, noise=NOISES[name])))
    return str(path)


def run(command, name, fmt, directory: Path) -> str:
    """The stdout of one command (or section)."""
    out = call(["probs" if command in SECTIONS else command,
                "--config", write_config(name, directory), "--format", fmt])
    if command in SECTIONS:
        return section(out, fmt, SECTIONS[command])
    return out


def run_sweep(name, directory: Path) -> dict:
    """The text of each file ``sweep`` writes for one config, with the numpy
    version in ``sweep.json`` checked and then replaced by ``NUMPY_VERSION``."""
    out_dir = directory / f"{name}-sweep"
    call(["sweep", "--config", write_config(name, directory), "--out", str(out_dir)])
    files = {file: (out_dir / file).read_text(encoding="utf-8") for file in SWEEP_FILES}
    recorded = f'"numpy_version": {json.dumps(np.__version__)}'
    assert files["sweep.json"].count(recorded) == 1
    files["sweep.json"] = files["sweep.json"].replace(recorded, NUMPY_VERSION)
    return files


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def golden_sweep():
    return json.loads(GOLDEN_SWEEP.read_text())


def test_golden_file_covers_every_case(golden, golden_sweep):
    assert sorted(golden) == sorted(case_id(*case) for case in CASES)
    assert sorted(golden_sweep) == sorted(SWEEP_CONFIGS)


@pytest.mark.parametrize("command, name, fmt", CASES, ids=[case_id(*c) for c in CASES])
def test_stdout_is_golden(golden, tmp_path, command, name, fmt):
    assert run(command, name, fmt, tmp_path) == golden[case_id(command, name, fmt)]


@pytest.mark.parametrize("name", SWEEP_CONFIGS)
def test_sweep_files_are_golden(golden_sweep, tmp_path, name):
    files = run_sweep(name, tmp_path)
    for file in SWEEP_FILES:
        assert files[file] == golden_sweep[name][file], file


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as directory:
        outputs = {case_id(*case): run(*case, Path(directory)) for case in CASES}
        sweeps = {name: run_sweep(name, Path(directory)) for name in SWEEP_CONFIGS}
    for path, golden in ((GOLDEN, outputs), (GOLDEN_SWEEP, sweeps)):
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(golden)} outputs to {path}")


if __name__ == "__main__":
    regenerate()
