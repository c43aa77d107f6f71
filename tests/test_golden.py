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
  change in numpy's float32 ``tan`` or ``pow`` can move.

The expected output is ``golden_stdout.json`` next to this file.  Regenerate
it with

    PYTHONPATH=src python tests/test_golden.py

A change that alters that file must say in CHANGES.md which outputs moved
and why.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from teleport_sr.cli import main

GOLDEN = Path(__file__).with_name("golden_stdout.json")

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


def run(command, name, fmt, directory: Path) -> str:
    """The stdout of one command (or section), which must exit 0 and print
    nothing to stderr."""
    path = directory / f"{name}.json"
    path.write_text(json.dumps(dict(BASE, noise=NOISES[name])))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["probs" if command in SECTIONS else command,
                     "--config", str(path), "--format", fmt])
    assert (code, err.getvalue()) == (0, "")
    if command in SECTIONS:
        return section(out.getvalue(), fmt, SECTIONS[command])
    return out.getvalue()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(case_id(*case) for case in CASES)


@pytest.mark.parametrize("command, name, fmt", CASES, ids=[case_id(*c) for c in CASES])
def test_stdout_is_golden(golden, tmp_path, command, name, fmt):
    assert run(command, name, fmt, tmp_path) == golden[case_id(command, name, fmt)]


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as directory:
        outputs = {case_id(*case): run(*case, Path(directory)) for case in CASES}
    GOLDEN.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(outputs)} outputs to {GOLDEN}")


if __name__ == "__main__":
    regenerate()
