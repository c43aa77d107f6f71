"""Tests of the benchmark's own code: span arithmetic, oracle checks, tracing.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
"""

import json
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import child  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import teleport_sr  # noqa: E402
from teleport_sr import analysis, channel, cli, noise, qstate  # noqa: E402


def span(sid, name, start, end, parent, thread=1, n=1):
    return {"id": sid, "name": name, "start": start, "end": end, "parent": parent,
            "thread": thread, "op": 0, "n": n}


def test_self_time_subtracts_union_of_children_across_threads():
    tree = [
        span(1, "analysis.sweep", 0, 100, None),
        span(2, "analysis.estimate_fidelity", 10, 40, 1),
        span(3, "channel.transmit_bits", 15, 20, 2),
        # A worker-thread child overlapping span 2: the overlap counts once.
        span(4, "analysis.estimate_fidelity", 30, 70, 1, thread=2),
    ]
    assert spans.self_times(tree) == {1: 40, 2: 25, 3: 5, 4: 40}
    layers = spans.layer_metrics(tree, {"workers": 2, "table_hits": 0, "table_misses": 0,
                                        "rss_ready_kib": 0, "peak_rss_kib": 0})
    assert layers["analysis.sweep_self_ms"] == 40 / 1e6
    assert layers["analysis.pool_busy_frac"] == (30 + 40) / (100 * 2)
    assert layers["analysis.cells"] == 2
    assert layers["channel.transmit_self_us"] == 5 / 1e3


def test_worker_thread_span_takes_open_main_thread_span_as_parent():
    recorder = spans.Recorder()
    inner = recorder.wrap("inner", lambda: None)
    with ThreadPoolExecutor(max_workers=1) as pool:
        outer = recorder.wrap("outer", lambda: pool.submit(inner).result())
        outer()
    by_name = {s["name"]: s for s in recorder.spans()}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["inner"]["thread"] != by_name["outer"]["thread"]
    assert by_name["outer"]["parent"] is None


def _write_sweep(out_dir: Path, p_values, shift_row=None, shift=0.0):
    fid = [oracle.fidelity(p) for p in p_values]
    smooth = [sum(fid[max(0, i - 2): i + 3]) / len(fid[max(0, i - 2): i + 3])
              for i in range(len(fid))]
    rows = [{"scale": s, "analytic_f": f, "mc_mean": f, "mc_smoothed": m}
            for s, f, m in zip(run.SWEEP_SCALES, fid, smooth)]
    if shift_row is not None:
        rows[shift_row]["mc_mean"] += shift
    doc = {"metadata": {"runs": 100, "trials_per_run": 10_000}, "rows": rows}
    (out_dir / "sweep.json").write_text(json.dumps(doc), encoding="utf-8")
    (out_dir / "sweep.csv").write_text("header\n" + "row\n" * len(rows), encoding="utf-8")
    (out_dir / "sweep.svg").write_text('<?xml version="1.0"?><svg/>', encoding="utf-8")


@pytest.fixture(scope="module")
def gauss_sweep():
    workload = run.workloads()["sweep-gauss"]
    workload.prepare(oracle.answer)
    return workload


def test_exact_sweep_output_passes(gauss_sweep, tmp_path):
    _write_sweep(tmp_path, gauss_sweep.oracle_p)
    assert gauss_sweep.op(0, 1, tmp_path).check([]) == []


def test_mc_mean_shifted_by_ten_sem_fails_the_op(gauss_sweep, tmp_path):
    p = gauss_sweep.oracle_p[30]
    _write_sweep(tmp_path, gauss_sweep.oracle_p, shift_row=30,
                 shift=10 * oracle.sem(p, 100 * 10_000))
    problems = gauss_sweep.op(0, 1, tmp_path).check([])
    assert len(problems) == 1 and "z = 10.00" in problems[0]


def _config(tmp_path, noise, **sweep) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"state": "plus", "channel": {"amplitude": 1.1, "threshold": 1.6},
                                "noise": noise, "sweep": sweep}), encoding="utf-8")
    return str(path)


def installed_wrappers() -> list[str]:
    """Names of every span wrapper currently installed in the package."""
    found = []
    for holder in (teleport_sr, cli, analysis, channel, noise, qstate,
                   *noise.NoiseModel.__subclasses__()):
        found += [f"{holder.__name__}.{key}" for key, value in vars(holder).items()
                  if getattr(value, spans.MARK, False)]
    found += [f"cli._COMMANDS[{key}]" for key, value in cli._COMMANDS.items()
              if getattr(value, spans.MARK, False)]
    return found


@pytest.fixture
def seen_wrappers(monkeypatch):
    """Wrapper names installed at the moment ``probs`` runs, per call."""
    seen = []
    original = cli._COMMANDS["probs"]

    def cmd_probs(cfg, args):
        seen.append(installed_wrappers())
        return original(cfg, args)

    monkeypatch.setitem(cli._COMMANDS, "probs", cmd_probs)
    return seen


def test_untraced_run_installs_no_wrappers(tmp_path, seen_wrappers):
    cfg = _config(tmp_path, run.GAUSS)
    records, recorded, _ = child.run_commands([["probs", "--config", cfg]], trace=False)
    assert records[0]["exit"] == 0
    assert recorded is None
    assert seen_wrappers == [[]]


def test_traced_run_wraps_only_while_running(tmp_path, seen_wrappers):
    cfg = _config(tmp_path, run.GAUSS)
    records, recorded, _ = child.run_commands([["probs", "--config", cfg]], trace=True)
    assert records[0]["exit"] == 0
    assert "teleport_sr.channel.detection_probabilities" in seen_wrappers[0]
    assert {"cli.cmd_probs", "cli.parse_run_config", "channel.detection_probabilities",
            "noise.Gaussian.cdf"} <= {s["name"] for s in recorded}
    assert installed_wrappers() == []


@pytest.mark.parametrize("noise, builds", [(run.GAUSS, 0), (run.STABLE, 3)])
def test_traced_threaded_sweep_counts(tmp_path, monkeypatch, noise, builds):
    monkeypatch.setenv("TELEPORT_SR_THREADS", "2")
    cfg = _config(tmp_path, dict(noise, **({"cdf_draws": 1000} if builds else {})),
                  bounds=[0.5, 2.0], count=3, runs=2, trials=50)
    argv = ["sweep", "--config", cfg, "--out", str(tmp_path), "--no-svg"]
    records, recorded, table = child.run_commands([argv], trace=True)
    assert records[0]["exit"] == 0
    layers = spans.layer_metrics(recorded, {"workers": 2, "table_hits": table["hits"],
                                            "table_misses": table["misses"],
                                            "rss_ready_kib": 0, "peak_rss_kib": 0})
    assert layers["analysis.cells"] == 6
    assert layers["qstate.pauli_weights_calls"] == 6 + 1
    assert layers["noise.table_builds"] == builds
    assert layers["noise.draws"] == 6 * 2 * 50
    # Cells run on pool threads; each is attributed to the enclosing sweep.
    sweep_id = next(s["id"] for s in recorded if s["name"] == "analysis.sweep")
    cells = [s for s in recorded if s["name"] == "analysis.estimate_fidelity"]
    assert all(c["parent"] == sweep_id for c in cells)


def test_percentile_summary_reports_tail_only_with_ten_samples_beyond():
    assert run.percentile_summary(range(10))["tail"] is None
    assert run.percentile_summary(range(20))["tail"] == {"q": 50, "value": 9}
    assert run.percentile_summary(range(1000))["tail"] == {"q": 99, "value": 989}


def test_benchmark_without_the_package_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep-gauss",
                           "--seed", "1", "--seconds", "1"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
