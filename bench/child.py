"""One benchmark operation, run in a fresh interpreter.

Usage: ``python3 bench/child.py <spec.json>``, with ``src`` on PYTHONPATH.
The spec names the config file, the CLI commands to run one after another
with ``teleport_sr.cli.main``, whether to trace them, and where to write the
result.  Everything up to the ready mark (interpreter start, importing the
package, reading and validating the config) is set-up; the commands after it
are the timed operation.  The result file holds the ready mark, the CPU time
and resident memory at that mark, and each command's exit code, stdout and
wall time.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_commands(commands, trace: bool, op: int = 0):
    """Run CLI commands in this process; returns (records, spans, table_info).

    With ``trace`` false nothing in the package is touched.  With it true the
    span recorder wraps the package for the duration of the commands only.
    """
    from teleport_sr import cli, noise

    table = noise._empirical_cdf_table
    before = table.cache_info()
    recorder = None
    if trace:
        import spans

        recorder = spans.Recorder(op)
        recorder.install()
    records = []
    try:
        for argv in commands:
            out = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out):
                    code = cli.main(list(argv))
            except Exception:  # noqa: BLE001 - a crashed command is a failed op
                traceback.print_exc()
                code = -1
            records.append({"argv": list(argv), "exit": code, "stdout": out.getvalue(),
                            "wall_s": time.perf_counter() - start})
    finally:
        if recorder is not None:
            recorder.uninstall()
    after = table.cache_info()
    counts = {"hits": after.hits - before.hits, "misses": after.misses - before.misses}
    return records, recorder.spans() if recorder else None, counts


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    from teleport_sr import cli

    with open(spec["config"], encoding="utf-8") as handle:
        cli.parse_run_config(json.load(handle))
    ready = time.perf_counter()
    cpu_ready = _cpu_s()
    rss_ready = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if spec.get("setup_only"):
        records, spans, table = [], None, {"hits": 0, "misses": 0}
    else:
        records, spans, table = run_commands(spec["commands"], spec["trace"], spec["op"])
    if spans is not None:
        with open(spec["trace_out"], "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")
    result = {"ready": ready, "cpu_ready_s": cpu_ready, "rss_ready_kib": rss_ready,
              "commands": records, "table": table}
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
