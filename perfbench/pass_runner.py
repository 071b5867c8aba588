"""One pass: every command of a plan through gt_toolkit.cli.main, in order.

usage: python3 pass_runner.py PLAN.json RESULT.json TRACE(0|1)

Runs in a fresh interpreter whose working directory holds the plan's
input files.  Each command starts only after the previous one returned
(a closed loop with one client).  Between commands the garbage of the
previous command is collected, as a process per command would start
clean, and at most every SAMPLE_EVERY_NS the calibration kernel of
speed.py is timed; neither is part of any command's latency.  Reports are checked after the timed
loop, so checking costs no pass time.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback

import speed

SAMPLE_EVERY_NS = 100_000_000


def main(argv: list[str]) -> int:
    plan_path, result_path, trace = argv[1], argv[2], argv[3] == "1"
    from gt_toolkit import cli

    import checks
    tracer = None
    if trace:
        import layertrace
        tracer = layertrace.Tracer()
        tracer.install()
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)

    outcomes, samples = [], []
    clock = time.perf_counter_ns
    last_sample = None
    for cmd in plan:
        gc.collect()
        if last_sample is None or clock() - last_sample >= SAMPLE_EVERY_NS:
            last_sample = clock()
            samples.append((last_sample, speed.kernel_ns()))
        out, err = io.StringIO(), io.StringIO()
        status, error = None, None
        begin = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.main(cmd["argv"])
        except SystemExit as exc:
            status = exc.code
        except Exception as exc:  # counted as a failure, never hidden
            error = traceback.format_exception_only(exc)[-1].strip()
        outcomes.append((begin, clock() - begin, status, error,
                         out.getvalue()))
    gc.collect()
    samples.append((clock(), speed.kernel_ns()))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    results = []
    for cmd, (begin, ns, status, error, text) in zip(plan, outcomes):
        raw, canonical, problems = checks.examine(cmd, text)
        results.append({"ns": ns, "scale": speed.scale(samples, begin,
                                                        begin + ns),
                        "status": status, "error": error,
                        "raw_sha256": raw, "sha256": canonical,
                        "problems": problems})
    record = {"peak_rss_mb": peak_kib / 1024,
              "results": results,
              "layers": tracer.stats if tracer else None}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
