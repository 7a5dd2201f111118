#!/usr/bin/env python3
"""Self-test of the benchmark harness at toy corpus sizes.

    python3 perfbench/selftest.py

For every workload it runs the benchmark untraced and traced and checks
that every named metric prints, with its unit.  Then it runs each workload
again with the compared digest or hash corrupted and checks that the run
reports incorrect output and counts the failure, so that no output check
is vacuous.  Exits 0 when all of that holds.
"""

import contextlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True
import run  # noqa: E402

TOY = {
    "train_files": 60,
    "scan_files": 120,
    "model_files": 60,
    "serve_cached": 2,
    "serve_fresh": 4,
    "update_base": 60,
    "update_added": 6,
}
SEED = 3


def bench(workload, trace, corrupt=False):
    argv = ["--workload", workload, "--seed", str(SEED), "--seconds", "1",
            "--trace", str(trace)] + (["--corrupt"] if corrupt else [])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    if code != 0:
        raise SystemExit(f"selftest: {workload} trace={trace} exited {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def declared():
    """BENCHMARK.json's workloads and metrics must be the harness's."""
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        doc = json.load(f)
    problems = []
    if sorted(w["name"] for w in doc["workloads"]) != sorted(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    for key, names in (("end_to_end", run.E2E), ("per_layer", run.PER_LAYER)):
        if [(m["name"], m["unit"]) for m in doc[key]] != list(names):
            problems.append(f"BENCHMARK.json {key} differs from the harness's list")
    return problems


def main():
    problems = declared()
    run.SIZES.update(TOY)
    run.recorded = lambda workload: {}  # toy sizes are never recorded
    for workload in sorted(run.WORKLOADS):
        for trace, names in ((0, run.E2E), (1, run.PER_LAYER)):
            res = bench(workload, trace)
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{workload} trace={trace}: keys {sorted(res)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: not correct: {res}")
            for name, unit in names:
                m = res["metrics"].get(name)
                if m is None or m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
                    problems.append(f"{workload} trace={trace}: metric {name} [{unit}] is {m}")
            extra = set(res["metrics"]) - {n for n, _ in names}
            if extra:
                problems.append(f"{workload} trace={trace}: unlisted metrics {sorted(extra)}")
            if trace == 0:
                zero = [n for n, _ in names if res["metrics"][n]["value"] == 0]
                if zero:
                    problems.append(f"{workload}: end-to-end metrics read 0: {zero}")
            caught = bench(workload, trace, corrupt=True)
            if caught["correct"] or caught["failed"] < 1:
                problems.append(f"{workload} trace={trace}: corrupted output not caught: "
                                f"correct={caught['correct']} failed={caught['failed']}")
            print(f"selftest: {workload} trace={trace}: metrics ok, corruption caught",
                  flush=True)
    for p in problems:
        print("selftest: FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
