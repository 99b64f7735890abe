"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that a seed fixes the inputs, that every metric run.py prints
is the one BENCHMARK.json names (same order, same unit), that a wrong
reference value is counted as a failed item and makes the run incorrect,
and that run.py refuses to run without the package sources.
Takes about two minutes; writes only under perfbench/results/.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run
import reference
from workloads import WORKLOADS

BENCH = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8"))


def check_seeded_inputs(gradqfi):
    for name, cls in WORKLOADS.items():
        w = cls(gradqfi, run.ROOT)
        a, b = (json.dumps(w.make_inputs(7, 20)) for _ in range(2))
        assert a == b, f"{name}: seed 7 gave different inputs"
        assert a != json.dumps(w.make_inputs(8, 20)), f"{name}: seeds 7 and 8 gave the same inputs"
        w.close()


def check_wrong_reference_is_counted(gradqfi):
    workload = WORKLOADS["oracle-mixed"](gradqfi, run.ROOT)
    specs = workload.make_inputs(3, 1)[:3]
    good = run.Checker()
    run.run_pass(workload, specs, run.Probe(), good)
    assert good.attempted == 3 and good.failed == 0 and not good.gross, good.misses
    real = reference.ghz_qfi
    reference.ghz_qfi = lambda gt, f: real(gt, f) * (1.0 + 1e-6)
    try:
        bad = run.Checker()
        run.run_pass(workload, specs, run.Probe(), bad)
    finally:
        reference.ghz_qfi = real
    assert bad.attempted == 3 and bad.failed == 3, (bad.attempted, bad.failed)
    assert bad.gross, "a wrong reference must make the run incorrect"


def run_script(*args, cwd=run.ROOT):
    script = os.path.join(cwd, "perfbench", "run.py")
    return subprocess.run([sys.executable, script, *args], cwd=cwd, capture_output=True, text=True)


def check_metric_names():
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cp = run_script("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace))
            assert cp.returncode == 0, (workload, trace, cp.stderr[-2000:])
            result = json.loads(cp.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["attempted"] >= 1, (workload, trace, cp.stderr[-2000:])
            printed = [(k, v["unit"]) for k, v in result["metrics"].items()]
            declared = [(m["name"], m["unit"]) for m in BENCH[key]]
            assert printed == declared, (workload, trace, set(printed) ^ set(declared))


def check_refuses_without_sources():
    bare = os.path.join(run.RESULTS, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        cp = run_script("--workload", "oracle-mixed", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        assert cp.returncode != 0 and not cp.stdout.strip(), (cp.returncode, cp.stdout)
    finally:
        shutil.rmtree(bare)


def main():
    gradqfi, _ = run.load_package()
    os.makedirs(run.RESULTS, exist_ok=True)
    for check in (check_seeded_inputs, check_wrong_reference_is_counted):
        check(gradqfi)
        print(f"ok {check.__name__}")
    for check in (check_refuses_without_sources, check_metric_names):
        check()
        print(f"ok {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
