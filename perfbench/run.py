"""gradqfi benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from --seed, runs a fixed amount of work sized
by --seconds through gradqfi's public API (or `python -m gradqfi`
children), checks every output against perfbench/reference.py, and prints
one JSON object as the last line of stdout.  --trace 0 reports the
end-to-end metrics; --trace 1 runs every item twice, untraced and traced,
and reports the per-layer metrics from spans recorded around the
benchmark's own calls into each module.  Details, the environment and
(traced) the spans are written under perfbench/results/.

Load is closed-loop from this one process: an item starts when the
previous one has finished, and CLI children run one at a time.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

from workloads import WORKLOADS, CliReproduce

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

# One BLAS thread (<= nproc) keeps timings steady on a shared machine and
# gives children the same setting; set before numpy is first imported.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
STRICT_TOL = 1e-9
# Far-offset items lose digits to the known cancellation in the package
# (ROADMAP item 4); a miss above STRICT_TOL counts as failed, a miss above
# this bound means a real error.
FAR_GROSS_TOL = 1e-3
# Monte Carlo checks: 3 standard errors counts as failed, 6 means a real error.
GROSS_BAND_FACTOR = 2.0
TAIL_BEYOND = 10

LAYERS = ("core", "qfi", "noise", "measurement", "scenarios", "cli")


# ----------------------------------------------------------------------
# probes: pass-through when untraced, span recorder when traced
# ----------------------------------------------------------------------


class Probe:
    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, value):
        pass


class Tracer(Probe):
    """Spans (name, start, end, parent, item) kept in memory, written at the end."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.item = None
        self.parent = None

    def begin_item(self, item):
        self.item = item
        self.parent = len(self.spans)
        self.spans.append(["bench.item", time.perf_counter_ns(), None, None, item])

    def end_item(self):
        self.spans[self.parent][2] = time.perf_counter_ns()
        self.parent = None

    def call(self, name, fn, *args, **kwargs):
        span = [name, time.perf_counter_ns(), None, self.parent, self.item]
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def self_times(self):
        """Per-span duration minus the time its direct children cover."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [(s[0], (s[2] - s[1] - c) / 1e9) for s, c in zip(self.spans, child)]

    def dump(self, path):
        rows = [dict(name=n, start_ns=s, end_ns=e, parent=p, item=i) for n, s, e, p, i in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------


class Checker:
    """Counts items whose checks miss (failed) and misses that mean a real error (gross)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.gross = []
        self.misses = []
        self.max_rel_err = 0.0
        self._item = None
        self._missed = False

    def begin_item(self, item):
        self.attempted += 1
        self._item = item
        self._missed = False

    def end_item(self):
        if self._missed:
            self.failed += 1

    def _record(self, name, miss, gross, detail):
        if miss:
            self._missed = True
            if len(self.misses) < 50:
                self.misses.append(f"item {self._item} {name}: {detail}")
        if gross:
            self.gross.append(f"item {self._item} {name}: {detail}")

    def close(self, name, got, want, scale, far=False):
        err = abs(got - want) / max(abs(want), scale)
        if err == err:
            self.max_rel_err = max(self.max_rel_err, err)
        ok = err <= STRICT_TOL
        self._record(name, not ok, not (err <= (FAR_GROSS_TOL if far else STRICT_TOL)),
                     f"got {got!r} want {want!r} rel_err {err:.3e}{' (far from x0)' if far else ''}")

    def band(self, name, got, want, band):
        err = abs(got - want)
        self._record(name, not err <= band, not err <= GROSS_BAND_FACTOR * band,
                     f"got {got!r} want {want!r} |diff|/band {err / band:.3f}")

    def require(self, name, ok, detail=""):
        self._record(name, not ok, not ok, detail or "condition false")

    def exception(self, exc_text):
        self._missed = True
        self.gross.append(f"item {self._item} raised: {exc_text}")


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------


def cpu_seconds():
    own = time.process_time()
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own + kids.ru_utime + kids.ru_stime


def run_pass(workload, specs, probe, checker, start=0):
    """Run every item in order; returns per-item wall and CPU seconds.

    The untraced pass checks each item's outputs; the traced pass only
    makes the workload's extra in-process calls and checks those.
    """
    traced = isinstance(probe, Tracer)
    walls, cpus = [], []
    for i, spec in enumerate(specs, start):
        gc.collect()  # start every item from the same heap state, outside its timing
        if traced:
            probe.begin_item(i)
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            out = workload.run_item(spec, probe)
            error = None
        except Exception:
            out, error = None, traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        c1 = cpu_seconds()
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
        if traced:
            probe.end_item()
        checker.begin_item(i)
        try:
            if error is not None:
                checker.exception(error)
            elif traced:
                workload.traced_extra(spec, out, probe, checker)
            else:
                workload.check(spec, out, checker)
        except Exception:
            checker.exception(traceback.format_exc(limit=3))
        checker.end_item()
        del out  # free the outputs here, not inside the next item's timing
    return walls, cpus


def tail(values_ms):
    """The highest percentile with TAIL_BEYOND samples beyond it (nearest rank)."""
    ordered = sorted(values_ms)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, 1)
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def child_import_seconds(env):
    """Wall time of a fresh interpreter importing gradqfi, as a CLI user pays it."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import gradqfi"], env=env, check=True)
    return time.perf_counter() - t0


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def git_commit():
    """HEAD when the checkout is itself a git work tree, else None."""
    try:
        cp = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True)
    except OSError:
        return None
    lines = cp.stdout.splitlines()
    if cp.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def environment(gradqfi, seed):
    import numpy as np

    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "gradqfi")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return dict(
        git_commit=git_commit(), source_sha256=digest.hexdigest(), seed=seed,
        python=platform.python_version(), numpy=np.__version__, gradqfi=gradqfi.__version__,
        blas=f"{blas.get('name')} {blas.get('version')}",
        thread_env={k: os.environ.get(k) for k in THREAD_ENV},
        nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
        platform=platform.platform(), machine=platform.processor() or platform.machine(),
    )


# ----------------------------------------------------------------------
# metric assembly
# ----------------------------------------------------------------------


def end_to_end(setup_s, labels, walls, cpus, rss_mb):
    """wall_s, cpu_s and items_per_s sum every item as measured.  The item
    percentiles give each item its type's median time over the run's
    repeats of that type, so they describe the work mix rather than
    scheduler jitter on a shared machine."""
    by_type = {}
    for label, w in zip(labels, walls):
        by_type.setdefault(label, []).append(w * 1e3)
    typed_ms = [statistics.median(by_type[label]) for label in labels]
    tail_ms, pct, beyond = tail(typed_ms)
    wall = math.fsum(walls)
    metrics = dict(
        setup_s=(setup_s, "s"),
        wall_s=(wall, "s"),
        cpu_s=(math.fsum(cpus), "s"),
        items_per_s=(len(walls) / wall, "1/s"),
        item_p50_ms=(statistics.median(typed_ms), "ms"),
        item_tail_ms=(tail_ms, "ms"),
        peak_rss_mb=(rss_mb, "MB"),
    )
    return metrics, dict(tail_percentile=pct, tail_samples_beyond=beyond, items=len(walls),
                         item_types=len(by_type))


FUNCTION_COUNTS = {
    "core.make_named_state": ("terms",),
    "core.evolve": ("terms",),
    "qfi.qfi_general": ("dim_sum", "dense_bytes"),
    "qfi.qfi_pure": ("terms",),
    "qfi.closed_form": (),
    "noise.mc_coherence_magnitude": ("trajectories",),
    "noise.mc_trajectory_average": ("trajectories",),
    "noise.apply_channel": ("support",),
    "noise.steady_twirl": (),
    "noise.coherence_factor": (),
    "measurement.parity_distribution": ("terms",),
    "measurement.jx_distribution": (),
    "measurement.classical_fisher": (),
}
COUNT_UNITS = {"dense_bytes": "bytes"}
SCENARIOS = ("sweep_fig3", "sweep_fig4", "sweep_fig5a", "sweep_fig5b", "table1")


def per_layer(tracer, traced_walls, walls, import_s, checker):
    spans = [(s[0], (s[2] - s[1]) / 1e9) for s in tracer.spans]
    metrics = {}
    for fn, counts in FUNCTION_COUNTS.items():
        durations = [d for name, d in spans if name == fn]
        metrics[f"{fn}.calls"] = (len(durations), "count")
        metrics[f"{fn}.busy_s"] = (math.fsum(durations), "s")
        for c in counts:
            metrics[f"{fn}.{c}"] = (tracer.counts.get(f"{fn}.{c}", 0), COUNT_UNITS.get(c, "count"))
    for sc in SCENARIOS:
        metrics[f"scenarios.{sc}.busy_s"] = (
            math.fsum(d for name, d in spans if name == f"scenarios.{sc}"), "s")
    metrics["cli.import_s"] = (import_s, "s")
    metrics["cli.emit_csv.busy_s"] = (math.fsum(d for name, d in spans if name == "cli.emit_csv"), "s")
    for command, _ in CliReproduce.COMMANDS:
        runs = [d for name, d in spans if name == f"cli.{command}"]
        metrics[f"cli.{command}.wall_s"] = (statistics.median(runs) if runs else 0.0, "s")
    self_times = tracer.self_times()
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (
            math.fsum(t for name, t in self_times if name.split(".")[0] == layer), "s")
    metrics["trace.overhead_s"] = (math.fsum(traced_walls) - math.fsum(walls), "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["check.error_frac"] = (checker.failed / checker.attempted, "ratio")
    metrics["check.max_rel_err"] = (checker.max_rel_err, "ratio")
    return metrics


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_package():
    """Import gradqfi from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "gradqfi", "__init__.py")):
        raise SystemExit(f"error: no gradqfi sources under {SRC}; run from a checkout of the repository")
    for key in THREAD_ENV:
        os.environ[key] = "1"
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import gradqfi

    if os.path.dirname(os.path.dirname(os.path.abspath(gradqfi.__file__))) != SRC:
        raise SystemExit(f"error: imported gradqfi from {gradqfi.__file__}, not {SRC}")
    return gradqfi, time.perf_counter() - t0


def main(argv=None):
    args = parse_args(argv)
    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be > 0")
    gradqfi, inprocess_import_s = load_package()
    workload = WORKLOADS[args.workload](gradqfi, ROOT)
    os.makedirs(RESULTS, exist_ok=True)
    try:
        setups, imports = [], []
        for _ in range(SETUP_REPEATS):
            imp = child_import_seconds(workload.env)
            t0 = time.perf_counter()
            specs = workload.make_inputs(args.seed, args.seconds)
            run_pass(workload, workload.warm_specs(args.seed), Probe(), Checker())
            setups.append(imp + time.perf_counter() - t0)
            imports.append(imp)
        checker = Checker()
        if not args.trace:
            walls, cpus = run_pass(workload, specs, Probe(), checker)
        else:
            # Each item runs untraced and traced back to back, alternating
            # which goes first so that warm-cache effects cancel in the overhead.
            tracer, extra = Tracer(), Checker()
            walls, cpus, traced_walls = [], [], []
            for i, spec in enumerate(specs):
                for traced in ((False, True) if i % 2 == 0 else (True, False)):
                    if traced:
                        traced_walls += run_pass(workload, [spec], tracer, extra, start=i)[0]
                    else:
                        w, c = run_pass(workload, [spec], Probe(), checker, start=i)
                        walls += w
                        cpus += c
            checker.misses += extra.misses
            checker.gross += extra.gross
        rss = peak_rss_mb(workload.rss_of_children)
        e2e, tail_info = end_to_end(statistics.median(setups), [s["label"] for s in specs],
                                    walls, cpus, rss)
        if args.trace:
            metrics = per_layer(tracer, traced_walls, walls, statistics.median(imports), checker)
        else:
            metrics = e2e
    finally:
        workload.close()

    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    details = dict(
        workload=args.workload, seconds=args.seconds, trace=args.trace,
        environment=environment(gradqfi, args.seed),
        metrics={k: dict(value=v, unit=u) for k, (v, u) in metrics.items()},
        end_to_end={k: dict(value=v, unit=u) for k, (v, u) in e2e.items()},
        load="closed loop, one client process, CLI children one at a time",
        setup_repeats_s=setups, inprocess_import_s=inprocess_import_s, **tail_info,
        attempted=checker.attempted, failed=checker.failed,
        error_frac=checker.failed / checker.attempted, max_rel_err=checker.max_rel_err,
        misses=checker.misses, gross=checker.gross[:50],
        item_ms=[[spec["label"], w * 1e3] for spec, w in zip(specs, walls)],
    )
    if args.trace:
        details["spans_file"] = os.path.relpath(stem + "-spans.json", ROOT)
        tracer.dump(stem + "-spans.json")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)

    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"item_tail_ms is p{tail_info['tail_percentile']:.2f} of {tail_info['items']} items "
          f"({tail_info['tail_samples_beyond']} beyond)")
    print(f"error_frac {details['error_frac']!r} max_rel_err {checker.max_rel_err!r}")
    for line in checker.gross[:5]:
        print(f"error: {line}", file=sys.stderr)
    print(json.dumps(dict(
        correct=not checker.gross, attempted=checker.attempted, failed=checker.failed,
        metrics={k: dict(value=v, unit=u) for k, (v, u) in metrics.items()},
    )))
    return 0


if __name__ == "__main__":
    sys.exit(main())
