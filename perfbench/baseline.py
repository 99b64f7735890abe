"""Rebuild ROADMAP's "Baseline" table from the benchmark's traced runs.

    python3 perfbench/run.py --workload W --seed S --seconds 20 --trace 1   # each workload
    python3 perfbench/baseline.py --seed S

Reads perfbench/results/<workload>-seed<S>-trace1.json and its span file
and prints one markdown row per baseline row: the per-layer metric or span
that reproduces it and the value measured here.  Per-call values are the
median span duration over the items of the named type.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics

RESULTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def load(workload, seed):
    stem = os.path.join(RESULTS, f"{workload}-seed{seed}-trace1")
    with open(stem + ".json", encoding="utf-8") as fh:
        result = json.load(fh)
    with open(stem + "-spans.json", encoding="utf-8") as fh:
        spans = json.load(fh)
    labels = [label for label, _ in result["item_ms"]]
    per_call = {}
    for s in spans:
        key = (s["name"], labels[s["item"]])
        per_call.setdefault(key, []).append((s["end_ns"] - s["start_ns"]) / 1e9)
    return result["metrics"], per_call


def median(per_call, name, label):
    return statistics.median(per_call[name, label])


def total(per_call, name):
    return sum(sum(v) for (n, _), v in per_call.items() if n == name)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed
    om, om_calls = load("oracle-mixed", seed)
    _, sl_calls = load("sparse-large", seed)
    _, mc_calls = load("mc-dephasing", seed)
    cli, cli_calls = load("cli-reproduce", seed)

    def v(metrics, name):
        return metrics[name]["value"]

    coherence = [(name, label) for name, label in mc_calls if name == "noise.mc_coherence_magnitude"]
    round_1e5 = 10 * sum(median(mc_calls, *key) for key in coherence)  # 1e4 -> 1e5 trajectories
    rows = [
        ("criterion 01: qfi_general share of the item time",
         "oracle-mixed `qfi.qfi_general.busy_s` over the `bench.item` spans",
         f"{100 * v(om, 'qfi.qfi_general.busy_s') / total(om_calls, 'bench.item'):.0f}%"),
        ("criterion 09: 1e5 trajectories at 10 times", "mc-dephasing `noise.mc_coherence_magnitude` spans, one round x 10",
         f"{round_1e5:.2f} s"),
        ("qfi_general GHZ n = 8 (n = 10, 12 are outside every workload)",
         "oracle-mixed `qfi.qfi_general` span, items n8 (median over families)",
         f"{1e3 * median(om_calls, 'qfi.qfi_general', 'n8'):.1f} ms"),
        ("make_named_state product (n = 17 here, 2^17 terms; n = 20 is 8x the terms)",
         "sparse-large `core.make_named_state` span, product-n17",
         f"{median(sl_calls, 'core.make_named_state', 'product-n17-kNone'):.2f} s"),
        ("qfi_pure / evolve / parity on product (n = 17)",
         "sparse-large `qfi.qfi_pure`, `core.evolve`, `measurement.parity_distribution` spans",
         " / ".join(f"{median(sl_calls, n, 'product-n17-kNone'):.2f}" for n in
                    ("qfi.qfi_pure", "core.evolve", "measurement.parity_distribution")) + " s"),
        ("Dicke n = 20, k = 10: build / qfi_pure", "sparse-large spans, dicke-n20-k10",
         f"{median(sl_calls, 'core.make_named_state', 'dicke-n20-k10'):.2f} / "
         f"{median(sl_calls, 'qfi.qfi_pure', 'dicke-n20-k10'):.2f} s"),
        ("mc_coherence_magnitude 1e5 trajectories at t = 3 tau_c (default dt)",
         "mc-dephasing `noise.mc_coherence_magnitude` span, coherence-t3, x 10",
         f"{10 * median(mc_calls, 'noise.mc_coherence_magnitude', 'coherence-t3'):.2f} s"),
        ("apply_channel Dicke n = 12, k = 6", "not in any workload (apply_channel sees GHZ and Dicke n <= 6)", "n/a"),
        ("sweep_fig5 a / b, n = 2..1000", "cli-reproduce `scenarios.sweep_fig5a`, `sweep_fig5b` spans (per call)",
         f"{median(cli_calls, 'scenarios.sweep_fig5a', 'reproduce-fig5a'):.2f} / "
         f"{median(cli_calls, 'scenarios.sweep_fig5b', 'reproduce-fig5b'):.2f} s"),
        ("CLI qfi / reproduce fig5b / validate; import", "`cli.qfi.wall_s`, `cli.reproduce-fig5b.wall_s`, "
         "`cli.validate.wall_s`; `cli.import_s`",
         f"{v(cli, 'cli.qfi.wall_s'):.2f} / {v(cli, 'cli.reproduce-fig5b.wall_s'):.2f} / "
         f"{v(cli, 'cli.validate.wall_s'):.2f} s; {v(cli, 'cli.import_s'):.2f} s"),
    ]
    print("| ROADMAP baseline row | reproduced by | this machine |")
    print("|---|---|---|")
    for row in rows:
        print("| " + " | ".join(row) + " |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
