"""Run a fixed matrix of gradqfi CLI invocations and print a digest line for each.

    python tools/cli_matrix.py > matrix.txt

Each invocation runs as `python -m gradqfi ...` against this checkout's own
`src`, in a fresh temporary directory, with one BLAS thread.  Each output
line is

    <exit code> <sha256 of stdout, stderr and the written files> <argv>

with this checkout's source path replaced by `<src>` in stderr, so the
output of two checkouts can be compared with `diff`: a line that differs is
an invocation whose exit code, output or files changed.  The matrix covers
every `reproduce` target, `validate`, `qfi`/`cfi`/`parity` for every state
under every scenario at several sizes, J_x readouts, `tcrit`,
`placement-search`, `noise-scan`, and invocations whose values overflow
float64 or that are not finite.  It takes no flags.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from gradqfi.core import STATE_NAMES  # noqa: E402  (this checkout's own package)

ONE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
POINT = ("--grad", "0.4", "--b0", "0.3", "--t", "0.8", "--delta-e", "0.7", "--length", "2")


def _state_flags(state: str, n: int) -> tuple[str, ...]:
    if state == "psi-m":
        return ("--state", state, "--m", str(n // 2))
    if state == "ghz-theta":
        return ("--state", state, "--theta", "0.7")
    return ("--state", state)


def invocations() -> list[tuple[str, ...]]:
    runs = [("reproduce", target) for target in ("fig3", "fig4", "fig5a", "fig5b", "table1")]
    runs.append(("validate",))
    for command in ("qfi", "cfi", "parity"):
        for state in STATE_NAMES:
            for scenario in ("known-b0", "unknown-b0", "noisy"):
                for n in (1, 2, 5, 8):
                    runs.append((command, *_state_flags(state, n), "--scenario", scenario,
                                 "--n", str(n), *POINT))
    for state in STATE_NAMES:
        for scenario in ("known-b0", "noisy"):
            runs.append(("cfi", "--observable", "jx", *_state_flags(state, 5),
                         "--scenario", scenario, "--n", "5", *POINT))
    for state in ("ghz", "dicke", "product"):
        runs.append(("cfi", "--observable", "jx", "--state", state, "--scenario", "noisy",
                     "--n", "13", *POINT))
        for command in ("qfi", "cfi"):
            runs.append((command, "--state", state, "--n", "6", "--grad", "0.4", "--x0=-1e8"))
    for n in ("8", "50"):
        runs.append(("tcrit", "--n", n, "--length", "1", "--gamma-prime", "314.1592653589793",
                     "--delta-e", "1"))
    runs.append(("tcrit", "--n", "8"))
    for objective in ("entangled-known-b0", "separable-known-b0", "dfs-max", "product-steady"):
        runs.append(("placement-search", "--objective", objective, "--n", "4"))
    runs.append(("noise-scan", "--n", "2", "--gamma-prime", "1", "--delta-e", "1", "--t-max", "2"))
    runs.append(("noise-scan", "--n", "4", "--delta-e", "1", "--points", "5", "--format", "json"))
    for length in ("1e155", "1e200"):
        for state in (("product",), ("odf", "--k", "3"), ("dicke", "--k", "3"), ("ghz",),
                      ("psi-m", "--m", "3")):
            runs.append(("qfi", "--state", *state, "--n", "20", "--length", length))
        for target in ("fig5a", "fig5b"):
            runs.append(("reproduce", target, "--n-max", "20", "--length", length))
    overflow = ("--length", "1e200")
    runs += [
        ("qfi", "--scenario", "noisy", "--state", "ghz", "--n", "20", *overflow),
        ("reproduce", "table1", *overflow),
        ("reproduce", "table1", "--gamma-t", "1e200"),
        ("reproduce", "fig3", *overflow),
        ("reproduce", "fig4", *overflow),
        ("tcrit", "--n", "20", "--delta-e", "1", *overflow),
        ("placement-search", "--n", "4", *overflow),
        ("placement-search", "--objective", "product-steady", "--n", "4", *overflow),
        ("noise-scan", "--n", "20", "--delta-e", "1e200", "--points", "3"),
        ("cfi", "--observable", "jx", "--scenario", "noisy", "--state", "product", "--n", "18",
         "--delta-e", "0.7", "--t", "0.8"),
        ("cfi", "--state", "ghz", "--n", "20", "--grad", "0.4", *overflow),
        ("cfi", "--scenario", "noisy", "--state", "dicke", "--k", "4", "--n", "8", "--grad", "0.4",
         *overflow),
    ]
    for command in ("cfi", "parity"):  # a rank-19 mixed state on 2^18 rows
        for t in ("0.8", "50"):
            runs.append((command, "--scenario", "noisy", "--state", "product", "--n", "18",
                         "--delta-e", "5", "--t", t))
    # psi-m off the sign split: the branch gap is not sum |f|
    runs.append(("qfi", "--scenario", "noisy", "--state", "psi-m", "--m", "3", "--n", "8",
                 "--t", "0.8", "--length", "2", "--delta-e", "0"))
    # a rate N gamma' delta_e whose square underflows, a tau_c whose t / tau_c overflows
    # while (delta_e tau_c)^2 underflows, and the odf pair sum that a default fig5b
    # rounded furthest from its exact value when it added in index order (n = 663)
    runs += [
        ("tcrit", "--n", "3", "--delta-e", "1e-320"),
        ("qfi", "--scenario", "noisy", "--state", "ghz", "--n", "3", "--tau-c", "1e-320",
         "--delta-e", "1"),
        ("noise-scan", "--n", "2", "--tau-c", "1e-320", "--delta-e", "1", "--t-max", "1",
         "--points", "3"),
        ("qfi", "--state", "odf", "--k", "331", "--n", "663", "--length", "1"),
    ]
    # a table whose position sums sum() did not round correctly, and a t / tau_c that
    # overflows while (delta_e tau_c)^2 does not underflow
    runs += [
        ("reproduce", "table1", "--n", "6", "--length", "13.1"),
        ("noise-scan", "--n", "2", "--tau-c", "1e-10", "--delta-e", "1", "--t-max", "1e300",
         "--points", "3"),
    ]
    # a theta that is not finite, and an evolution phase that is inf or inf - inf
    runs += [
        ("qfi", "--state", "ghz-theta", "--theta", "inf"),
        ("parity", "--state", "ghz-theta", "--theta", "nan", "--n", "3"),
        ("parity", "--state", "ghz", "--n", "3", "--gamma", "1e300", "--t", "1e300", "--grad", "1"),
        ("cfi", "--observable", "jx", "--state", "product", "--n", "4", "--length", "1e300",
         "--grad", "1e300"),
        ("parity", "--state", "ghz", "--n", "3", "--gamma", "1e10", "--b0", "1e300", "--grad",
         "-1e300", "--x0", "-1"),
    ]
    return runs


def digest(argv: tuple[str, ...]) -> str:
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(SRC)}
    with tempfile.TemporaryDirectory() as work:
        done = subprocess.run([sys.executable, "-m", "gradqfi", *argv], cwd=work, env=env,
                              capture_output=True)
        sha = hashlib.sha256(done.stdout)
        sha.update(b"\0stderr\0" + done.stderr.replace(str(SRC).encode(), b"<src>"))
        for path in sorted(Path(work).iterdir()):
            sha.update(b"\0" + path.name.encode() + b"\0" + path.read_bytes())
    return f"{done.returncode} {sha.hexdigest()} {' '.join(argv)}"


def main() -> None:
    with ThreadPoolExecutor(2) as pool:
        for line in pool.map(digest, invocations()):
            print(line, flush=True)


if __name__ == "__main__":
    main()
