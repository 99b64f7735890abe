"""Command-line front end: parameter ingestion, scenario dispatch, and
bit-stable CSV/JSON emission of reports, sweeps, and reproduction targets.

Three tables own the interface.  _FLAGS holds every flag's kind, default,
help text and size bound; the parser, the config-file reader and the range
check all read it.  _COMMANDS holds every command's handler, help text and
the defaults that beat the flag table's.  _TARGET_DEFAULTS holds the
`reproduce` targets and their defaults.  A setting resolves as: flag, then
config file, then target default, then command default, then table default.

Determinism contract: the same command line (same flags, same seed)
produces byte-identical output across runs and across thread counts.
CSV floats use the shortest round-trip decimal form (repr); JSON objects
keep a fixed key order.  Exit codes: 0 success, 1 computation error,
2 validation error; every error message names the offending flag or
field.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import (
    STATE_NAMES,
    ChainConfig,
    PhysParams,
    SparseState,
    State,
    _fsum,
    make_chain,
    make_named_state,
)
from .errors import ComputationError, NumericOverflow, OutputError, ValidationError
from .measurement import (
    _DENSE_CAP_QUBITS,
    _basis_excitations,
    _parity_outcomes,
    _parity_value_and_gradient,
    _propagated_variance,
    classical_fisher,
    jx_distribution,
    parity_distribution,
)
from .noise import (
    NoiseModel,
    TrajectoryEnsemble,
    apply_channel,
    coherence_factor,
    correlation_integral,
    mc_coherence_magnitude,
    steady_twirl,
)
from .qfi import (
    FisherReport,
    _dephased,
    _dfs_report,
    qfi_dfs_subspace,
    qfi_dicke,
    qfi_general,
    qfi_max_entangled,
    qfi_max_separable,
    qfi_noisy_ghz,
    qfi_product_steady,
    qfi_pure,
)
from .scenarios import (
    OBJECTIVES,
    PLACEMENT_KINDS,
    PlacementSpec,
    TableOne,
    brute_force_placement_search,
    critical_time,
    generate_placement,
    optimal_time_ghz,
    sweep_fig3,
    sweep_fig4,
    sweep_fig5,
    table1,
)

CSV_MAGIC = "# gradqfi v1"


class _Flag(NamedTuple):
    kind: type | tuple[str, ...]  # int, float, bool, str, or the allowed choices
    default: object
    help: str | None
    bounds: tuple[int, int] | None = None  # inclusive (min, max) of a size flag


# long name -> flag; the config file uses the same names, and this order is
# the order of --help
_FLAGS = {
    "n": _Flag(int, 4, "number of qubits", (1, 10_000)),
    "k": _Flag(int, None, "excitation number for odf/dicke states (default n//2)"),
    "m": _Flag(int, None, "branch size for the psi-m state"),
    "n-traj": _Flag(int, 10000, "Monte Carlo trajectory count", (1, 1_000_000)),
    "seed": _Flag(int, 12345, "64-bit RNG seed", (0, (1 << 64) - 1)),
    "grid-points": _Flag(int, 5, "grid points per qubit for placement-search"),
    "points": _Flag(int, None, "number of samples on the scan axis", (2, 1_000_000)),
    "n-max": _Flag(int, 1000, "largest qubit count for the fig5 sweeps", (2, 10_000)),
    "length": _Flag(float, 1.0, "chain interval length L in meters"),
    "x0": _Flag(float, 0.0, "reference position x0 in meters"),
    "theta": _Flag(float, 0.0, "relative phase for the ghz-theta state, radians"),
    "gamma": _Flag(float, 1.0, "gyromagnetic ratio gamma (rad/s/T)"),
    "gamma-prime": _Flag(float, 1.0, "noise coupling gamma' (rad/s/T)"),
    "b0": _Flag(float, 0.0, "offset field B0 at x0 (T)"),
    "grad": _Flag(float, 0.0, "field gradient G (T/m)"),
    "t": _Flag(float, 1.0, "probing time in seconds"),
    "delta-e": _Flag(float, 0.0, "noise fluctuation strength Delta E (T)"),
    "tau-c": _Flag(float, 1.0, "noise correlation time tau_c in seconds"),
    "t-max": _Flag(float, None, "upper end of a time scan in seconds"),
    "gamma-t": _Flag(
        float, None, "sets gamma to this value and t = 1 (conflicts with --gamma/--t)"
    ),
    "dimensionless": _Flag(bool, False, "dimensionless mode: sets gamma = t = 1"),
    "factor-out-gamma-t": _Flag(bool, False, "report QFI divided by (gamma t)^2"),
    "normalized-index": _Flag(
        bool, False, "index-normalized tanh/tan placements (argument 2i/n - 1)"
    ),
    "placement": _Flag(
        PLACEMENT_KINDS, "equidistant", "qubit layout on [0, length]; explicit takes --positions"
    ),
    "state": _Flag(STATE_NAMES, "ghz", "probe state prepared on the chain"),
    "format": _Flag(("csv", "json"), "json", "output format"),
    "scenario": _Flag(
        ("known-b0", "unknown-b0", "noisy"), "known-b0",
        "offset field calibrated, unknown (one-sector probes only), or dephasing noise",
    ),
    "objective": _Flag(OBJECTIVES, "dfs-max", "figure of merit that placement-search maximizes"),
    "observable": _Flag(
        ("parity-x", "jx"), "parity-x", "readout: x-basis parity or collective J_x"
    ),
    "positions": _Flag(
        str, None, "comma-separated qubit positions (with --placement explicit)"
    ),
    "out": _Flag(str, None, "output file path (default: stdout; reproduce: <target>.csv)"),
    "config": _Flag(str, None, "flat key=value config file mirroring the flags"),
}

# reproduce target -> defaults that beat the command's and the flag table's
_TARGET_DEFAULTS = {
    "fig3": {
        "n": 50, "length": 1.0, "gamma_prime": 2.0 * math.pi * 50.0,
        "delta_e": 1.0, "tau_c": 1.0, "points": 20001, "t_max": 0.02,
    },
    "fig4": {"n": 100, "length": 1.0},
    "fig5a": {"length": 1.0},
    "fig5b": {"length": 1.0},
    "table1": {"n": 4, "length": 3.0},
}

_KIND_WORDS = {int: "an integer", float: "a number", bool: "a boolean"}
_BOOL_WORDS = {
    "true": True, "1": True, "yes": True, "on": True,
    "false": False, "0": False, "no": False, "off": False,
}


# ----------------------------------------------------------------------
# emission
# ----------------------------------------------------------------------


def _fmt_cell(value) -> str:
    if type(value) is float:  # most cells: test the exact type before the isinstance chain
        return repr(value)
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def emit_csv(columns: Sequence[str], rows: Sequence[Sequence]) -> str:
    lines = [CSV_MAGIC, ",".join(columns)]
    for row in rows:
        lines.append(",".join(map(_fmt_cell, row)))
    return "\n".join(lines) + "\n"


def emit_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _deliver(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(f"--out {out_path}: {exc}") from exc
    print(f"wrote {out_path}")


def _finite(n: int, columns: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Refuse a float column with inf or nan, which only float64 overflow gives here."""
    for name, cells in zip(columns, zip(*rows)):
        if isinstance(cells[0], float) and not all(map(math.isfinite, cells)):
            raise NumericOverflow(f"the {name} value overflows float64 at n = {n}")


def _emit(cfg: RunConfig, columns: Sequence[str], rows: Sequence[Sequence],
          payload: dict) -> int:
    """Deliver rows as CSV, or payload plus the parameter echo as JSON."""
    if cfg.format == "csv":
        text = emit_csv(columns, rows)
    else:
        text = emit_json({**payload, "params_echo": cfg.echo()})
    _deliver(text, cfg.out)
    return 0


# ----------------------------------------------------------------------
# configuration resolution
# ----------------------------------------------------------------------


def _parse_positions(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ValidationError(
            f"--positions must be a comma-separated list of numbers, got {text!r}"
        ) from exc
    if not values:
        raise ValidationError("--positions must contain at least one number")
    return values


def _read_config_file(path: str) -> dict:
    """Flat key=value file; keys use the flag spelling without dashes prefix.

    Returns the values keyed by attribute name (underscores for dashes).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ValidationError(f"--config {path}: {exc}") from exc
    values: dict = {}
    for lineno, line in enumerate(raw.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValidationError(
                f"--config {path}:{lineno}: expected key=value, got {stripped!r}"
            )
        key, _, text = stripped.partition("=")
        key = key.strip()
        text = text.strip()
        if key not in _FLAGS or key == "config":
            raise ValidationError(f"--config {path}: unknown key {key!r}")
        kind = _FLAGS[key].kind
        value = text
        if isinstance(kind, tuple) and text not in kind:
            raise ValidationError(
                f"config key {key}: must be one of {kind}, got {text!r}"
            )
        if kind in _KIND_WORDS:
            try:
                value = _BOOL_WORDS[text.lower()] if kind is bool else kind(text)
            except (KeyError, ValueError) as exc:
                raise ValidationError(
                    f"config key {key}: expected {_KIND_WORDS[kind]}, got {text!r}"
                ) from exc
        values[key.replace("-", "_")] = value
    return values


class RunConfig:
    """Fully resolved run settings: flag > config file > target default >
    command default > flag-table default."""

    def __init__(self, command: str, target: str | None, args: argparse.Namespace):
        self.command = command
        self.target = target
        flags = vars(args)
        file_values = _read_config_file(args.config) if args.config else {}
        layers = (
            flags, file_values, _TARGET_DEFAULTS.get(target, {}),
            _COMMANDS[command].defaults,
        )
        for flag, spec in _FLAGS.items():
            name = flag.replace("-", "_")
            value = next(
                (layer[name] for layer in layers if layer.get(name) is not None),
                spec.default,
            )
            setattr(self, name, value)

        explicit = lambda name: flags.get(name) is not None or name in file_values
        if self.gamma_t is not None:
            if explicit("gamma") or explicit("t"):
                raise ValidationError(
                    "--gamma-t conflicts with --gamma/--t; it sets gamma and t = 1"
                )
            self.gamma = float(self.gamma_t)
            self.t = 1.0
        if self.dimensionless:
            if explicit("gamma") or explicit("t") or self.gamma_t is not None:
                raise ValidationError(
                    "--dimensionless conflicts with --gamma/--t/--gamma-t; "
                    "it sets gamma = t = 1"
                )
            self.gamma = 1.0
            self.t = 1.0

        if self.positions is not None:
            self.positions = _parse_positions(self.positions)
            if self.placement != "explicit":
                if explicit("placement") or command == "reproduce":
                    raise ValidationError("--positions needs --placement explicit")
                self.placement = "explicit"
        if self.placement == "explicit":
            if self.positions is None:
                raise ValidationError("--placement explicit needs --positions")
            if explicit("n") and self.n != len(self.positions):
                raise ValidationError(
                    f"--n {self.n} does not match the {len(self.positions)} "
                    "values in --positions"
                )
            self.n = len(self.positions)

        for flag, spec in _FLAGS.items():
            value = getattr(self, flag.replace("-", "_"))
            if spec.bounds is None or value is None:
                continue
            low, high = spec.bounds
            if value < low:
                raise ValidationError(f"--{flag} must be ≥ {low}, got {value}")
            if value > high:
                raise ValidationError(f"--{flag} must be ≤ {high}, got {value}")
        if command == "reproduce" and self.format != "csv":
            raise ValidationError("reproduce emits CSV only; drop --format")

    # -- builders ------------------------------------------------------

    def chain(self) -> ChainConfig:
        if self.placement == "explicit":
            return make_chain(self.positions, self.x0)
        spec = PlacementSpec(
            self.placement, self.n, 0.0, self.length,
            normalized_index=self.normalized_index,
        )
        return generate_placement(spec, x0=self.x0)

    def params(self) -> PhysParams:
        return PhysParams(
            gamma=self.gamma, b0=self.b0, grad=self.grad, t=self.t,
            gamma_prime=self.gamma_prime, delta_e=self.delta_e, tau_c=self.tau_c,
        )

    def k_value(self) -> int:
        return self.n // 2 if self.k is None else self.k

    def m_value(self) -> int:
        if self.m is None:
            raise ValidationError(f"--m is required for --state {self.state}")
        return self.m

    def named_state(self) -> SparseState:
        if self.state in ("odf", "dicke"):
            return make_named_state(self.state, self.n, k=self.k_value())
        if self.state == "psi-m":
            return make_named_state("psi-m", self.n, m=self.m_value())
        return make_named_state(self.state, self.n, theta=self.theta)

    def echo(self) -> dict:
        keys = (
            "command", "scenario", "state", "k", "m", "theta",
            "n", "placement", "length", "x0", "positions", "normalized_index",
            "gamma", "b0", "grad", "t", "gamma_prime", "delta_e", "tau_c",
            "observable", "seed", "n_traj",
        )
        data = {key: getattr(self, key) for key in keys}
        if data["positions"] is not None:
            data["positions"] = list(data["positions"])
        return data


# ----------------------------------------------------------------------
# scenario dispatch
# ----------------------------------------------------------------------


def _check_offset_insensitive(cfg: RunConfig) -> None:
    if cfg.state == "product":  # every sector, on 2^n rows
        detail = "spans many excitation sectors"
    elif cfg.state == "dicke":  # one sector, on up to C(n, n/2) rows
        return
    else:
        k = cfg.named_state().bits.sum(axis=1)
        sectors = np.flatnonzero(np.bincount(k)).tolist()
        if len(sectors) == 1:
            return
        detail = f"spans excitation sectors {sectors[0]} and {sectors[1]}"
    raise ValidationError(
        f"--scenario unknown-b0 needs an offset-insensitive probe (one "
        f"excitation sector); --state {cfg.state} {detail}; use dicke or odf, "
        "or psi-m with m = n/2"
    )


def _state_qfi(cfg: RunConfig, config: ChainConfig, params: PhysParams) -> FisherReport:
    if cfg.state in ("ghz", "ghz-theta", "psi-m"):
        return qfi_pure(cfg.named_state(), config, params)
    if cfg.state == "product":
        return qfi_max_separable(config, params)
    if cfg.state == "odf":
        return _dfs_report(config, params, cfg.k_value())
    return qfi_dicke(config, params, cfg.k_value())


def cmd_qfi(cfg: RunConfig) -> int:
    config = cfg.chain()
    params = cfg.params()
    if cfg.scenario == "noisy":
        if cfg.state in ("ghz", "ghz-theta"):
            report = qfi_noisy_ghz(config, params)
        elif cfg.state == "psi-m":  # the gap of its branches: sum |f| only at the sign split
            f, flipped = config.f_array, cfg.named_state().bits[-1]  # 1^m 0..0, 1..1 at m = 0
            report = _dephased(params, abs(cfg.n - 2 * cfg.m_value()),
                               _fsum(np.where(flipped, -f, f)), "closed-form:noisy-psim")
        elif cfg.state in ("dicke", "odf"):  # one excitation sector: decoherence-free
            report = _state_qfi(cfg, config, params)
        else:
            raise ValidationError(
                f"--scenario noisy has no closed form for --state {cfg.state} "
                "(supported: ghz, ghz-theta, psi-m, dicke, odf)"
            )
    else:
        if cfg.scenario == "unknown-b0":
            _check_offset_insensitive(cfg)
        report = _state_qfi(cfg, config, params)
    return _emit_report(cfg, report)


def _emit_report(cfg: RunConfig, report: FisherReport) -> int:
    if not report.divergent:  # a divergent report's inf is its outcome, not an overflow
        _finite(cfg.n, (report.path,), ((report.value,),))
    columns = ("value", "path", "crb_variance")
    row = (report.value, report.path, report.crb_variance)
    return _emit(cfg, columns, (row,), dict(zip(columns, row)))


def _measured_state(cfg: RunConfig, params: PhysParams) -> State:
    state: State = cfg.named_state()
    if cfg.scenario == "noisy":
        state = apply_channel(state, NoiseModel.from_params(params), params.t)
    elif cfg.scenario == "unknown-b0":
        _check_offset_insensitive(cfg)
    return state


def cmd_cfi(cfg: RunConfig) -> int:
    config = cfg.chain()
    params = cfg.params()
    if cfg.observable == "jx" and cfg.n > _DENSE_CAP_QUBITS:
        _basis_excitations(cfg.n)  # raises the J_x cap's error before any state is built
    state = _measured_state(cfg, params)
    if cfg.observable == "jx":
        dist = jx_distribution(state, config, params)
    else:
        dist = parity_distribution(state, config, params)
    return _emit_report(cfg, classical_fisher(dist))


def cmd_parity(cfg: RunConfig) -> int:
    config = cfg.chain()
    params = cfg.params()
    state = _measured_state(cfg, params)
    value, grad = _parity_value_and_gradient(state, config, params)
    dist = _parity_outcomes(value, grad)
    err_prop = _propagated_variance(value, grad)  # null on a flat response
    columns = ("label", "probability", "derivative")
    return _emit(cfg, columns, dist.outcomes, {
        "value": value,
        "gradient": grad,
        "error_propagation": err_prop,
        "outcomes": [dict(zip(columns, outcome)) for outcome in dist.outcomes],
    })


def cmd_noise_scan(cfg: RunConfig) -> int:
    params = cfg.params()
    model = NoiseModel.from_params(params)
    t_max = cfg.t_max if cfg.t_max is not None else 3.0 * params.tau_c
    if not (math.isfinite(t_max) and t_max > 0):
        name = "--t-max" if cfg.t_max is not None else "the default --t-max, 3 × --tau-c,"
        raise ValidationError(f"{name} must be finite and > 0, got {t_max!r}")
    times = (t_max * (i / (cfg.points - 1)) for i in range(cfg.points))
    rows = [(t, correlation_integral(model, t), coherence_factor(model, t, cfg.n)) for t in times]
    columns = ("t", "correlation", "coherence")
    _finite(cfg.n, columns, rows)
    return _emit(cfg, columns, rows, {
        "columns": list(columns),
        "rows": [list(row) for row in rows],
    })


def cmd_tcrit(cfg: RunConfig) -> int:
    config = cfg.chain()
    params = cfg.params()
    t_crit = critical_time(config, params)
    t_opt, qfi_opt = optimal_time_ghz(config, params)
    columns = ("t_crit", "t_opt", "qfi_opt")
    row = (t_crit, t_opt, qfi_opt)
    _finite(cfg.n, columns, (row,))
    return _emit(cfg, columns, (row,), dict(zip(columns, row)))


def cmd_placement_search(cfg: RunConfig) -> int:
    config, report = brute_force_placement_search(
        cfg.n, cfg.length, cfg.objective, cfg.grid_points,
        x_start=0.0, params=cfg.params(),
    )
    _finite(cfg.n, (report.path,), ((report.value,),))
    kind = "all-at-end" if cfg.objective.endswith("known-b0") else "half-half"
    row = (
        cfg.objective, kind, report.value, report.crb_variance,
        ";".join(repr(x) for x in config.positions),
    )
    return _emit(
        cfg, ("objective", "kind", "value", "crb_variance", "positions"), (row,),
        {
            "objective": cfg.objective,
            "kind": kind,
            "value": report.value,
            "path": report.path,
            "crb_variance": report.crb_variance,
            "positions": list(config.positions),
        },
    )


# ----------------------------------------------------------------------
# reproduce
# ----------------------------------------------------------------------


def _table_text(table: TableOne) -> str:
    rows = [list(table.columns)] + [[label] + [repr(v) for v in values]
                                    for label, *values in table.rows]
    widths = [max(len(row[j]) for row in rows) for j in range(len(rows[0]))]
    lines = (
        "  ".join([row[0].ljust(widths[0])] + [c.rjust(w) for c, w in zip(row[1:], widths[1:])])
        for row in rows
    )
    return "".join(line.rstrip() + "\n" for line in lines)


def cmd_reproduce(cfg: RunConfig) -> int:
    target = cfg.target
    out_path = cfg.out if cfg.out is not None else f"{target}.csv"
    if target == "table1":
        table = table1(cfg.n, cfg.length, cfg.gamma * cfg.t)
        _finite(cfg.n, table.columns, table.rows)
        text = emit_csv(table.columns, table.rows)
        sys.stdout.write(_table_text(table))
        _deliver(text, out_path)
        base, ext = os.path.splitext(out_path)
        txt_path = (base if ext else out_path) + ".txt"
        _deliver(_table_text(table), txt_path)
        return 0
    if target == "fig3":
        sweep = sweep_fig3(
            cfg.chain(), cfg.params(), points=cfg.points, t_max=cfg.t_max,
            factor_out_gamma_t=cfg.factor_out_gamma_t,
        )
    elif target == "fig4":
        sweep = sweep_fig4(cfg.n, cfg.length, cfg.gamma * cfg.t)
    else:
        case = "a" if target == "fig5a" else "b"
        sweep = sweep_fig5(range(2, cfg.n_max + 1), cfg.length, case, cfg.gamma * cfg.t)
    _finite(cfg.n, sweep.columns, sweep.rows)
    _deliver(emit_csv(sweep.columns, sweep.rows), out_path)
    return 0


# ----------------------------------------------------------------------
# validate
# ----------------------------------------------------------------------


def _pure(state: SparseState, config: ChainConfig, params: PhysParams):
    return qfi_pure(state, config, params), state


# check name, one probe per excitation sector k = 0..n?, and
# (config, params, k) -> (closed-form report, probe state for qfi_general)
_CLOSED_FORM_CHECKS = (
    ("ghz", False, lambda c, p, k: _pure(make_named_state("ghz", c.n), c, p)),
    ("max-entangled", False, lambda c, p, k: qfi_max_entangled(c, p)),
    ("product", False, lambda c, p, k: (
        qfi_max_separable(c, p), make_named_state("product", c.n))),
    ("odf", True, lambda c, p, k: qfi_dfs_subspace(c, p, k)),
    ("dicke", True, lambda c, p, k: (
        qfi_dicke(c, p, k), make_named_state("dicke", c.n, k=k))),
    ("psim", True, lambda c, p, k: _pure(make_named_state("psi-m", c.n, m=k), c, p)),
    ("steady", False, lambda c, p, k: (
        qfi_product_steady(c, p), steady_twirl(make_named_state("product", c.n)))),
    ("noisy-ghz", False, lambda c, p, k: (
        qfi_noisy_ghz(c, p),
        apply_channel(make_named_state("ghz", c.n), NoiseModel.from_params(p), p.t))),
)


def cmd_validate(cfg: RunConfig) -> int:
    """Oracle-equivalence suite: closed forms vs the spectral evaluator,
    parity CFI vs QFI, and Monte Carlo coherence vs the analytic factor.

    All PASS lines are numberless except the Monte Carlo estimate, which
    is computed without BLAS; output is byte-stable across thread counts.
    """
    tol = 1e-9
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    chains: list[tuple[ChainConfig, PhysParams, float]] = []
    for n in range(2, 7):
        for _ in range(2):
            xs = np.sort(rng.uniform(-1.0, 1.0, size=n))
            x0 = float(rng.uniform(-0.25, 0.25))
            params = PhysParams(
                gamma=float(rng.uniform(0.5, 2.0)),
                b0=float(rng.uniform(-1.0, 1.0)),
                grad=float(rng.uniform(-1.0, 1.0)),
                t=float(rng.uniform(0.5, 2.0)),
                gamma_prime=float(rng.uniform(0.5, 2.0)),
                delta_e=float(rng.uniform(0.5, 1.5)),
                tau_c=float(rng.uniform(0.5, 2.0)),
            )
            config = make_chain(xs, x0)
            gt = params.gamma * params.t
            scale = max(gt * gt * sum(map(abs, config.f_array.tolist())) ** 2, 1.0)
            chains.append((config, params, scale))

    lines: list[str] = []
    failed: list[str] = []

    def run_check(name: str, pairs: list[tuple[float, float, float]]):
        worst = 0.0
        for a, b, scale in pairs:
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), scale))
        if worst <= tol:
            lines.append(f"PASS {name}")
        else:
            lines.append(f"FAIL {name} worst_rel={worst:.3e}")
            failed.append(name)

    for name, per_sector, closed_form in _CLOSED_FORM_CHECKS:
        pairs = []
        for config, params, scale in chains:
            for k in range(config.n + 1) if per_sector else (None,):
                report, probe = closed_form(config, params, k)
                pairs.append((report.value, qfi_general(probe, config, params).value, scale))
        run_check(f"closed-form-{name}", pairs)

    pairs = []
    for config, params, scale in chains:
        probes = [make_named_state("ghz", config.n)]
        if config.n % 2 == 0:
            probes.append(make_named_state("odf", config.n, k=config.n // 2))
        for probe in probes:
            pairs.append((
                classical_fisher(parity_distribution(probe, config, params)).value,
                qfi_pure(probe, config, params).value, scale,
            ))
    run_check("parity-cfi", pairs)

    # Monte Carlo coherence vs analytic decay, 3 standard-error band
    model = NoiseModel(gamma_prime=0.25, delta_e=1.0, tau_c=1.0)
    ens = TrajectoryEnsemble(cfg.n_traj, seed=cfg.seed)
    weight = 4
    mc_ok = True
    worst_pull = 0.0
    estimate = 0.0
    for t in (model.tau_c / 50.0, model.tau_c / 2.0, 2.0 * model.tau_c):
        estimate = mc_coherence_magnitude(model, t, weight, ens)
        d = coherence_factor(model, t, weight)
        d2 = coherence_factor(model, t, 2 * weight)
        sigma2 = max(0.5 * (1.0 + d2) - d * d, 0.0)
        se = math.sqrt(sigma2 / ens.n_traj)
        band = 3.0 * se + 1e-12
        worst_pull = max(worst_pull, abs(estimate - d) / band)
        if abs(estimate - d) > band:
            mc_ok = False
    if mc_ok:
        lines.append(f"PASS mc-coherence estimate={estimate:.12e}")
    else:
        lines.append(f"FAIL mc-coherence worst_pull_over_band={worst_pull:.3e}")
        failed.append("mc-coherence")

    lines.append(
        "all checks passed" if not failed else f"{len(failed)} checks failed"
    )
    _deliver("\n".join(lines) + "\n", cfg.out)
    return 0 if not failed else 1


# ----------------------------------------------------------------------
# parser and entry point
# ----------------------------------------------------------------------


class _Command(NamedTuple):
    handler: Callable[[RunConfig], int]
    help: str
    defaults: dict  # attribute name -> value; beats the flag table's default


_COMMANDS = {
    "qfi": _Command(cmd_qfi, "quantum Fisher information of a probe state", {}),
    "cfi": _Command(
        cmd_cfi, "classical Fisher information of a measured distribution", {}
    ),
    "parity": _Command(
        cmd_parity, "parity expectation value, gradient, and outcome table", {}
    ),
    "noise-scan": _Command(
        cmd_noise_scan, "correlation integral and coherence factor over time",
        {"format": "csv", "points": 101},
    ),
    "tcrit": _Command(
        cmd_tcrit, "GHZ/decoherence-free crossover and optimal probing time", {}
    ),
    "reproduce": _Command(
        cmd_reproduce, "write a reference figure or table as CSV", {"format": "csv"}
    ),
    "validate": _Command(
        cmd_validate, "run the oracle-equivalence and Monte Carlo self-checks",
        {"n_traj": 20000},
    ),
    "placement-search": _Command(
        cmd_placement_search, "exhaustive grid search over qubit placements", {}
    ),
}


# argparse reads only -N and -N.N as negative numbers, so in `--x0 -1e2` or
# `--positions -1,0,1` it takes the value for another option; these patterns
# pick out such values of the float flags and --positions
_UNSIGNED = r"(?:\d+|\d*\.\d+)(?:[eE][-+]?\d+)?"
_NEGATIVE_VALUE = {
    f"--{flag}": re.compile(
        rf"-{_UNSIGNED}(?:,-?{_UNSIGNED})*" if flag == "positions" else f"-{_UNSIGNED}"
    )
    for flag, spec in _FLAGS.items()
    if spec.kind is float or flag == "positions"
}


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that attaches a negative value to its flag (`--x0=-1e2`)."""

    def parse_known_args(self, args=None, namespace=None):
        args = list(sys.argv[1:] if args is None else args)
        for i in range(len(args) - 1, 0, -1):
            pattern = _NEGATIVE_VALUE.get(args[i - 1])
            if pattern is not None and pattern.fullmatch(args[i]):
                args[i - 1:i + 1] = [f"{args[i - 1]}={args[i]}"]
        return super().parse_known_args(args, namespace)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, with the flag table on each or on `command` alone."""
    parser = _Parser(
        prog="gradqfi",
        description=(
            "Fisher-information bounds for field-gradient estimation with "
            "qubit chains.  All flags are in SI units (--length/--x0 in "
            "meters, --t/--tau-c in seconds, fields in tesla); "
            "--dimensionless sets gamma = t = 1."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        sp = sub.add_parser(name, help=cmd.help)
        if name == "reproduce":
            sp.add_argument("target", choices=tuple(_TARGET_DEFAULTS))
        if command not in (None, name):
            continue
        for flag, spec in _FLAGS.items():
            if spec.kind is bool:
                sp.add_argument(f"--{flag}", action="store_const", const=True, help=spec.help)
            elif isinstance(spec.kind, tuple):
                sp.add_argument(f"--{flag}", choices=spec.kind, help=spec.help)
            else:
                sp.add_argument(f"--{flag}", type=spec.kind, help=spec.help)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top level takes no option with a value, so argparse runs the first
    # word that is not an option as the command: only it needs the flags
    args = build_parser(next((a for a in argv if not a.startswith("-")), "")).parse_args(argv)
    try:
        cfg = RunConfig(args.command, getattr(args, "target", None), args)
        return _COMMANDS[args.command].handler(cfg)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError:  # a Python float power in table1's or the placement search's sums
        print(f"error: the {cfg.target or cfg.command} value overflows float64 at n = {cfg.n}",
              file=sys.stderr)
        return 1
