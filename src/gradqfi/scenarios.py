"""Placement generators, time-budget analysis, and figure/table pipelines.

Covers: the standard spatial distributions (equidistant, all-at-end,
half-half, tanh- and tan-shaped), the GHZ-vs-decoherence-free crossover
time, the optimal probing time under collective dephasing, a brute-force
placement search that cross-checks the analytic optima, and the sweep
builders behind the fig3/fig4/fig5a/fig5b/table1 reproduction targets.

Conventions: sweeps report QFI values including the (gamma*t)^2
prefactor unless a factor-out flag says otherwise; every sweep is a pure
function of its arguments, so outputs are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import ChainConfig, PhysParams, _frozen, _fsum, _spread, make_chain
from .errors import (
    DegenerateGeometry,
    NoNoise,
    NumericOverflow,
    OutOfRange,
    SearchSpaceTooLarge,
    SelfCheckFailed,
)
from .noise import NoiseModel, coherence_factor
from .qfi import (
    FisherReport, _dfs_pair_sum, _gt2, _dfs_report, _dfs_value, _dicke, _fisher_value, _ghz,
    _separable, qfi_max_entangled, qfi_max_separable, qfi_product_steady,
)

PLACEMENT_KINDS = ("equidistant", "all-at-end", "half-half", "tanh", "tan", "explicit")

# each placement-search objective and the placement that is its analytic optimum
OPTIMAL_PLACEMENT = {"entangled-known-b0": "all-at-end", "separable-known-b0": "all-at-end",
                     "dfs-max": "half-half", "product-steady": "half-half"}
OBJECTIVES = tuple(OPTIMAL_PLACEMENT)


def _check_length(length: float) -> None:
    if not (math.isfinite(length) and length > 0):
        raise OutOfRange(f"length must be > 0, got {length!r}")


@dataclass(frozen=True)
class PlacementSpec:
    """How to lay n qubits in the interval [x_start, x_start + length].

    The tanh/tan kinds implement the distribution formulas verbatim,
    which scale the qubit index by the interval length (argument
    2i/length - 1); set normalized_index=True for the index-normalized
    variant (argument 2i/n - 1), which keeps its shape for every length.
    """

    kind: str
    n: int
    x_start: float = 0.0
    length: float = 1.0
    positions: tuple[float, ...] | None = None
    normalized_index: bool = False

    def __post_init__(self):
        if self.kind not in PLACEMENT_KINDS:
            raise OutOfRange(f"placement kind must be one of {PLACEMENT_KINDS}, got {self.kind!r}")
        if self.n < 1:
            raise OutOfRange(f"n must be >= 1, got {self.n!r}")
        if not math.isfinite(self.x_start):
            raise OutOfRange(f"x_start must be finite, got {self.x_start!r}")
        _check_length(self.length)
        if self.kind == "explicit":
            if self.positions is None:
                raise OutOfRange("explicit placement requires positions")
            object.__setattr__(self, "positions", tuple(float(x) for x in self.positions))
        elif self.positions is not None:
            raise OutOfRange(f"{self.kind} placement does not take explicit positions")


def generate_placement(spec: PlacementSpec, x0: float | None = None) -> ChainConfig:
    """Realize a placement as a ChainConfig (reference x0 defaults to x_start).

    Shapes:
      equidistant  x_i = x_start + (i-1) L/(n-1), needs n >= 2
      all-at-end   every qubit at x_start + L
      half-half    floor(n/2) qubits at x_start, the rest at x_start + L
      tanh         x_i = x_start + (L/2)(1 + tanh[pi u_i])
      tan          x_i = x_start + (L/2)(1 + tan[pi u_i / 4])
    with u_i = 2i/L - 1 (verbatim) or 2i/n - 1 (normalized_index).  The
    tan shape has poles for some (n, L) in verbatim form; positions are
    checked against the interval and rejected rather than silently bent.
    """
    n = spec.n
    a = spec.x_start
    length = spec.length
    ref = a if x0 is None else float(x0)

    if spec.kind == "explicit":
        return make_chain(spec.positions, ref)
    if spec.kind == "equidistant":
        if n < 2:
            raise OutOfRange(f"equidistant placement needs n >= 2, got {n}")
        with np.errstate(over="ignore", invalid="ignore"):  # inf silently, as float arithmetic
            pos = _equidistant(a, length, n)
    elif spec.kind == "all-at-end":
        pos = [a + length] * n
    elif spec.kind == "half-half":
        pos = [a] * (n // 2) + [a + length] * (n - n // 2)
    else:
        pos = []
        for i in range(1, n + 1):
            u = (2.0 * i / n - 1.0) if spec.normalized_index else (2.0 * i / length - 1.0)
            if spec.kind == "tanh":
                pos.append(a + 0.5 * length * (1.0 + math.tanh(math.pi * u)))
            else:
                pos.append(a + 0.5 * length * (1.0 + math.tan(0.25 * math.pi * u)))
        slack = 1e-9 * max(1.0, length)
        for x in pos:
            if not (math.isfinite(x) and a - slack <= x <= a + length + slack):
                raise OutOfRange(
                    f"{spec.kind} placement puts a qubit at {x!r}, outside "
                    f"[{a!r}, {a + length!r}]; the index-normalized variant "
                    "(normalized_index=True) stays inside for every length"
                )
    return make_chain(pos, ref)


def _equidistant(a: float, length: float, n: int) -> np.ndarray:
    """x_i = a + (i-1) L/(n-1), i = 1..n >= 2, as a float64 vector."""
    return a + length * (np.arange(n) / (n - 1))


# ----------------------------------------------------------------------
# time budgets under collective dephasing
# ----------------------------------------------------------------------


def critical_time(config: ChainConfig, params: PhysParams) -> float:
    """Probing time where the dephased GHZ probe stops beating the best DFS probe.

    t_crit = sqrt(2 log[(sum f)^2 / (pair sum)^2]) / (N gamma' delta_e),
    using the small-t coherence approximation.  If the DFS probe is at
    least as good from the start (ratio <= 1) the crossover is now:
    returns 0.0.
    """
    rate = config.n * params.gamma_prime * params.delta_e
    if rate == 0.0:
        raise NoNoise("gamma_prime * delta_e must be > 0 for a crossover time")
    full_sum = _fsum(config.f_array)
    pair_sum = _dfs_pair_sum(config.f_array, config.n // 2)
    if full_sum == 0.0 or pair_sum == 0.0:
        raise DegenerateGeometry("crossover needs nonzero profile sum and nonzero pair sum")
    ratio = (full_sum * full_sum) / (pair_sum * pair_sum)
    if ratio <= 1.0:
        return 0.0
    return math.sqrt(2.0 * math.log(ratio)) / rate


def _golden_max(fn: Callable[[float], float], lo: float, hi: float) -> float:
    """Golden-section maximizer of a unimodal function on [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(400):
        if b - a <= 1e-13 * max(abs(a), abs(b)):
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def optimal_time_ghz(config: ChainConfig, params: PhysParams) -> tuple[float, float]:
    """Optimal GHZ probing time under dephasing and the QFI reached there.

    Returns t_opt = sqrt(2)/(N gamma' delta_e) and
    QFI(t_opt) = 2 gamma^2 (sum f)^2 / (e (N gamma' delta_e)^2), the
    small-t (tau_c >> t_opt) optimum of the coherence-weighted response
    d(t) (gamma t)^2 (sum f)^2.  When tau_c >= 100 t_opt the analytic
    pair is cross-checked against a golden-section maximization of that
    response and a disagreement beyond 0.5% raises SelfCheckFailed.
    """
    rate = config.n * params.gamma_prime * params.delta_e
    if rate == 0.0:
        raise NoNoise("gamma_prime * delta_e must be > 0 for an optimal time")
    t_opt = math.sqrt(2.0) / rate
    full_sum = _fsum(config.f_array)
    gg = params.gamma * params.gamma
    num, den = 2.0 * gg * full_sum * full_sum, math.e * rate * rate
    qfi_opt = num / den if den else num * math.inf  # x / +0.0 (rate^2 underflows), as IEEE

    if params.tau_c >= 100.0 * t_opt and full_sum != 0.0:
        model = NoiseModel.from_params(params)
        n = config.n
        fs2 = full_sum * full_sum

        def response(t: float) -> float:
            return coherence_factor(model, t, n) * gg * t * t * fs2

        t_num = _golden_max(response, 0.1 * t_opt, 10.0 * t_opt)
        v_num = response(t_num)
        if abs(t_num - t_opt) > 0.005 * t_opt or abs(v_num - qfi_opt) > 0.005 * qfi_opt:
            raise SelfCheckFailed(
                f"numeric optimum (t={t_num!r}, qfi={v_num!r}) deviates from the "
                f"analytic pair (t={t_opt!r}, qfi={qfi_opt!r}) by more than 0.5%"
            )
    return t_opt, qfi_opt


# ----------------------------------------------------------------------
# brute-force placement search
# ----------------------------------------------------------------------


def _geometry_value(objective: str, xs: Sequence[float]) -> float:
    n = len(xs)
    if objective == "entangled-known-b0":
        s = sum(abs(x) for x in xs)
        return s * s
    if objective == "separable-known-b0":
        return sum(x ** 2 for x in xs)
    if objective == "dfs-max":
        s = sum(xs[i] - xs[n - 1 - i] for i in range(n // 2))
        return s * s
    # product-steady
    mean = sum(xs) / n
    return sum((x - mean) ** 2 for x in xs)


def brute_force_placement_search(
    n: int,
    length: float,
    objective: str,
    grid_points: int = 5,
    *,
    params: PhysParams | None = None,
) -> tuple[ChainConfig, FisherReport]:
    """Exhaustive placement search on a uniform grid, checked against theory.

    Evaluates the objective over every multiset of n grid positions
    {j L/(grid_points-1)} (reference point 0) and verifies that the analytic
    optimum OPTIMAL_PLACEMENT[objective] (all-at-end for the known-offset
    objectives, half-half for the decoherence-free and steady-state ones)
    attains the best value found; returns that analytic placement with its
    report.  A grid point beating the analytic optimum raises SelfCheckFailed.
    """
    if objective not in OBJECTIVES:
        raise OutOfRange(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    if not 1 <= n <= 8:
        raise SearchSpaceTooLarge(f"search needs 1 <= n <= 8, got {n}")
    if not 2 <= grid_points <= 11:
        raise SearchSpaceTooLarge(f"search needs 2 <= grid_points <= 11, got {grid_points}")
    _check_length(length)
    if params is None:
        params = PhysParams()

    grid = [length * (j / (grid_points - 1)) for j in range(grid_points)]
    best = -math.inf
    best_xs: tuple[float, ...] = ()
    for xs in combinations_with_replacement(grid, n):
        value = _geometry_value(objective, xs)
        if value > best:
            best = value
            best_xs = xs

    analytic_kind = OPTIMAL_PLACEMENT[objective]
    config = generate_placement(PlacementSpec(analytic_kind, n, 0.0, length))
    if objective == "entangled-known-b0":
        report = qfi_max_entangled(config, params)[0]
    elif objective == "separable-known-b0":
        report = qfi_max_separable(config, params)
    elif objective == "dfs-max":
        report = _dfs_report(config, params, config.n // 2, "closed-form:dfs-max")
    else:
        report = qfi_product_steady(config, params)

    gt = params.gamma * params.t
    if gt == 0.0:
        raise OutOfRange("placement comparison needs gamma * t > 0")
    analytic_geom = report.value / (gt * gt)
    if best > analytic_geom * (1.0 + 1e-9) + 1e-12:
        raise SelfCheckFailed(
            f"grid placement {best_xs!r} with value {best!r} beats the analytic "
            f"{analytic_kind} optimum {analytic_geom!r} for objective {objective!r}"
        )
    return config, report


# ----------------------------------------------------------------------
# sweeps and the summary table
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SweepResult:
    """Figure data: column names (the axis first) and numeric rows sorted by the axis,
    checked here; the library's sweeps are built unchecked (core._frozen)."""

    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise OutOfRange(
                    f"row width {len(row)} does not match {len(self.columns)} columns"
                )
        axis_values = [row[0] for row in self.rows]
        if any(b < a for a, b in zip(axis_values, axis_values[1:])):
            raise OutOfRange("rows must be sorted by the axis value")

    def column(self, name: str) -> tuple[float, ...]:
        idx = self.columns.index(name)
        return tuple(row[idx] for row in self.rows)


def sweep_fig3(
    config: ChainConfig | None = None,
    params: PhysParams | None = None,
    *,
    points: int = 20001,
    t_max: float = 0.02,
    factor_out_gamma_t: bool = False,
) -> SweepResult:
    """Dephased-GHZ QFI against probing time (single interior maximum).

    Defaults reproduce the reference setting: N = 50 equidistant in 1 m,
    gamma'*delta_e = 2*pi*50 Hz, tau_c = 1 s.  The emitted column is the
    coherence-weighted response d(t) (gamma t)^2 (sum f)^2, whose
    maximum sits at sqrt(2)/(N gamma' delta_e) with d = 1/e there; with
    factor_out_gamma_t the (gamma t)^2 prefactor is divided out.
    """
    if points < 2:
        raise OutOfRange(f"points must be >= 2, got {points}")
    if not (math.isfinite(t_max) and t_max > 0):
        raise OutOfRange(f"t_max must be finite and > 0, got {t_max!r}")
    if config is None:
        config = generate_placement(PlacementSpec("equidistant", 50, 0.0, 1.0))
    if params is None:
        params = PhysParams(gamma=1.0, gamma_prime=2.0 * math.pi * 50.0, delta_e=1.0, tau_c=1.0)
    model = NoiseModel.from_params(params)
    full_sum = _fsum(config.f_array)
    geo = full_sum * full_sum
    n = config.n
    rows = []
    for t in (t_max * (i / (points - 1)) for i in range(points)):
        d = coherence_factor(model, t, n)
        rows.append((t, d * geo if factor_out_gamma_t else d * geo * (params.gamma * t) ** 2))
    return _frozen(SweepResult, ("t", "qfi"), tuple(rows))


def sweep_fig4(n: int = 100, length: float = 1.0, gamma_t: float = 1.0) -> SweepResult:
    """Decoherence-free QFI against excitation number k for four placements.

    Columns at k = n/2 obey half-half >= tanh >= equidistant >= tan; all
    curves are symmetric about n/2 exactly.  The tanh/tan placements always
    use the index-normalized variant so the shapes survive length != n (the
    verbatim variant collapses toward the interval end whenever 2i/length
    is large).
    """
    if n < 2:
        raise OutOfRange(f"n must be >= 2, got {n}")
    params = PhysParams(gamma=gamma_t, t=1.0)
    kinds = ("half-half", "tanh", "equidistant", "tan")
    configs = {}
    for kind in kinds:
        configs[kind] = generate_placement(
            PlacementSpec(kind, n, 0.0, length, normalized_index=kind in ("tanh", "tan"))
        )
    rows = []
    for k in range(n + 1):
        rows.append(
            (float(k),)
            + tuple(_dfs_report(configs[kind], params, k).value for kind in kinds)
        )
    return _frozen(SweepResult, ("k",) + kinds, tuple(rows))


def sweep_fig5(
    n_range: Iterable[int] | None = None,
    length: float = 1.0,
    case: str = "full-knowledge",
    gamma_t: float = 1.0,
) -> SweepResult:
    """QFI scaling with qubit number for equidistant chains.

    case "full-knowledge" (fig5a): GHZ (~N^2) and product (~N) probes
    with the offset field known.  case "no-knowledge" (fig5b): the
    decoherence-free families: balanced two-branch (~N^2), half-filled
    Dicke (~N), W (constant, -> (gamma t L)^2/3), steady product (~N).

    Each n builds only the equidistant profile f (x0 = 0) and no state: every
    column is a closed form's value helper, so each value is bit for bit the
    public function's (GHZ: qfi_noisy_ghz at delta_e = 0, where d = 1.0).
    Case b forms the spread sum (f_i - mean f)^2 once per n, as a chain does.
    """
    aliases = {
        "full-knowledge": "a", "fig5a": "a", "a": "a",
        "no-knowledge": "b", "fig5b": "b", "b": "b",
    }
    if case not in aliases:
        raise OutOfRange(f"case must be full-knowledge or no-knowledge, got {case!r}")
    tag = aliases[case]
    ns = sorted(set(int(n) for n in n_range)) if n_range is not None else list(range(2, 1001))
    if not ns:
        raise OutOfRange("n_range must contain at least one qubit count")
    if ns[0] < 2:
        raise OutOfRange(f"n_range values must be >= 2, got {ns[0]}")
    params = PhysParams(gamma=gamma_t, t=1.0)
    _check_length(length)
    gt2 = _gt2(params)
    columns = ("n", "ghz", "product") if tag == "a" else (
        "n", "odf-half", "dicke-half", "w", "steady-product"
    )
    rows = []
    with np.errstate(over="ignore", invalid="ignore"):  # inf/nan silently, as float arithmetic
        for n in ns:
            f = _equidistant(0.0, length, n)
            if tag == "a":
                values = (_ghz(gt2, f), _separable(gt2, f))
            else:
                spread = _spread(f - f.mean())
                values = (_dfs_value(gt2, f, n // 2), _dicke(gt2, n, n // 2, spread),
                          _dicke(gt2, n, 1, spread), gt2 * spread)
            for name, value in zip(columns[1:], values):
                if not math.isfinite(value):
                    raise NumericOverflow(f"the {name} value overflows float64 at n = {n}")
            rows.append((float(n), *map(_fisher_value, values)))
    return _frozen(SweepResult, columns, tuple(rows))


def fit_loglog_slope(ns: Sequence[float], values: Sequence[float]) -> float:
    """Least-squares slope of log10(value) against log10(n)."""
    x = np.log10(np.asarray(ns, dtype=np.float64))
    y = np.log10(np.asarray(values, dtype=np.float64))
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


TABLE1_ROWS = ("ghz", "product", "odf-half", "steady-product")
TABLE1_COLUMNS = ("state", "general", "optimal", "equidistant")


@dataclass(frozen=True)
class TableOne:
    """The 4x3 summary grid of QFI values, self-checked against closed forms."""

    rows: tuple[tuple[str, float, float, float], ...]

    @property
    def columns(self) -> tuple[str, ...]:
        return TABLE1_COLUMNS

    def row(self, label: str) -> tuple[float, float, float]:
        for name, *values in self.rows:
            if name == label:
                return tuple(values)
        raise KeyError(label)


def table1(n: int = 4, length: float = 3.0, gamma_t: float = 1.0) -> TableOne:
    """QFI of the four probe families x (general, optimal, equidistant).

    The general column evaluates the position-sum formulas on the
    equidistant chain, each sum over the positions correctly rounded
    (core._fsum); the optimal column evaluates the library closed forms
    on the analytically optimal placement; the equidistant column
    evaluates them on the equidistant chain.  No state is built: the GHZ
    cells are the closed form (gamma t)^2 (sum f)^2.  Every cell is
    cross-checked against its symbolic expression to relative 1e-12
    (mismatch raises SelfCheckFailed).  Needs even n: the balanced
    two-branch symbolic expression assumes the even pair sum.
    """
    if n < 2 or n % 2 != 0:
        raise OutOfRange(f"table needs even n >= 2, got {n}")
    _check_length(length)
    if not (math.isfinite(gamma_t) and gamma_t > 0):
        raise OutOfRange(f"gamma_t must be > 0, got {gamma_t!r}")
    params = PhysParams(gamma=gamma_t, t=1.0)
    gt2 = gamma_t * gamma_t
    equi = generate_placement(PlacementSpec("equidistant", n, 0.0, length))
    at_end = generate_placement(PlacementSpec("all-at-end", n, 0.0, length))
    half = generate_placement(PlacementSpec("half-half", n, 0.0, length))
    xs = np.array(equi.positions)

    # general-column formulas evaluated directly on the equidistant positions
    with np.errstate(over="ignore"):  # inf silently, as float arithmetic
        sum_x, sum_x2 = _fsum(xs), _fsum(xs * xs)
    ghz_general = gt2 * sum_x ** 2
    product_general = gt2 * sum_x2
    odf_general = gt2 * _dfs_pair_sum(xs, n // 2) ** 2
    steady_general = gt2 * (sum_x2 - sum_x ** 2 / n)

    # symbolic optimal / equidistant cells
    l2 = length * length
    cells = {
        "ghz": (
            ghz_general,
            _ghz(gt2, at_end.f_array),
            _ghz(gt2, equi.f_array),
            gt2 * l2 * n * n,
            gt2 * l2 * n * n / 4.0,
        ),
        "product": (
            product_general,
            qfi_max_separable(at_end, params).value,
            qfi_max_separable(equi, params).value,
            gt2 * l2 * n,
            gt2 * l2 * n * (2 * n - 1) / (6.0 * (n - 1)),
        ),
        "odf-half": (
            odf_general,
            _dfs_report(half, params, half.n // 2).value,
            _dfs_report(equi, params, equi.n // 2).value,
            gt2 * l2 * n * n / 4.0,
            gt2 * l2 * n**4 / (16.0 * (n - 1) ** 2),
        ),
        "steady-product": (
            steady_general,
            qfi_product_steady(half, params).value,
            qfi_product_steady(equi, params).value,
            gt2 * l2 * n / 4.0,
            gt2 * l2 * n * (n + 1) / (12.0 * (n - 1)),
        ),
    }

    rows = []
    for label in TABLE1_ROWS:
        general, optimal, equidistant, optimal_symbolic, equi_symbolic = cells[label]
        for pair, tag in (
            ((optimal, optimal_symbolic), "optimal"),
            ((equidistant, equi_symbolic), "equidistant"),
            ((general, equidistant), "general"),
        ):
            a, b = pair
            if abs(a - b) > 1e-12 * max(abs(a), abs(b), 1e-300):
                raise SelfCheckFailed(
                    f"table cell {label}/{tag}: value {a!r} deviates from its "
                    f"symbolic expression {b!r} beyond relative 1e-12"
                )
        rows.append((label, general, optimal, equidistant))
    return TableOne(tuple(rows))
