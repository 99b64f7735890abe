"""Placements, time budgets, brute-force search, and the figure/table sweeps."""

import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

import gradqfi.scenarios
from gradqfi import (
    ComputationError,
    DegenerateGeometry,
    FisherReport,
    NoNoise,
    NonFiniteCoordinate,
    NumericOverflow,
    NoiseModel,
    OutOfRange,
    PhysParams,
    PlacementSpec,
    SearchSpaceTooLarge,
    SelfCheckFailed,
    SweepResult,
    brute_force_placement_search,
    coherence_factor,
    critical_time,
    fit_loglog_slope,
    generate_placement,
    make_chain,
    optimal_time_ghz,
    qfi_dfs_max,
    qfi_dfs_subspace,
    qfi_max_entangled,
    qfi_max_separable,
    qfi_noisy_ghz,
    sweep_fig3,
    sweep_fig4,
    sweep_fig5,
    table1,
    theta_for_saturation,
)
from gradqfi.qfi import _dfs_pair_sum

from conftest import reference_sweep_fig5


# ----------------------------------------------------------------------
# placements
# ----------------------------------------------------------------------


def test_equidistant_placement_hits_both_endpoints():
    chain = generate_placement(PlacementSpec("equidistant", 5, x_start=-1.0, length=2.0))
    assert chain.positions == (-1.0, -0.5, 0.0, 0.5, 1.0)
    # reference point defaults to the interval start
    assert chain.f_values == (0.0, 0.5, 1.0, 1.5, 2.0)


def test_all_at_end_and_half_half_layouts():
    at_end = generate_placement(PlacementSpec("all-at-end", 3, 0.0, 2.0))
    assert at_end.positions == (2.0, 2.0, 2.0)
    half = generate_placement(PlacementSpec("half-half", 5, 0.0, 1.0))
    assert half.positions == (0.0, 0.0, 1.0, 1.0, 1.0)


def test_tanh_placement_normalized_variant_is_symmetric():
    chain = generate_placement(
        PlacementSpec("tanh", 8, 0.0, 3.0, normalized_index=True)
    )
    pos = np.asarray(chain.positions)
    assert np.all(pos >= 0.0) and np.all(pos <= 3.0)
    # u_i = 2i/n - 1 pairs i and n+1-i symmetrically around... the
    # midpoint shifts by one index step, so check the formula directly
    for rank, x in enumerate(sorted(chain.positions)):
        u = 2.0 * (rank + 1) / 8 - 1.0
        assert x == pytest.approx(1.5 * (1.0 + math.tanh(math.pi * u)), abs=1e-12)


def test_tan_placement_verbatim_can_leave_the_interval():
    # 2i/length - 1 grows without bound for small length, pushing the tan
    # shape outside [x_start, x_start + length]
    with pytest.raises(OutOfRange, match="normalized_index"):
        generate_placement(PlacementSpec("tan", 2, 0.0, 0.8))
    inside = generate_placement(PlacementSpec("tan", 2, 0.0, 0.8, normalized_index=True))
    assert all(0.0 <= x <= 0.8 for x in inside.positions)


def test_explicit_placement_passthrough():
    chain = generate_placement(
        PlacementSpec("explicit", 3, positions=(0.4, 0.1, 0.9)), x0=0.2
    )
    assert chain.positions == (0.1, 0.4, 0.9)
    assert chain.x0 == 0.2


def test_placement_spec_validation():
    with pytest.raises(OutOfRange):
        PlacementSpec("spiral", 4)
    with pytest.raises(OutOfRange):
        PlacementSpec("equidistant", 0)
    with pytest.raises(OutOfRange):
        PlacementSpec("equidistant", 4, length=0.0)
    with pytest.raises(OutOfRange):
        PlacementSpec("explicit", 2)
    with pytest.raises(OutOfRange):
        PlacementSpec("equidistant", 2, positions=(0.0, 1.0))
    with pytest.raises(OutOfRange):
        generate_placement(PlacementSpec("equidistant", 1))


# ----------------------------------------------------------------------
# critical and optimal times
# ----------------------------------------------------------------------


def _equi_chain(n, rate=2.0 * math.pi * 50.0):
    chain = generate_placement(PlacementSpec("equidistant", n, 0.0, 1.0))
    params = PhysParams(gamma_prime=rate, delta_e=1.0, tau_c=1.0)
    return chain, params


def test_critical_time_reference_values():
    chain, params = _equi_chain(50)
    assert critical_time(chain, params) == pytest.approx(104.4479e-6, abs=1e-9)
    chain8, params8 = _equi_chain(8)
    assert critical_time(chain8, params8) == pytest.approx(595.2989e-6, abs=1e-9)


def test_critical_time_equidistant_closed_form():
    # even N: (sum f)^2/(pair sum)^2 = 4(N-1)^2/N^2, so
    # t = 2 sqrt(log[2(N-1)/N]) / (N gamma' dE); odd N strands the middle
    # qubit and the reduction does not apply
    for n in (4, 8, 50, 126):
        chain, params = _equi_chain(n)
        rate = n * params.gamma_prime * params.delta_e
        want = 2.0 * math.sqrt(math.log(2.0 * (n - 1) / n)) / rate
        assert critical_time(chain, params) == pytest.approx(want, rel=1e-12)


def test_critical_time_degenerate_and_quiet_cases():
    chain, params = _equi_chain(4)
    with pytest.raises(NoNoise):
        critical_time(chain, PhysParams(delta_e=0.0))
    centered = make_chain([0.0, 1.0], x0=0.5)  # sum f = 0
    with pytest.raises(DegenerateGeometry):
        critical_time(centered, params)
    stacked = make_chain([0.7, 0.7])  # pair sum = 0
    with pytest.raises(DegenerateGeometry):
        critical_time(stacked, params)


def _python_pair_sum(f, ell):
    n = len(f)
    return float(sum(f[i] - f[n - 1 - i] for i in range(ell)))  # starts from int 0


def _python_critical_time(f, rate):
    full_sum, pair_sum = float(sum(f)), _python_pair_sum(f, len(f) // 2)
    if full_sum == 0.0 or pair_sum == 0.0:
        return None
    ratio = (full_sum * full_sum) / (pair_sum * pair_sum)
    return 0.0 if ratio <= 1.0 else math.sqrt(2.0 * math.log(ratio)) / rate


def _exact_sum(terms):
    return float(sum(map(Fraction, terms), Fraction(0)))  # the exact sum, rounded once


def _exact_pair_sum(f, ell):
    n = len(f)
    return _exact_sum([f[i] - f[n - 1 - i] for i in range(ell)])


def _exact_critical_time(f, rate):
    full_sum, pair_sum = _exact_sum(f), _exact_pair_sum(f, len(f) // 2)
    if full_sum == 0.0 or pair_sum == 0.0:
        return None
    ratio = (full_sum * full_sum) / (pair_sum * pair_sum)
    return 0.0 if ratio <= 1.0 else math.sqrt(2.0 * math.log(ratio)) / rate


@pytest.mark.parametrize("seed", range(24))
def test_pair_sums_equal_the_exact_sum_rounded_once(seed):
    rng = np.random.default_rng(9100 + seed)
    n = int(rng.integers(1, 60))
    offset = (0.0, 1e2, 1e4, 1e8)[seed % 4]
    scale = 10.0 ** rng.uniform(-3, 3)
    chain = make_chain(offset + scale * rng.uniform(-1, 1, n), x0=float(rng.uniform(-1, 1)))
    params = PhysParams(gamma_prime=float(rng.uniform(0.5, 2.0)), delta_e=1.0)
    f = chain.f_values
    for k in range(n + 1):  # k = 0 and k = n give ell = 0
        assert _dfs_pair_sum(chain.f_array, k).hex() == _exact_pair_sum(f, min(k, n - k)).hex()
    want = _exact_critical_time(f, n * params.gamma_prime * params.delta_e)
    if want is None:
        with pytest.raises(DegenerateGeometry):
            critical_time(chain, params)
    else:
        assert critical_time(chain, params).hex() == want.hex()


@pytest.mark.parametrize("spec", [*range(16), ((-0.0,), 0.0), ((-0.0, -0.0, 0.5), 0.0),
                                  ((0.3, 0.3, 0.3), 0.3), ((0.0, 1e8, 2e8), -0.0)], ids=str)
def test_profile_sums_equal_the_exact_sum_rounded_once(spec):
    # sweep_fig3, optimal_time_ghz and theta_for_saturation read sum f bit for bit as the
    # exact sum of the profile, rounded once: near x0, at x0 (f = 0) and far from it
    rng = np.random.default_rng(9300 + (spec if isinstance(spec, int) else 99))
    if isinstance(spec, int):
        n, x0 = int(rng.integers(1, 40)), float(rng.uniform(-1, 1))
        offset = (0.0, 1e2, 1e4, 1e8)[spec % 4]
        positions = offset + 10.0 ** rng.uniform(-3, 3) * rng.uniform(-1, 1, n)
        if spec % 8 >= 4:  # a qubit at x0
            positions = np.append(positions, x0)
    else:
        positions, x0 = spec
    chain = make_chain(positions, x0=x0)
    params = PhysParams(*(float(x) for x in rng.uniform((0.5, -1, -1, 0.5, 0.5, 0.5, 0.5),
                                                        (2, 1, 1, 2, 2, 1.5, 2))))
    n, s = chain.n, _exact_sum(chain.f_values)
    model, rate = NoiseModel.from_params(params), n * params.gamma_prime * params.delta_e
    times = [0.01 * (i / 4) for i in range(5)]
    want = [(t, coherence_factor(model, t, n) * (s * s) * (params.gamma * t) ** 2)
            for t in times]
    got = sweep_fig3(chain, params, points=5, t_max=0.01).rows
    assert [[x.hex() for x in row] for row in got] == [[x.hex() for x in row] for row in want]
    qfi_opt = 2.0 * params.gamma * params.gamma * s * s / (math.e * rate * rate)
    assert optimal_time_ghz(chain, params)[1].hex() == qfi_opt.hex()
    base = n * params.gamma * params.b0 * params.t + params.gamma * params.grad * params.t * s
    assert theta_for_saturation(chain, params).hex() == (0.5 * math.pi - base).hex()


@pytest.mark.parametrize("seed", range(8))
def test_chain_sums_are_the_exact_sum_rounded_once(seed):
    # each closed form and time budget reads its sum over the chain as the exact sum of its
    # float terms (f, |f|, f f, f_i - f_{N-1-i}), rounded once: n up to 1000, near x0 and
    # far from it
    rng = np.random.default_rng(9500 + seed)
    n = int(rng.integers(900, 1001) if seed % 2 else rng.integers(1, 1001))
    offset = (0.0, 1e2, 1e4, 1e8)[seed % 4]
    chain = make_chain(offset + 10.0 ** rng.uniform(-3, 3) * rng.uniform(-1, 1, n),
                       x0=float(rng.uniform(-1, 1)))
    params = PhysParams(*(float(x) for x in rng.uniform((0.5, -1, -1, 0.5, 0.5, 0.5, 0.5),
                                                        (2, 1, 1, 2, 2, 1.5, 2))))
    f, gt, model = chain.f_values, params.gamma * params.t, NoiseModel.from_params(params)
    gt2, rate = gt * gt, n * params.gamma_prime * params.delta_e
    s, a, q = _exact_sum(f), _exact_sum(map(abs, f)), _exact_sum(x * x for x in f)
    d = coherence_factor(model, params.t, n)
    assert qfi_noisy_ghz(chain, params).value.hex() == (d * d * gt2 * s * s).hex()
    assert qfi_max_entangled(chain, params)[0].value.hex() == (gt2 * a * a).hex()
    assert qfi_max_separable(chain, params).value.hex() == (gt2 * q).hex()
    pair, terms = [Fraction(0)], chain.f_array - chain.f_array[::-1]  # f_i - f_{N-1-i}
    for term in terms[: n // 2].tolist():  # pair[l], the exact sum of the first l terms
        pair.append(pair[-1] + Fraction(term))
    for k in range(n + 1):
        p = float(pair[min(k, n - k)])
        assert qfi_dfs_subspace(chain, params, k)[0].value.hex() == (gt2 * p * p).hex(), k
    want = _exact_critical_time(f, rate)
    if want is None:
        with pytest.raises(DegenerateGeometry):
            critical_time(chain, params)
    else:
        assert critical_time(chain, params).hex() == want.hex()
    qfi_opt = 2.0 * params.gamma * params.gamma * s * s / (math.e * rate * rate)
    assert optimal_time_ghz(chain, params)[1].hex() == qfi_opt.hex()
    times = [0.01 * (i / 4) for i in range(5)]
    want = [(t, coherence_factor(model, t, n) * (s * s) * (params.gamma * t) ** 2)
            for t in times]
    got = sweep_fig3(chain, params, points=5, t_max=0.01).rows
    assert [[x.hex() for x in row] for row in got] == [[x.hex() for x in row] for row in want]
    base = n * params.gamma * params.b0 * params.t + params.gamma * params.grad * params.t * s
    assert theta_for_saturation(chain, params).hex() == (0.5 * math.pi - base).hex()


def test_pair_sums_of_negative_zeros_are_positive_zero():
    # f = (-0.0, 0.0): the one pair is -0.0 - 0.0 = -0.0, which Python's
    # sum turns into 0.0 (0 + -0.0) while np.cumsum keeps -0.0
    chain = make_chain([-0.0, 0.0], x0=0.0)
    assert chain.f_values[0].hex() == "-0x0.0p+0"
    assert _dfs_pair_sum(chain.f_array, 1).hex() == _python_pair_sum(chain.f_values, 1).hex() == "0x0.0p+0"
    assert _dfs_pair_sum(chain.f_array, 0).hex() == "0x0.0p+0"
    with pytest.raises(DegenerateGeometry):
        critical_time(chain, PhysParams(delta_e=1.0))


def test_overflowing_sums_give_inf_without_a_warning():
    params = PhysParams(delta_e=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow RuntimeWarning would fail here
        wide = make_chain([1e308, -1e308])
        assert _dfs_pair_sum(wide.f_array, 1) == _python_pair_sum(wide.f_values, 1) == -math.inf
        far = make_chain([1e308, 1e308, 0.5e308])
        got, want = critical_time(far, params), _python_critical_time(far.f_values, 3.0)
        assert got.hex() == want.hex() == "nan"  # inf * inf / inf, as floats give
        with pytest.raises(NonFiniteCoordinate, match=r"^position inf is not finite$"):
            generate_placement(PlacementSpec("equidistant", 3, 1e308, 1e308))


def test_critical_time_is_zero_when_dfs_wins_from_the_start():
    # sum f tiny against the pair sum: ratio <= 1 means no crossover window
    chain = make_chain([0.0, 1.0], x0=0.45)
    params = PhysParams(gamma_prime=1.0, delta_e=1.0)
    assert critical_time(chain, params) == 0.0


def test_optimal_time_ghz_analytic_pair():
    chain, params = _equi_chain(50)
    t_opt, qfi_opt = optimal_time_ghz(chain, params)
    rate = 50 * params.gamma_prime * params.delta_e
    assert t_opt == pytest.approx(math.sqrt(2.0) / rate, rel=1e-12)
    s = sum(chain.f_values)
    assert qfi_opt == pytest.approx(2.0 * s * s / (math.e * rate * rate), rel=1e-12)
    # tau_c = 1 s >> t_opt ~ 9e-5 s: the golden-section cross-check ran
    assert params.tau_c > 100.0 * t_opt
    with pytest.raises(NoNoise):
        optimal_time_ghz(chain, PhysParams(delta_e=0.0))


def test_an_underflowing_rate_square_gives_what_floats_give():
    # N gamma' delta_e = 3e-320 > 0, but its square underflows to 0: x / +0.0 is inf for
    # x > 0 and nan for x = 0, as IEEE division gives, not a ZeroDivisionError
    params = PhysParams(delta_e=1e-320)
    assert optimal_time_ghz(_equi_chain(3)[0], params) == (math.inf, math.inf)
    assert math.isnan(optimal_time_ghz(make_chain([-1.0, 0.0, 1.0]), params)[1])


def test_optimal_time_matches_grid_maximum_of_the_response():
    chain, params = _equi_chain(8)
    t_opt, qfi_opt = optimal_time_ghz(chain, params)
    model = NoiseModel.from_params(params)
    s = sum(chain.f_values)
    times = np.linspace(0.25 * t_opt, 4.0 * t_opt, 4001)
    values = [coherence_factor(model, float(t), 8) * (t * s) ** 2 for t in times]
    best = int(np.argmax(values))
    # the analytic pair uses the small-t coherence; the exact-d optimum
    # sits O(t_opt/tau_c) away, ~2e-4 relative here
    assert times[best] == pytest.approx(t_opt, rel=2e-3)
    assert values[best] == pytest.approx(qfi_opt, rel=1e-3)


def test_ghz_beats_dfs_before_the_crossover_and_loses_after():
    chain, params = _equi_chain(8)
    t_crit = critical_time(chain, params)
    for factor, ghz_wins in ((0.5, True), (1.5, False)):
        at = PhysParams(
            gamma=params.gamma, t=factor * t_crit,
            gamma_prime=params.gamma_prime, delta_e=params.delta_e,
            tau_c=params.tau_c,
        )
        noisy = qfi_noisy_ghz(chain, at).value
        dfs = qfi_dfs_max(chain, at)[0].value
        assert (noisy > dfs) == ghz_wins


# ----------------------------------------------------------------------
# brute-force placement search
# ----------------------------------------------------------------------


def test_search_known_offset_objectives_return_all_at_end():
    for objective, want in (
        ("entangled-known-b0", 9.0),
        ("separable-known-b0", 3.0),
    ):
        config, report = brute_force_placement_search(3, 1.0, objective, grid_points=5)
        assert config.positions == (1.0, 1.0, 1.0)
        assert report.value == pytest.approx(want, rel=1e-12)


def test_search_dfs_and_steady_objectives_return_half_half():
    config, report = brute_force_placement_search(4, 1.0, "dfs-max", grid_points=3)
    assert config.positions == (0.0, 0.0, 1.0, 1.0)
    assert report.value == pytest.approx(4.0, rel=1e-12)
    config, report = brute_force_placement_search(4, 1.0, "product-steady", grid_points=3)
    assert config.positions == (0.0, 0.0, 1.0, 1.0)
    assert report.value == pytest.approx(1.0, rel=1e-12)


def test_search_respects_scaling_parameters():
    params = PhysParams(gamma=2.0, t=3.0)
    _, report = brute_force_placement_search(2, 0.5, "dfs-max", params=params)
    # pair sum = L, value = (gamma t L)^2
    assert report.value == pytest.approx((2.0 * 3.0 * 0.5) ** 2, rel=1e-12)


def test_search_limits_and_validation():
    with pytest.raises(SearchSpaceTooLarge):
        brute_force_placement_search(9, 1.0, "dfs-max")
    with pytest.raises(SearchSpaceTooLarge):
        brute_force_placement_search(4, 1.0, "dfs-max", grid_points=12)
    with pytest.raises(OutOfRange):
        brute_force_placement_search(4, 1.0, "fastest")
    with pytest.raises(OutOfRange):
        brute_force_placement_search(4, 0.0, "dfs-max")
    with pytest.raises(OutOfRange):
        brute_force_placement_search(4, 1.0, "dfs-max", params=PhysParams(t=0.0))


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------


def test_sweep_result_validation():
    with pytest.raises(OutOfRange):
        SweepResult(("x", "y"), ((0.0,),))
    with pytest.raises(OutOfRange):
        SweepResult(("x", "y"), ((1.0, 0.0), (0.0, 0.0)))
    sweep = SweepResult(("x", "y"), ((0.0, 5.0), (1.0, 7.0)))
    assert sweep.column("y") == (5.0, 7.0)


def test_fig3_sweep_peak_location_and_height():
    sweep = sweep_fig3(points=2001, t_max=0.002)
    assert sweep.columns == ("t", "qfi")
    assert len(sweep.rows) == 2001
    assert sweep.rows[0] == (0.0, 0.0)
    t = np.asarray(sweep.column("t"))
    q = np.asarray(sweep.column("qfi"))
    rate = 50.0 * 2.0 * math.pi * 50.0
    t_opt = math.sqrt(2.0) / rate
    best = int(np.argmax(q))
    assert t[best] == pytest.approx(t_opt, rel=0.01)
    # d at the analytic optimum is 1/e in the tau_c >> t regime
    s = 25.0  # sum of 50 equidistant positions on [0, 1]
    d_at_opt = q[best] / (t[best] * s) ** 2
    assert d_at_opt == pytest.approx(1.0 / math.e, rel=0.01)


def test_fig3_factor_out_flag_divides_the_prefactor():
    with_gt = sweep_fig3(points=101, t_max=0.001)
    without = sweep_fig3(points=101, t_max=0.001, factor_out_gamma_t=True)
    for (t1, v1), (t2, v2) in zip(with_gt.rows[1:], without.rows[1:]):
        assert t1 == t2
        assert v1 == pytest.approx(v2 * t1 * t1, rel=1e-12)
    with pytest.raises(OutOfRange):
        sweep_fig3(points=1)


@pytest.mark.parametrize("t_max", [-1.0, 0.0, math.inf, math.nan])
def test_fig3_names_a_t_max_that_is_not_finite_and_positive(t_max):
    with pytest.raises(OutOfRange, match=f"t_max must be finite and > 0, got {t_max!r}"):
        sweep_fig3(points=3, t_max=t_max)


def test_fig4_sweep_symmetry_ordering_and_peak():
    n = 12
    sweep = sweep_fig4(n=n, length=1.0, gamma_t=1.0)
    assert sweep.columns == ("k", "half-half", "tanh", "equidistant", "tan")
    assert len(sweep.rows) == n + 1
    for name in sweep.columns[1:]:
        col = sweep.column(name)
        assert col == col[::-1]  # exact mirror symmetry in k
        assert max(col) == col[n // 2]
    at_half = [sweep.column(name)[n // 2] for name in sweep.columns[1:]]
    assert at_half[0] >= at_half[1] >= at_half[2] >= at_half[3]
    assert at_half[0] == pytest.approx((n / 2) ** 2, rel=1e-12)


def test_fig5_sweep_columns_and_reference_values():
    ns = list(range(2, 30))
    a = sweep_fig5(ns, case="full-knowledge")
    assert a.columns == ("n", "ghz", "product")
    for row in a.rows:
        n = int(row[0])
        assert row[1] == pytest.approx((n / 2.0) ** 2, rel=1e-12)  # (sum x)^2, L=1
    b = sweep_fig5(ns, case="no-knowledge")
    assert b.columns == ("n", "odf-half", "dicke-half", "w", "steady-product")
    alias = sweep_fig5(ns, case="fig5b")
    assert alias.rows == b.rows
    with pytest.raises(OutOfRange):
        sweep_fig5(ns, case="sideways")
    with pytest.raises(OutOfRange):
        sweep_fig5([1, 2, 3])
    with pytest.raises(OutOfRange):
        sweep_fig5([])


def _hex_rows(rows):
    return [tuple(v.hex() for v in row) for row in rows]


@pytest.mark.parametrize("case", ["a", "b"])
def test_fig5_sweep_rows_equal_the_per_chain_path_bit_for_bit(case):
    for length in (1.0, 2.5, 1e-3):
        for gamma_t in (1.0, 0.37):
            want = reference_sweep_fig5(range(2, 301), length, case, gamma_t)
            got = sweep_fig5(range(2, 301), length, case, gamma_t).rows
            assert _hex_rows(got) == _hex_rows(want), (length, gamma_t)
    ns = [1000, 2048, 4000]
    want = reference_sweep_fig5(ns, 1.0, case, 1.0)
    assert _hex_rows(sweep_fig5(ns, 1.0, case).rows) == _hex_rows(want)


def _fraction_sum(values):
    """The exact sum of floats as a Fraction, over their common power-of-two denominator."""
    ratios = [x.as_integer_ratio() for x in values]
    den = max(d for _, d in ratios)
    return Fraction(sum(num * (den // d) for num, d in ratios), den)


def test_fig5a_ghz_column_is_the_correctly_rounded_closed_form():
    # (sum f)^2 from one correctly rounded sum: within 1e-16 of the exact value for the
    # float profile at every n of the default sweep
    sweep = sweep_fig5(case="a")
    for n, ghz in zip(sweep.column("n"), sweep.column("ghz")):
        f = generate_placement(PlacementSpec("equidistant", int(n), 0.0, 1.0)).f_values
        exact = _fraction_sum(f) ** 2
        assert abs(Fraction(ghz) - exact) <= Fraction(1, 10**16) * exact, n


@pytest.mark.parametrize("case", ["a", "b"])
@pytest.mark.parametrize("ns, length, gamma_t", [
    (range(2, 5), 0.0, 1.0),
    (range(2, 5), -1.0, 1.0),
    (range(2, 5), math.nan, 1.0),
    (range(2, 5), math.inf, 1.0),
    (range(2, 5), 1.0, 0.0),
    (range(2, 5), 1.0, -2.0),
    (range(2, 5), 1.0, math.nan),
    (range(2, 5), 0.0, 0.0),  # gamma_t is checked first
    ([], 1.0, 1.0),
    ([1, 2], 1.0, 1.0),
    ([0, 3], -1.0, 0.0),  # n_range is checked first
    (range(2, 9), 1e155, 1.0),  # overflow: NaN GHZ value, inf odf value
    (range(2, 30), 1e154, 1.0),  # overflow at n = 3 (case a) and n = 5 (case b)
    (range(2, 9), 1.0, 1e160),  # overflow: (gamma t)^2 is inf
])
def test_fig5_sweep_rejects_what_the_per_chain_path_rejects(case, ns, length, gamma_t):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the per-chain path warns on overflow
        with pytest.raises(Exception) as want:
            reference_sweep_fig5(ns, length, case, gamma_t)
    with pytest.raises(Exception) as got:
        sweep_fig5(ns, length, case, gamma_t)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
    if math.isfinite(length) and max(length, gamma_t) > 1e150:
        assert type(got.value) is NumericOverflow


def test_fig5b_sweep_to_four_thousand_qubits_runs_in_under_three_seconds():
    start = time.perf_counter()
    sweep = sweep_fig5(range(2, 4001), case="b")
    elapsed = time.perf_counter() - start
    assert len(sweep.rows) == 3999
    assert elapsed < 3.0, f"sweep_fig5 b to n = 4000 took {elapsed:.2f} s"


def test_fig5_w_state_flattens_to_a_third():
    sweep = sweep_fig5(range(900, 1001, 25), case="no-knowledge")
    w = sweep.column("w")
    assert w[-1] == pytest.approx(1.0 / 3.0, rel=0.02)


def test_fit_loglog_slope_recovers_exact_powers():
    ns = [1.0, 2.0, 4.0, 8.0, 16.0]
    assert fit_loglog_slope(ns, [3.0 * n * n for n in ns]) == pytest.approx(2.0, abs=1e-12)
    assert fit_loglog_slope(ns, [0.5 * n for n in ns]) == pytest.approx(1.0, abs=1e-12)
    assert fit_loglog_slope(ns, [7.0] * 5) == pytest.approx(0.0, abs=1e-12)


# ----------------------------------------------------------------------
# summary table
# ----------------------------------------------------------------------


def test_table1_reference_column():
    table = table1(n=4, length=3.0, gamma_t=1.0)
    assert [row[0] for row in table.rows] == ["ghz", "product", "odf-half", "steady-product"]
    equidistant = [row[3] for row in table.rows]
    assert equidistant == pytest.approx([36.0, 14.0, 16.0, 5.0], rel=1e-12)


def test_table1_optimal_column_symbolics():
    n, length, gt = 6, 2.0, 0.5
    table = table1(n=n, length=length, gamma_t=gt)
    g2l2 = gt * gt * length * length
    assert table.row("ghz")[1] == pytest.approx(g2l2 * n * n, rel=1e-12)
    assert table.row("product")[1] == pytest.approx(g2l2 * n, rel=1e-12)
    assert table.row("odf-half")[1] == pytest.approx(g2l2 * n * n / 4, rel=1e-12)
    assert table.row("steady-product")[1] == pytest.approx(g2l2 * n / 4, rel=1e-12)


def test_table1_general_column_equals_equidistant():
    table = table1(n=8, length=1.0, gamma_t=1.0)
    for label in ("ghz", "product", "odf-half", "steady-product"):
        general, _, equidistant = table.row(label)
        assert general == pytest.approx(equidistant, rel=1e-12)


def test_table1_ghz_cells_are_the_exact_closed_form():
    # (n L)^2 and (n L / 2)^2 at n = 4, L = 3, as the paper's Table 1 has them
    general, optimal, equidistant = table1().row("ghz")
    assert (general, optimal, equidistant) == (36.0, 144.0, 36.0)


@pytest.mark.parametrize("n, length, gamma_t", [(4, 13.1, 1.0), (6, 13.1, 0.5), (14, 0.3, 1.0)])
def test_table1_general_column_sums_are_correctly_rounded(n, length, gamma_t):
    # each sum over the positions is the exact sum rounded once (sum x = 26.2 at
    # n = 4, L = 13.1, which adding in index order rounds to 26.199999999999996)
    table = table1(n, length, gamma_t)
    xs = generate_placement(PlacementSpec("equidistant", n, 0.0, length)).positions
    sum_x, sum_x2 = _exact_sum(xs), _exact_sum([x * x for x in xs])
    pair_sum = _exact_pair_sum(xs, n // 2)
    gt2 = gamma_t * gamma_t
    want = {
        "ghz": gt2 * sum_x ** 2,
        "product": gt2 * sum_x2,
        "odf-half": gt2 * pair_sum ** 2,
        "steady-product": gt2 * (sum_x2 - sum_x ** 2 / n),
    }
    for label, value in want.items():
        assert table.row(label)[0] == value, label


def test_table1_self_check_passes_across_sizes():
    for n in (2, 4, 8, 14):
        for length in (1.0, 3.0):
            for gt in (1.0, 0.5):
                table1(n=n, length=length, gamma_t=gt)  # raises on any cell mismatch


def test_table1_wrong_closed_form_raises_self_check_failed(monkeypatch):
    exact = gradqfi.scenarios.qfi_max_separable
    monkeypatch.setattr(
        gradqfi.scenarios, "qfi_max_separable",
        lambda config, params: FisherReport(1.5 * exact(config, params).value, "wrong"),
    )
    with pytest.raises(SelfCheckFailed, match="product/optimal"):
        table1()
    assert issubclass(SelfCheckFailed, ComputationError)


def test_table1_validation():
    with pytest.raises(OutOfRange):
        table1(n=5)
    with pytest.raises(OutOfRange):
        table1(n=0)
    with pytest.raises(OutOfRange):
        table1(length=-1.0)
    with pytest.raises(OutOfRange):
        table1(gamma_t=0.0)
    with pytest.raises(KeyError):
        table1().row("w")
