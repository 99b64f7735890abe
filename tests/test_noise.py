"""Dephasing channel, steady-state twirl, and the Monte Carlo oracle."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import gradqfi.noise as noise_module
from gradqfi import measurement
from gradqfi import (
    NegativeTime,
    NoiseModel,
    OutOfRange,
    PhysParams,
    SparseState,
    SpectralState,
    TrajectoryEnsemble,
    ZeroTrajectories,
    apply_channel,
    coherence_factor,
    correlation_integral,
    evolve,
    jx_distribution,
    make_chain,
    make_named_state,
    mc_coherence_magnitude,
    mc_trajectory_average,
    qfi_dicke,
    qfi_general,
    qfi_product_steady,
    steady_twirl,
)

from conftest import (
    dense_rho,
    random_chain,
    reference_channel_form,
    reference_channel_pairs,
    reference_char_function,
    reference_evolve_form,
    reference_evolve_pairs,
    reference_form_jx,
    reference_form_pairs,
    reference_form_parity,
    reference_jx,
    reference_mc_form,
    reference_mc_pairs,
    reference_parity,
    reference_sector_form,
    reference_twirl_form,
    reference_twirl_pairs,
    random_mixture,
    random_params,
    random_sparse,
    rel_dev,
    to_dense,
)


MODEL = NoiseModel(gamma_prime=0.8, delta_e=1.2, tau_c=0.7)


# ----------------------------------------------------------------------
# analytic decay
# ----------------------------------------------------------------------


def test_correlation_integral_limits():
    assert correlation_integral(MODEL, 0.0) == 0.0
    assert correlation_integral(NoiseModel(1.0, 0.0, 1.0), 5.0) == 0.0
    assert correlation_integral(MODEL, math.inf) == math.inf
    with pytest.raises(NegativeTime):
        correlation_integral(MODEL, -0.1)
    with pytest.raises(NegativeTime):
        correlation_integral(MODEL, float("nan"))


@pytest.mark.parametrize("delta_e, tau_c, t", [
    (1.0, 1e-320, 1.0), (1.0, 1e-320, 0.5), (3.0, 1e-310, 1e10), (1e160, 5e-324, 1.0),
    (0.5, 1e-300, 1e9),
])
def test_a_tiny_correlation_time_gives_the_white_noise_limit(delta_e, tau_c, t):
    # t / tau_c is inf and (delta_e tau_c)^2 underflows to 0: C is 2 delta_e^2 tau_c t,
    # not 0 * inf = nan, and a coherence decays from 1
    model = NoiseModel(1.0, delta_e, tau_c)
    want = 2 * Fraction(delta_e) ** 2 * Fraction(tau_c) * Fraction(t)
    got = correlation_integral(model, t)
    assert abs(Fraction(got) - want) <= Fraction(1, 10**12) * want
    for weight in (1, 3, 20):
        assert 0.0 <= coherence_factor(model, t, weight) <= 1.0
    assert correlation_integral(model, math.inf) == math.inf


@pytest.mark.parametrize("delta_e, tau_c, t", [
    (1.0, 1e-10, 1e300), (1e3, 1e-9, 1e300), (0.5, 1e-100, 1e220),
])
def test_an_overflowing_t_over_tau_c_gives_the_white_noise_limit(delta_e, tau_c, t):
    # t / tau_c is inf while (delta_e tau_c)^2 is not 0: C is 2 delta_e^2 tau_c t,
    # a finite float, not (delta_e tau_c)^2 * inf
    model = NoiseModel(1.0, delta_e, tau_c)
    want = 2 * Fraction(delta_e) ** 2 * Fraction(tau_c) * Fraction(t)
    got = correlation_integral(model, t)
    assert math.isfinite(got)
    assert abs(Fraction(got) - want) <= Fraction(1, 10**12) * want
    assert correlation_integral(model, math.inf) == math.inf


def test_correlation_integral_small_time_expansion():
    # C(t) = delta_e^2 t^2 (1 - t/(3 tau_c) + ...) for t << tau_c
    t = 1e-4 * MODEL.tau_c
    got = correlation_integral(MODEL, t)
    assert got == pytest.approx(MODEL.delta_e**2 * t * t, rel=1e-4)


def test_correlation_integral_long_time_growth():
    # C(t) -> 2 delta_e^2 tau_c (t - tau_c) for t >> tau_c
    t = 200.0 * MODEL.tau_c
    want = 2.0 * MODEL.delta_e**2 * MODEL.tau_c * (t - MODEL.tau_c)
    assert correlation_integral(MODEL, t) == pytest.approx(want, rel=1e-6)


def test_correlation_integral_is_increasing():
    times = np.linspace(0.0, 5.0, 40)
    values = [correlation_integral(MODEL, float(t)) for t in times]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_coherence_factor_definition_and_bounds():
    for t in (0.0, 0.3, 2.0, 50.0):
        for w in (0, 1, 2, 5):
            d = coherence_factor(MODEL, t, w)
            # strong decay may underflow to an exact 0.0
            assert 0.0 <= d <= 1.0
            want = math.exp(
                -0.5 * (MODEL.gamma_prime * w) ** 2 * correlation_integral(MODEL, t)
            )
            assert d == pytest.approx(want, rel=1e-14)


def test_coherence_factor_special_cases():
    assert coherence_factor(MODEL, 3.0, 0) == 1.0
    assert coherence_factor(MODEL, 0.0, 4) == 1.0
    assert coherence_factor(NoiseModel(0.0, 1.0, 1.0), 3.0, 4) == 1.0
    assert coherence_factor(MODEL, math.inf, 2) == 0.0
    with pytest.raises(NegativeTime):
        coherence_factor(MODEL, -1.0, 2)


def test_coherence_factor_decreases_with_time_and_weight():
    ds = [coherence_factor(MODEL, t, 3) for t in (0.1, 0.5, 1.0, 2.0)]
    assert all(b < a for a, b in zip(ds, ds[1:]))
    dw = [coherence_factor(MODEL, 1.0, w) for w in (1, 2, 3)]
    assert all(b < a for a, b in zip(dw, dw[1:]))


def test_noise_model_validation():
    with pytest.raises(OutOfRange):
        NoiseModel(-0.1, 1.0, 1.0)
    with pytest.raises(OutOfRange):
        NoiseModel(1.0, -1.0, 1.0)
    with pytest.raises(OutOfRange):
        NoiseModel(1.0, 1.0, 0.0)
    params = PhysParams(gamma_prime=0.3, delta_e=0.9, tau_c=2.5)
    model = NoiseModel.from_params(params)
    assert (model.gamma_prime, model.delta_e, model.tau_c) == (0.3, 0.9, 2.5)


# ----------------------------------------------------------------------
# averaged channel
# ----------------------------------------------------------------------


def test_apply_channel_ghz_weights():
    n, t = 4, 0.8
    state = apply_channel(make_named_state("ghz", n), MODEL, t)
    d = coherence_factor(MODEL, t, n)
    weights = sorted((w for w, _ in state.eigenpairs), reverse=True)
    assert weights == pytest.approx([(1 + d) / 2, (1 - d) / 2])


def test_apply_channel_matches_elementwise_damping():
    rng = np.random.default_rng(801)
    for n in (2, 3, 4):
        state = random_sparse(rng, n)
        t = float(rng.uniform(0.2, 2.0))
        got = dense_rho(apply_channel(state, MODEL, t))
        vec = to_dense(state)
        rho = np.outer(vec, vec.conj())
        popcount = np.array([bin(i).count("1") for i in range(1 << n)])
        damp = np.array(
            [[coherence_factor(MODEL, t, abs(int(ki) - int(kj))) for kj in popcount] for ki in popcount]
        )
        np.testing.assert_allclose(got, rho * damp, atol=1e-12)


def test_apply_channel_steady_limit_is_diagonal_in_sectors():
    state = apply_channel(make_named_state("ghz", 3), MODEL, math.inf)
    weights = sorted((w for w, _ in state.eigenpairs), reverse=True)
    assert weights == pytest.approx([0.5, 0.5])
    for _, vec in state.eigenpairs:
        assert len({bits.count("1") for bits, _ in vec.terms}) == 1


def test_apply_channel_input_validation():
    ghz = make_named_state("ghz", 2)
    with pytest.raises(NegativeTime):
        apply_channel(ghz, MODEL, -1.0)
    with pytest.raises(OutOfRange):
        apply_channel(apply_channel(ghz, MODEL, 1.0), MODEL, 1.0)


# ----------------------------------------------------------------------
# steady-state twirl
# ----------------------------------------------------------------------


def test_steady_twirl_product_state_gives_binomial_sectors():
    n = 4
    twirled = steady_twirl(make_named_state("product", n))
    by_sector = {}
    for w, vec in twirled.eigenpairs:
        sectors = {bits.count("1") for bits, _ in vec.terms}
        assert len(sectors) == 1
        k = sectors.pop()
        by_sector[k] = by_sector.get(k, 0.0) + w
    for k in range(n + 1):
        assert by_sector[k] == pytest.approx(math.comb(n, k) / 2**n, rel=1e-12)


def test_steady_twirl_matches_projector_oracle():
    rng = np.random.default_rng(811)
    states = [random_sparse(rng, n) for n in (2, 3, 4)]
    # mixtures reach the thin-QR path, several components per sector
    for n in (2, 3, 4, 5):
        states += [random_mixture(rng, n, rank) for rank in range(2, min(5, 1 << n) + 1)]
    for state in states:
        n = state.n_qubits
        rho = dense_rho(state)
        popcount = np.array([bin(i).count("1") for i in range(1 << n)])
        projected = np.where(
            popcount[:, None] == popcount[None, :], rho, 0.0
        )
        np.testing.assert_allclose(dense_rho(steady_twirl(state)), projected, atol=1e-11)


def test_steady_twirl_is_idempotent():
    rng = np.random.default_rng(813)
    state = random_sparse(rng, 4, size=7)
    once = steady_twirl(state)
    twice = steady_twirl(once)
    np.testing.assert_allclose(dense_rho(twice), dense_rho(once), atol=1e-11)


def test_steady_twirl_equals_infinite_time_channel():
    rng = np.random.default_rng(815)
    state = random_sparse(rng, 3, size=5)
    np.testing.assert_allclose(
        dense_rho(steady_twirl(state)),
        dense_rho(apply_channel(state, MODEL, math.inf)),
        atol=1e-11,
    )


# ----------------------------------------------------------------------
# construction on excitation sectors
# ----------------------------------------------------------------------


def test_dephased_dicke_keeps_its_closed_form_at_twenty_qubits():
    # one sector, s = C(20, 10) = 184756 rows: the output is the probe itself
    rng = np.random.default_rng(831)
    chain = random_chain(rng, 20)
    params = random_params(rng)
    state = apply_channel(make_named_state("dicke", 20, k=10), MODEL, 0.9)
    assert state.rank == 1
    got = qfi_general(state, chain, params).value
    assert rel_dev(got, qfi_dicke(chain, params, 10).value) < 1e-12


@pytest.mark.parametrize("x0", [0.1, -1e4])
def test_steady_product_channel_at_fourteen_qubits_matches_closed_form(x0):
    # 2^14 rows, 15 sectors: rank 15, one eigenvector per sector
    rng = np.random.default_rng(833)
    chain = make_chain(np.sort(rng.uniform(0.0, 1.0, size=14)), x0=x0)
    params = random_params(rng)
    state = apply_channel(make_named_state("product", 14), MODEL, math.inf)
    assert state.rank == 15
    got = qfi_general(state, chain, params).value
    assert rel_dev(got, qfi_product_steady(chain, params).value) < 1e-12


def test_a_sector_whose_amplitudes_are_all_zero_is_dropped():
    state = SparseState.from_terms(2, [("00", 0.6), ("01", 0.0), ("10", 0.0), ("11", 0.8)])
    t = 0.5
    d = coherence_factor(MODEL, t, 2)
    want = np.zeros((4, 4))
    want[0, 0], want[3, 3] = 0.36, 0.64
    with np.errstate(divide="raise", invalid="raise"):
        for out, coherence in ((apply_channel(state, MODEL, t), d), (steady_twirl(state), 0.0)):
            assert out.rank == 2
            for _, vec in out.eigenpairs:
                assert {bits for bits, _ in vec.terms} <= {"00", "11"}
            want[0, 3] = want[3, 0] = 0.48 * coherence
            np.testing.assert_allclose(dense_rho(out), want, atol=1e-12)
        # in a mixture too: no eigenvector reaches sector 1, where "01" has amplitude 0
        up = SparseState.from_terms(2, [("00", 1.0), ("01", 0.0)])
        mixed = SpectralState(2, ((0.36, up), (0.64, SparseState.from_terms(2, [("11", 1.0)]))))
        out = steady_twirl(mixed)
        assert out.rank == 2
        assert {bits for _, vec in out.eigenpairs for bits, _ in vec.terms} == {"00", "11"}
        np.testing.assert_allclose(dense_rho(out), np.diag([0.36, 0.0, 0.0, 0.64]), atol=1e-12)


def test_a_row_whose_probability_underflows_joins_no_sector():
    # 1e-170 squares to 0, so sector 1 has no mass: the row is left out with it
    tiny = SparseState.from_terms(2, [("00", 0.6), ("01", 1e-170), ("11", 0.8)])
    clean = SparseState.from_terms(2, [("00", 0.6), ("11", 0.8)])
    chain = make_chain([-1e4, 1e4 + 1.0])
    params = PhysParams(grad=0.3, t=0.7)
    for build in (lambda state: apply_channel(state, MODEL, 0.5), steady_twirl):
        got, want = build(tiny), build(clean)
        assert got.bits.tobytes() == want.bits.tobytes()
        assert qfi_general(got, chain, params).value == qfi_general(want, chain, params).value


def _pairs_bytes(pairs):
    return [(float(w).hex(), vec.bits.tobytes(), vec.amps.tobytes()) for w, vec in pairs]


def _pairs_rho(pairs):
    """The ascending rows of the pairs' joint support and rho over them."""
    rows = sorted({bits for _, vec in pairs for bits, _ in vec.terms})
    index = {bits: j for j, bits in enumerate(rows)}
    v = np.zeros((len(pairs), len(rows)), dtype=complex)
    for row, (_, vec) in zip(v, pairs):
        for bits, amp in vec.terms:
            row[index[bits]] = amp
    return rows, (v.T * [w for w, _ in pairs]) @ v.conj()


def _assert_same_rho(got, want):
    got_rows, got_rho = _pairs_rho(got)
    want_rows, want_rho = _pairs_rho(want)
    assert got_rows == want_rows
    np.testing.assert_allclose(got_rho, want_rho, rtol=0.0, atol=1e-12)


def _one_form_cases(rng, n, chain, params):
    """(state the library built, its reference sector form, its eigenpairs built one
    eigenvector at a time, whether those pairs must match the state's by bytes)."""
    ens = TrajectoryEnsemble(n_traj=64, seed=n)
    # a row with amplitude 0 in an occupied sector: no eigenvector keeps it
    rows = ("0" * n, "0" * (n - 1) + "1", "1" + "0" * (n - 1), "1" * n)
    holed = SparseState.from_terms(n, zip(rows, (0.6, 0.0, 0.64, 0.48)))
    for probe in (make_named_state("product", n), make_named_state("ghz", n), holed,
                  make_named_state("dicke", n, k=n // 2), random_sparse(rng, n, min(1 << n, 12))):
        for t in (0.05, 0.8, 50.0, math.inf):
            yield (apply_channel(probe, MODEL, t), reference_channel_form(probe, MODEL, t),
                   reference_channel_pairs(probe, MODEL, t), True)
        yield (mc_trajectory_average(probe, chain, params, ens),
               reference_mc_form(probe, chain, params, ens),
               reference_mc_pairs(probe, chain, params, ens), True)
        pure = reference_sector_form(n, probe.bits, probe.amps, [1.0] + [0.0] * n)
        yield steady_twirl(probe), pure, reference_twirl_pairs(n, [(1.0, probe)]), True
        # a mixture: the twirl keeps M's sector blocks, where the oracle takes a thin QR
        # of each sector's eigenvector parts, so only the values agree
        yield (steady_twirl(apply_channel(probe, MODEL, 0.8)),
               reference_twirl_form(reference_channel_form(probe, MODEL, 0.8)),
               reference_twirl_pairs(n, reference_channel_pairs(probe, MODEL, 0.8)), False)


@pytest.mark.parametrize("n", range(2, 11))
def test_one_state_form_gives_the_per_eigenvector_bytes(n):
    # the sector form must give, bit for bit, its reference's eigenpairs,
    # evolution and readouts, and the eigenpairs and J_x readout of each
    # eigenvector on its own rows for every state built from a pure probe
    rng = np.random.default_rng(1600 + n)
    for x0 in (0.1, -1e2, -1e4):
        chain = make_chain(np.sort(rng.uniform(0.0, 1.0, size=n)), x0=x0)
        params = random_params(rng, grad=float(rng.uniform(0.1, 1.0)))
        scale = params.gamma * params.t * float(np.abs(chain.f_array).sum())
        for got, form, oracle, exact in _one_form_cases(rng, n, chain, params):
            want = reference_form_pairs(n, form)
            assert _pairs_bytes(got.eigenpairs) == _pairs_bytes(want)
            if exact:
                assert _pairs_bytes(want) == _pairs_bytes(oracle)
            else:
                _assert_same_rho(want, oracle)
            evolved = evolve(got, chain, params).eigenpairs
            want_evolved = reference_form_pairs(n, reference_evolve_form(form, chain, params))
            assert _pairs_bytes(evolved) == _pairs_bytes(want_evolved)
            _assert_same_rho(evolved, reference_evolve_pairs(oracle, chain, params))
            value, grad = measurement._parity_value_and_gradient(got, chain, params)
            want_value, want_grad = reference_form_parity(form, chain, params)
            assert (value.hex(), grad.hex()) == (want_value.hex(), want_grad.hex())
            oracle_value, oracle_grad = reference_parity(oracle, chain, params)
            assert abs(value - oracle_value) <= 1e-12
            assert abs(grad - oracle_grad) <= 1e-9 * max(abs(oracle_grad), scale)
            outcomes = jx_distribution(got, chain, params).outcomes
            want_jx = reference_form_jx(form, chain, params)
            assert [(p.hex(), dp.hex()) for _, p, dp in outcomes] == want_jx
            for (_, p, dp), oracle in zip(outcomes, reference_jx(want, chain, params)):
                oracle_p, oracle_dp = map(float.fromhex, oracle)
                assert abs(p - oracle_p) <= 1e-12
                assert abs(dp - oracle_dp) <= 1e-9 * max(abs(oracle_dp), scale)


def _sector_coherences(psi, mixed):
    """X_kl = <e_k| rho |e_l> over the unit sector vectors e_k of a pure state."""
    n = psi.n_qubits
    popcount = np.array([bin(i).count("1") for i in range(1 << n)])
    vec = to_dense(psi)
    basis = np.array([np.where(popcount == k, vec, 0.0) for k in range(n + 1)])
    basis /= np.linalg.norm(basis, axis=1)[:, None]
    weights = np.array([w for w, _ in mixed.eigenpairs])
    b = basis.conj() @ np.array([to_dense(v) for _, v in mixed.eigenpairs]).T
    return (b * weights) @ b.conj().T


def test_mc_trajectory_average_converges_to_channel_on_a_twelve_qubit_product():
    # 2^12 rows: the trajectory average is built on the 13 sectors, like the channel
    rng = np.random.default_rng(835)
    n = 12
    chain = random_chain(rng, n)
    params = random_params(rng, gamma_prime=0.4, delta_e=1.0, tau_c=1.0, t=0.8)
    state = make_named_state("product", n)
    ens = TrajectoryEnsemble(n_traj=20000, seed=81)
    averaged = mc_trajectory_average(state, chain, params, ens)
    exact = evolve(apply_channel(state, NoiseModel.from_params(params), params.t), chain, params)
    assert averaged.rank <= n + 1 and exact.rank <= n + 1
    evolved = evolve(state, chain, params)
    mc, want = _sector_coherences(evolved, averaged), _sector_coherences(evolved, exact)
    assert np.trace(mc).real == pytest.approx(1.0, abs=1e-12)
    # 5 standard errors of each entry: E|exp(-i phi dk)|^2 = 1, so the
    # complex estimate of the factor d has variance (1 - d^2) / n_traj
    model = NoiseModel.from_params(params)
    d = np.array([coherence_factor(model, params.t, w) for w in range(n + 1)])
    gap = np.abs(np.subtract.outer(np.arange(n + 1), np.arange(n + 1)))
    se = np.abs(want) / d[gap] * np.sqrt((1.0 - d[gap] ** 2) / ens.n_traj)
    assert np.all(np.abs(mc - want) <= 5.0 * se + 1e-12)


# ----------------------------------------------------------------------
# Monte Carlo trajectories
# ----------------------------------------------------------------------


def test_trajectory_ensemble_validation():
    with pytest.raises(ZeroTrajectories):
        TrajectoryEnsemble(0)
    with pytest.raises(OutOfRange):
        TrajectoryEnsemble(10, seed=-1)
    with pytest.raises(OutOfRange):
        TrajectoryEnsemble(10, seed=1 << 64)


def test_mc_coherence_is_deterministic_for_fixed_seed():
    ens = TrajectoryEnsemble(n_traj=500, seed=42)
    a = mc_coherence_magnitude(MODEL, 0.9, 4, ens)
    b = mc_coherence_magnitude(MODEL, 0.9, 4, ens)
    assert a == b
    c = mc_coherence_magnitude(MODEL, 0.9, 4, TrajectoryEnsemble(n_traj=500, seed=43))
    assert c != a


def test_mc_streams_are_chunk_layout_invariant(monkeypatch):
    # counter-based streams: reslicing the trajectory loop must not change
    # anything beyond summation rounding
    ens = TrajectoryEnsemble(n_traj=300, seed=9)
    reference = mc_coherence_magnitude(MODEL, 0.7, 3, ens)
    monkeypatch.setattr(noise_module, "MC_CHUNK", 7)
    resliced = mc_coherence_magnitude(MODEL, 0.7, 3, ens)
    assert resliced == pytest.approx(reference, rel=1e-12)


@pytest.mark.parametrize("n_traj", [1, 8191, 8192, 8193, 20000])  # around the chunk edges
def test_char_function_bytes_equal_the_four_normal_reference(n_traj):
    for seed, t, weight in ((5, 0.01, 1), (6, 0.7, 4), (7, 2.5, 9), (8, 40.0, 2)):
        got = noise_module._char_function(seed, n_traj, t, MODEL, weight)
        want = reference_char_function(seed, n_traj, t, MODEL, MODEL.gamma_prime, weight)
        assert got.tobytes() == want.tobytes(), (seed, t, weight)


@pytest.mark.parametrize("n_traj", [16384, 20000, 3 * 8192])  # two chunks or more
def test_char_function_peaks_at_its_one_block(n_traj):
    # every array of a chunk is a view of one 13-row block; beyond it only numpy's
    # cast buffer for the complex product (bufsize complex128 entries) is allocated,
    # where fresh temporaries, with the last chunk's still held, would peak higher
    width = min(noise_module.MC_CHUNK, n_traj)
    noise_module._char_function(3, n_traj, 0.7, MODEL, 4)  # numpy's lazy set-up
    tracemalloc.start()
    try:
        noise_module._char_function(4, n_traj, 0.7, MODEL, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 13 * width + 16 * np.getbufsize() + 8192


def test_mc_coherence_shortcuts_return_unity():
    ens = TrajectoryEnsemble(n_traj=10, seed=1)
    assert mc_coherence_magnitude(MODEL, 0.0, 4, ens) == 1.0
    assert mc_coherence_magnitude(MODEL, 1.0, 0, ens) == 1.0
    assert mc_coherence_magnitude(NoiseModel(0.0, 1.0, 1.0), 1.0, 4, ens) == 1.0
    with pytest.raises(NegativeTime):
        mc_coherence_magnitude(MODEL, -1.0, 4, ens)
    with pytest.raises(OutOfRange):
        mc_coherence_magnitude(MODEL, 1.0, -2, ens)


def _mc_band(model, t, weight, n_traj):
    """3 standard errors of the coherence-magnitude estimator."""
    d1 = coherence_factor(model, t, weight)
    d2 = coherence_factor(model, t, 2 * weight)
    var = max(0.5 * (1.0 + d2) - d1 * d1, 0.0)
    return 3.0 * math.sqrt(var / n_traj)


@pytest.mark.parametrize("t_frac", [0.02, 0.5, 2.0])
def test_mc_coherence_tracks_analytic_decay(t_frac):
    model = NoiseModel(gamma_prime=0.25, delta_e=1.0, tau_c=1.0)
    t = t_frac * model.tau_c
    weight = 4
    ens = TrajectoryEnsemble(n_traj=20000, seed=1234)
    got = mc_coherence_magnitude(model, t, weight, ens)
    want = coherence_factor(model, t, weight)
    assert abs(got - want) <= _mc_band(model, t, weight, ens.n_traj) + 1e-12


def test_mc_coherence_tracks_analytic_decay_at_long_times():
    # one exact step per trajectory: t = 1000 tau_c costs what t = tau_c does
    model = NoiseModel(gamma_prime=0.02, delta_e=1.0, tau_c=1.0)
    t = 1000.0 * model.tau_c
    ens = TrajectoryEnsemble(n_traj=20000, seed=2024)
    got = mc_coherence_magnitude(model, t, 1, ens)
    want = coherence_factor(model, t, 1)
    assert abs(got - want) <= _mc_band(model, t, 1, ens.n_traj) + 1e-12


def test_mc_trajectory_average_converges_to_channel():
    rng = np.random.default_rng(821)
    chain = random_chain(rng, 3)
    params = random_params(rng, gamma_prime=0.4, delta_e=1.0, tau_c=1.0, t=0.8)
    state = make_named_state("ghz", 3)
    ens = TrajectoryEnsemble(n_traj=20000, seed=77)
    mc = dense_rho(mc_trajectory_average(state, chain, params, ens))
    exact = dense_rho(
        evolve(
            apply_channel(state, NoiseModel.from_params(params), params.t),
            chain,
            params,
        )
    )
    assert float(np.abs(mc - exact).max()) < 0.05


def test_mc_trajectory_average_converges_to_channel_past_tau_c():
    rng = np.random.default_rng(829)
    chain = random_chain(rng, 3)
    params = random_params(rng, gamma_prime=0.4, delta_e=1.0, tau_c=1.0, t=2.0)
    state = random_sparse(rng, 3, size=8)
    ens = TrajectoryEnsemble(n_traj=20000, seed=79)
    mc = dense_rho(mc_trajectory_average(state, chain, params, ens))
    exact = dense_rho(
        evolve(
            apply_channel(state, NoiseModel.from_params(params), params.t),
            chain,
            params,
        )
    )
    assert float(np.abs(mc - exact).max()) < 0.05


def test_mc_trajectory_average_noise_free_shortcut():
    rng = np.random.default_rng(823)
    chain = random_chain(rng, 3)
    params = random_params(rng, delta_e=0.0)
    state = random_sparse(rng, 3)
    ens = TrajectoryEnsemble(n_traj=10, seed=5)
    result = mc_trajectory_average(state, chain, params, ens)
    assert result.rank == 1
    np.testing.assert_allclose(
        dense_rho(result), dense_rho(evolve(state, chain, params)), atol=1e-12
    )


def test_mc_trajectory_average_requires_pure_input():
    chain = make_chain([0.0, 1.0])
    params = PhysParams(delta_e=1.0)
    mixed = apply_channel(make_named_state("ghz", 2), MODEL, 0.5)
    with pytest.raises(OutOfRange):
        mc_trajectory_average(mixed, chain, params, TrajectoryEnsemble(5))
