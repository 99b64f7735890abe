"""QFI paths against brute-force dense oracles and each other.

Closed forms are checked three ways: against the dense finite-difference
oracle (independent construction), against qfi_general (different code
path inside the package), and against symbolic expressions recomputed
inline where a formula is short enough to restate.
"""

import math

import numpy as np
import pytest

from gradqfi import (
    FieldProfile,
    FisherReport,
    LengthMismatch,
    NoiseModel,
    OutOfRange,
    PhysParams,
    apply_channel,
    coherence_factor,
    make_chain,
    make_named_state,
    qfi_dfs_max,
    qfi_dfs_subspace,
    qfi_dicke,
    qfi_general,
    qfi_max_entangled,
    qfi_max_separable,
    qfi_noisy_ghz,
    qfi_noisy_psim,
    qfi_product_steady,
    qfi_pure,
    steady_twirl,
)

from conftest import (
    COHERENCES,
    oracle_qfi,
    oracle_qfi_pure,
    params_with_coherence,
    random_chain,
    random_mixture,
    random_params,
    random_sparse,
    rel_dev,
)


# ----------------------------------------------------------------------
# FisherReport container
# ----------------------------------------------------------------------


def test_fisher_report_crb_variance():
    assert FisherReport(4.0, "general").crb_variance == 0.25
    assert FisherReport(0.0, "general").crb_variance == math.inf
    assert FisherReport(math.inf, "x", divergent=True).crb_variance == 0.0


def test_fisher_report_rejects_negative_values():
    with pytest.raises(OutOfRange):
        FisherReport(-1e-3, "general")


# ----------------------------------------------------------------------
# pure-state QFI against the dense variance oracle
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_qfi_pure_matches_dense_variance(n):
    rng = np.random.default_rng(400 + n)
    for _ in range(8):
        chain = random_chain(rng, n)
        params = random_params(rng)
        state = random_sparse(rng, n)
        got = qfi_pure(state, chain, params).value
        assert got == pytest.approx(oracle_qfi_pure(state, chain, params), rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_qfi_pure_agrees_with_general(n):
    rng = np.random.default_rng(420 + n)
    for _ in range(6):
        chain = random_chain(rng, n)
        params = random_params(rng)
        state = random_sparse(rng, n)
        pure = qfi_pure(state, chain, params).value
        general = qfi_general(state, chain, params).value
        assert rel_dev(pure, general) < 1e-9 or abs(pure - general) < 1e-12


def test_qfi_pure_rejects_mixtures():
    rng = np.random.default_rng(5)
    chain = random_chain(rng, 2)
    mixed = random_mixture(rng, 2, rank=2)
    with pytest.raises(OutOfRange):
        qfi_pure(mixed, chain, PhysParams())
    with pytest.raises(LengthMismatch):
        qfi_pure(make_named_state("ghz", 3), chain, PhysParams())


# ----------------------------------------------------------------------
# general QFI against the finite-difference oracle
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_qfi_general_matches_finite_difference_oracle_pure(n):
    rng = np.random.default_rng(440 + n)
    for _ in range(4):
        chain = random_chain(rng, n)
        params = random_params(rng)
        state = random_sparse(rng, n)
        got = qfi_general(state, chain, params).value
        ref = oracle_qfi(state, chain, params)
        assert rel_dev(got, ref) < 1e-6 or abs(got - ref) < 1e-8


@pytest.mark.parametrize("n,rank", [(2, 2), (3, 2), (3, 4), (4, 3)])
def test_qfi_general_matches_finite_difference_oracle_mixed(n, rank):
    rng = np.random.default_rng(460 + 10 * n + rank)
    for _ in range(3):
        chain = random_chain(rng, n)
        params = random_params(rng)
        state = random_mixture(rng, n, rank)
        got = qfi_general(state, chain, params).value
        ref = oracle_qfi(state, chain, params)
        assert rel_dev(got, ref) < 1e-6 or abs(got - ref) < 1e-8


def test_qfi_general_is_offset_field_independent():
    rng = np.random.default_rng(47)
    chain = random_chain(rng, 4)
    state = random_sparse(rng, 4)
    values = [
        qfi_general(state, chain, random_params(rng, b0=b0, gamma=1.3, grad=0.4, t=0.9)).value
        for b0 in (0.0, 0.5, -2.0)
    ]
    assert rel_dev(values[0], values[1]) < 1e-9
    assert rel_dev(values[0], values[2]) < 1e-9


def test_qfi_general_fully_dephased_state_carries_nothing():
    chain = make_chain([0.0, 0.3, 0.7, 1.0])
    params = PhysParams(gamma_prime=1.0, delta_e=1.0, tau_c=1.0)
    state = apply_channel(
        make_named_state("ghz", 4), NoiseModel.from_params(params), math.inf
    )
    assert qfi_general(state, chain, params).value == pytest.approx(0.0, abs=1e-12)


# ----------------------------------------------------------------------
# closed forms, three ways
# ----------------------------------------------------------------------


def _sum_f(chain):
    return float(sum(chain.f_values))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 40])
def test_ghz_closed_form(n):
    rng = np.random.default_rng(500 + n)
    chain = random_chain(rng, n)
    params = random_params(rng)
    state = make_named_state("ghz", n)
    gt = params.gamma * params.t
    expected = gt * gt * _sum_f(chain) ** 2
    assert qfi_pure(state, chain, params).value == pytest.approx(expected, rel=1e-12)
    assert qfi_general(state, chain, params).value == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_max_entangled_form_and_state_achieve_each_other(n):
    rng = np.random.default_rng(520 + n)
    for _ in range(5):
        chain = random_chain(rng, n)
        params = random_params(rng)
        report, state = qfi_max_entangled(chain, params)
        gt = params.gamma * params.t
        expected = gt * gt * float(np.abs(chain.f_array).sum()) ** 2
        assert report.value == pytest.approx(expected, rel=1e-12)
        # the returned state actually reaches the bound
        assert qfi_pure(state, chain, params).value == pytest.approx(report.value, rel=1e-12)
        assert qfi_general(state, chain, params).value == pytest.approx(report.value, rel=1e-9)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_max_separable_form_matches_product_state(n):
    rng = np.random.default_rng(540 + n)
    chain = random_chain(rng, n)
    params = random_params(rng)
    report = qfi_max_separable(chain, params)
    gt = params.gamma * params.t
    assert report.value == pytest.approx(gt * gt * float((chain.f_array**2).sum()), rel=1e-12)
    product = make_named_state("product", n)
    assert qfi_pure(product, chain, params).value == pytest.approx(report.value, rel=1e-12)
    assert qfi_general(product, chain, params).value == pytest.approx(report.value, rel=1e-9)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_dfs_subspace_form_all_sectors(n):
    rng = np.random.default_rng(560 + n)
    chain = random_chain(rng, n)
    params = random_params(rng)
    for k in range(n + 1):
        report, state = qfi_dfs_subspace(chain, params, k)
        ell = min(k, n - k)
        pair = sum(chain.f_values[i] - chain.f_values[n - 1 - i] for i in range(ell))
        gt = params.gamma * params.t
        assert report.value == pytest.approx(gt * gt * pair * pair, rel=1e-12, abs=1e-15)
        assert qfi_pure(state, chain, params).value == pytest.approx(report.value, rel=1e-12, abs=1e-15)
        if n <= 5:
            got = qfi_general(state, chain, params).value
            assert rel_dev(got, report.value) < 1e-9 or abs(got - report.value) < 1e-12


def test_dfs_max_picks_the_best_sector():
    rng = np.random.default_rng(58)
    for n in (2, 3, 4, 5, 6, 7):
        chain = random_chain(rng, n)
        params = random_params(rng)
        report, state = qfi_dfs_max(chain, params)
        per_sector = [qfi_dfs_subspace(chain, params, k)[0].value for k in range(n + 1)]
        assert report.value == pytest.approx(max(per_sector), rel=1e-12)
        # both branches sit inside the half-filled sector
        assert {bits.count("1") for bits, _ in state.terms} == {n // 2}
        assert qfi_pure(state, chain, params).value == pytest.approx(report.value, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_dicke_closed_form_all_sectors(n):
    rng = np.random.default_rng(580 + n)
    chain = random_chain(rng, n)
    params = random_params(rng)
    for k in range(n + 1):
        report = qfi_dicke(chain, params, k)
        state = make_named_state("dicke", n, k=k)
        assert qfi_pure(state, chain, params).value == pytest.approx(
            report.value, rel=1e-10, abs=1e-12
        )
        if n <= 4:
            got = qfi_general(state, chain, params).value
            assert rel_dev(got, report.value) < 1e-9 or abs(got - report.value) < 1e-12


def test_dicke_edge_sectors_carry_nothing():
    rng = np.random.default_rng(59)
    chain = random_chain(rng, 5)
    params = random_params(rng)
    assert qfi_dicke(chain, params, 0).value == pytest.approx(0.0, abs=1e-12)
    assert qfi_dicke(chain, params, 5).value == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_psi_m_value_contract(n):
    # value = d_m(t)^2 (gamma t)^2 (sum |f|)^2 for every m, with the decay
    # weight |N - 2m|; the geometric factor assumes m counts the qubits
    # with f <= 0 (see the achievement test below for that boundary)
    rng = np.random.default_rng(600 + n)
    chain = random_chain(rng, n)
    params = random_params(rng)
    gt = params.gamma * params.t
    f_abs_sum = float(np.abs(chain.f_array).sum())
    quiet = PhysParams(
        gamma=params.gamma, b0=params.b0, grad=params.grad, t=params.t,
        gamma_prime=params.gamma_prime, delta_e=0.0, tau_c=params.tau_c,
    )
    for m in range(n + 1):
        d_m = coherence_factor(NoiseModel.from_params(params), params.t, abs(n - 2 * m))
        assert qfi_noisy_psim(chain, params, m).value == pytest.approx(
            d_m * d_m * gt * gt * f_abs_sum**2, rel=1e-12
        )
        assert qfi_noisy_psim(chain, quiet, m).value == pytest.approx(
            gt * gt * f_abs_sum**2, rel=1e-12
        )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_noisy_psim_achieved_by_the_sign_split_block(n):
    # the (sum |f|)^2 geometric factor is reached exactly when the flipped
    # block is the set of non-positive profile values
    rng = np.random.default_rng(620 + n)
    for _ in range(4):
        chain = random_chain(rng, n)
        params = random_params(rng)
        model = NoiseModel.from_params(params)
        m0 = int(np.count_nonzero(chain.f_array <= 0.0))
        state = apply_channel(make_named_state("psi-m", n, m=m0), model, params.t)
        got = qfi_general(state, chain, params).value
        want = qfi_noisy_psim(chain, params, m0).value
        assert rel_dev(got, want) < 1e-9 or abs(got - want) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dephased_two_branch_states_follow_their_branch_gap(n):
    # any m: the dephased |Psi_m> carries d_m^2 (gamma t)^2 (lambda gap)^2,
    # which only matches the psim closed form at the sign-split m
    rng = np.random.default_rng(630 + n)
    chain = random_chain(rng, n)
    params = random_params(rng)
    model = NoiseModel.from_params(params)
    gt = params.gamma * params.t
    for m in range(n + 1):
        pure = make_named_state("psi-m", n, m=m)
        state = apply_channel(pure, model, params.t)
        got = qfi_general(state, chain, params).value
        gap = sum(chain.f_values[m:]) - sum(chain.f_values[:m])
        d_m = coherence_factor(model, params.t, abs(n - 2 * m))
        want = d_m * d_m * gt * gt * gap * gap
        assert rel_dev(got, want) < 1e-9 or abs(got - want) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_noisy_ghz_matches_channel_plus_general(n):
    rng = np.random.default_rng(640 + n)
    chain = random_chain(rng, n)
    params = random_params(rng)
    model = NoiseModel.from_params(params)
    state = apply_channel(make_named_state("ghz", n), model, params.t)
    got = qfi_general(state, chain, params).value
    want = qfi_noisy_ghz(chain, params).value
    assert rel_dev(got, want) < 1e-9
    # and the closed form itself: d^2 (gamma t)^2 (sum f)^2
    d = coherence_factor(model, params.t, n)
    gt = params.gamma * params.t
    assert want == pytest.approx(d * d * gt * gt * _sum_f(chain) ** 2, rel=1e-12)


def test_general_qfi_of_dephased_ghz_past_the_old_dense_cap():
    # weak noise keeps the 16-qubit coherence d near 0.6: the channel stores
    # it in the spectral weights (1 +- d)/2, which resolve d only to ~1e-16
    rng = np.random.default_rng(67)
    chain = random_chain(rng, 16)
    params = random_params(rng, delta_e=0.05)
    model = NoiseModel.from_params(params)
    state = apply_channel(make_named_state("ghz", 16), model, params.t)
    got = qfi_general(state, chain, params).value
    assert rel_dev(got, qfi_noisy_ghz(chain, params).value) < 1e-9


def test_noisy_ghz_without_noise_reduces_to_pure():
    rng = np.random.default_rng(66)
    chain = random_chain(rng, 4)
    params = random_params(rng, delta_e=0.0)
    assert qfi_noisy_ghz(chain, params).value == pytest.approx(
        qfi_pure(make_named_state("ghz", 4), chain, params).value, rel=1e-12
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_product_steady_matches_twirl_plus_general(n):
    rng = np.random.default_rng(660 + n)
    chain = random_chain(rng, n)
    params = random_params(rng)
    steady = steady_twirl(make_named_state("product", n))
    got = qfi_general(steady, chain, params).value
    want = qfi_product_steady(chain, params).value
    assert rel_dev(got, want) < 1e-9
    # centered-variance form
    f = chain.f_array
    gt = params.gamma * params.t
    assert want == pytest.approx(gt * gt * float(((f - f.mean()) ** 2).sum()), rel=1e-12)


def test_twirled_product_far_from_x0_shifts_lambda_by_its_first_eigenvector():
    # on the ascending union the first row need not belong to the heaviest
    # eigenvector; the lambda shift must still come from that eigenvector's
    # first row, or the c (k - k_0) term stops vanishing within its sector
    rng = np.random.default_rng(1630)
    for n in range(2, 11):
        steady = steady_twirl(make_named_state("product", n))
        for _ in range(5):
            chain = make_chain(np.sort(rng.uniform(0.0, 1.0, size=n)), x0=-1e2)
            params = random_params(rng)
            got = qfi_general(steady, chain, params).value
            assert rel_dev(got, qfi_product_steady(chain, params).value) < 1e-13, n


@pytest.mark.parametrize("n", [2, 3, 7, 40, 300, 1000])
@pytest.mark.parametrize("offset", [0.0, 1e4])
def test_steady_product_reads_the_chain_spread_bit_for_bit(n, offset):
    # the steady product and Dicke read one sum_i (f_i - mean f)^2, formed once per chain
    rng = np.random.default_rng(6900 + n)
    chain = make_chain(offset + rng.uniform(-1, 1, size=n), x0=0.0)
    params = random_params(rng)
    gt = params.gamma * params.t
    assert qfi_product_steady(chain, params).value.hex() == (gt * gt * chain.spread).hex()


@pytest.mark.parametrize("n", [2, 3, 7, 40])
def test_dicke_reads_the_chain_spread_bit_for_bit(n):
    rng = np.random.default_rng(6800 + n)
    chain = make_chain(1e4 + rng.uniform(-1, 1, size=n), x0=0.0)
    params = random_params(rng)
    centred = chain.f_array - chain.f_array.mean()
    spread = math.fsum((centred * centred).tolist())
    gt2 = (params.gamma * params.t) ** 2
    for k in range(n + 1):
        want = gt2 * 4.0 * k * (n - k) / (n * (n - 1)) * spread
        assert qfi_dicke(chain, params, k).value.hex() == want.hex()
    assert chain.__dict__["spread"] == spread  # computed once, kept on the chain


def test_steady_and_dicke_values_ignore_the_reference_point():
    rng = np.random.default_rng(68)
    positions = sorted(rng.uniform(-1, 1, size=5))
    params = random_params(rng)
    for shift in (0.0, 0.37, -1.4):
        chain = make_chain(positions, x0=shift)
        assert qfi_product_steady(chain, params).value == pytest.approx(
            qfi_product_steady(make_chain(positions, x0=0.0), params).value, rel=1e-9
        )
        assert qfi_dicke(chain, params, 2).value == pytest.approx(
            qfi_dicke(make_chain(positions, x0=0.0), params, 2).value, rel=1e-9
        )


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("offset", [1e4, 1e6, 1e8])
def test_single_sector_probes_far_from_x0_match_centred_closed_forms(n, offset):
    # one excitation sector sees only the centred profile f - mean(f), so a
    # chain far from x0 must give the same information as a chain at x0, to
    # 1e-9 of the offset-free scale (gamma t)^2 sum (f - mean f)^2
    rng = np.random.default_rng(700 + n)
    chain = make_chain(offset + np.sort(rng.uniform(0.0, 1.0, size=n)), x0=0.0)
    params = random_params(rng)
    gt2 = (params.gamma * params.t) ** 2
    mean = math.fsum(chain.f_values) / n
    g = [fx - mean for fx in chain.f_values]
    spread = math.fsum(x * x for x in g)
    scale = gt2 * spread
    half = n // 2
    gap = math.fsum(g[half:]) - math.fsum(g[:half])

    def dicke(k):
        return gt2 * 4.0 * k * (n - k) / (n * (n - 1)) * spread

    cases = [
        ("w", make_named_state("dicke", n, k=1), dicke(1), qfi_dicke(chain, params, 1)),
        ("dicke-half", make_named_state("dicke", n, k=half), dicke(half),
         qfi_dicke(chain, params, half)),
        ("odf-half", make_named_state("odf", n, k=half), gt2 * gap * gap,
         qfi_dfs_subspace(chain, params, half)[0]),
        ("psi-half", make_named_state("psi-m", n, m=half), gt2 * gap * gap,
         qfi_dfs_subspace(chain, params, half)[0]),
    ]
    for name, state, want, closed in cases:
        for path, got in (
            ("general", qfi_general(state, chain, params).value),
            ("pure", qfi_pure(state, chain, params).value),
            ("closed", closed.value),
        ):
            assert abs(got - want) <= 1e-9 * scale, f"{name} {path}: {got!r} vs {want!r}"


def test_closed_forms_scale_quadratically_with_geometry():
    rng = np.random.default_rng(69)
    positions = sorted(rng.uniform(0.1, 1.0, size=4))
    params = random_params(rng)
    base = make_chain(positions, x0=0.0)
    scaled = make_chain([3.0 * x for x in positions], x0=0.0)
    for fn in (qfi_max_separable, qfi_product_steady):
        assert fn(scaled, params).value == pytest.approx(9.0 * fn(base, params).value, rel=1e-12)
    assert qfi_max_entangled(scaled, params)[0].value == pytest.approx(
        9.0 * qfi_max_entangled(base, params)[0].value, rel=1e-12
    )


def test_custom_profile_flows_through_closed_forms():
    profile = FieldProfile("custom", lambda u: u * u - 0.4 * u)
    rng = np.random.default_rng(70)
    chain = make_chain(rng.uniform(-1, 1, size=4), x0=0.1, profile=profile)
    params = random_params(rng)
    want = qfi_max_separable(chain, params).value
    got = qfi_general(make_named_state("product", 4), chain, params).value
    assert rel_dev(got, want) < 1e-9


def test_sector_index_validation():
    chain = make_chain([0.0, 1.0])
    params = PhysParams()
    with pytest.raises(OutOfRange):
        qfi_dfs_subspace(chain, params, 3)
    with pytest.raises(OutOfRange):
        qfi_dicke(chain, params, -1)
    with pytest.raises(OutOfRange):
        qfi_noisy_psim(chain, params, 5)


@pytest.mark.parametrize("d", COHERENCES)
def test_strongly_dephased_ghz_keeps_its_coherence(d):
    # the coherence d enters the value as d^2 and lives in one entry of the
    # sector matrix, not in eigen-weights (1 +/- d) / 2
    rng = np.random.default_rng(2201)
    n = 16
    chain = make_chain(np.sort(rng.uniform(0.0, 1.0, size=n)), x0=-0.3)
    params = params_with_coherence(d, n, gamma=1.3, b0=0.2, grad=0.4)
    state = apply_channel(make_named_state("ghz", n), NoiseModel.from_params(params), params.t)
    want = qfi_noisy_ghz(chain, params).value
    assert want > 0.0
    assert rel_dev(qfi_general(state, chain, params).value, want) < 1e-12


@pytest.mark.parametrize("d", COHERENCES)
def test_strongly_dephased_psi_m_matches_its_branch_gap(d):
    # at the sign split (m counts the qubits with f <= 0) the gap is sum |f|, the
    # closed form's; at any other m it is sum_i s_i f_i with s_i = -1 on the flipped block
    rng = np.random.default_rng(2202)
    n = 10
    chain = make_chain(np.sort(rng.uniform(-1.0, 1.0, size=n)), x0=0.05)
    split = int(np.count_nonzero(chain.f_array <= 0.0))
    f = chain.f_array.tolist()
    for m in range(n + 1):
        if 2 * m == n:  # one sector: no coherence to lose
            continue
        params = params_with_coherence(d, abs(n - 2 * m), gamma=0.9, b0=0.1, grad=0.3)
        model = NoiseModel.from_params(params)
        state = apply_channel(make_named_state("psi-m", n, m=m), model, params.t)
        got = qfi_general(state, chain, params).value
        gap = math.fsum(-x if i < m else x for i, x in enumerate(f))
        gt = params.gamma * params.t
        coherence = coherence_factor(model, params.t, abs(n - 2 * m))
        want = (coherence * gt * gap) ** 2
        assert rel_dev(got, want) < 1e-12, m
        if m == split:
            assert rel_dev(got, qfi_noisy_psim(chain, params, m).value) < 1e-12


_MIXED = {
    "dephased-ghz": lambda rng, n, params: apply_channel(
        make_named_state("ghz", n), NoiseModel.from_params(params), params.t),
    "twirled-product": lambda rng, n, params: steady_twirl(make_named_state("product", n)),
    "user-built": lambda rng, n, params: random_mixture(rng, n, rank=3),
}


@pytest.mark.parametrize("name", sorted(_MIXED))
def test_a_mixed_state_runs_one_eigh(name, monkeypatch):
    # the positivity check, the QFI and the eigen-views read the state's one spectrum
    rng = np.random.default_rng(2301)
    chain, params = random_chain(rng, 4), random_params(rng)
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    state = _MIXED[name](rng, 4, params)
    assert qfi_general(state, chain, params).value > 0.0
    assert len(state.weights) == len(state.eigenpairs) > 1
    assert len(calls) == 1
