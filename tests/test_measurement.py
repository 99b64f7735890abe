"""Parity and J_x statistics, classical Fisher information, error propagation."""

import math

import numpy as np
import pytest

from gradqfi import measurement
from gradqfi import (
    FlatResponse,
    LengthMismatch,
    NoiseModel,
    OutOfRange,
    OutcomeDistribution,
    PhysParams,
    SelfCheckFailed,
    apply_channel,
    classical_fisher,
    coherence_factor,
    error_propagation,
    evolve,
    jx_distribution,
    make_chain,
    make_named_state,
    parity_distribution,
    parity_expectation,
    qfi_general,
    qfi_pure,
    steady_twirl,
    theta_for_saturation,
)

from gradqfi.core import SparseState, SpectralState, _cmul, _evolution_terms

from conftest import (
    COHERENCES,
    dense_rho,
    oracle_parity,
    params_with_coherence,
    random_chain,
    random_mixture,
    random_params,
    random_sparse,
    reference_complement_pairing,
    rel_dev,
)


def _sum_f(chain):
    return float(sum(chain.f_values))


def _fringe_phase(chain, params, theta=0.0):
    return (
        chain.n * params.gamma * params.b0 * params.t
        + params.gamma * params.grad * params.t * _sum_f(chain)
        + theta
    )


# ----------------------------------------------------------------------
# parity expectation
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ghz_parity_fringe(n):
    rng = np.random.default_rng(900 + n)
    for _ in range(5):
        chain = random_chain(rng, n)
        params = random_params(rng)
        got = parity_expectation(make_named_state("ghz", n), chain, params)
        assert got == pytest.approx(math.cos(_fringe_phase(chain, params)), abs=1e-12)


def test_ghz_theta_parity_fringe_with_dephasing():
    rng = np.random.default_rng(91)
    chain = random_chain(rng, 4)
    params = random_params(rng)
    theta = 0.9
    state = make_named_state("ghz-theta", 4, theta=theta)
    noisy = apply_channel(state, NoiseModel.from_params(params), params.t)
    d = coherence_factor(NoiseModel.from_params(params), params.t, 4)
    want = d * math.cos(_fringe_phase(chain, params, theta))
    assert parity_expectation(noisy, chain, params) == pytest.approx(want, abs=1e-12)


def test_balanced_two_branch_parity_is_offset_free():
    rng = np.random.default_rng(92)
    chain = random_chain(rng, 6)
    state = make_named_state("odf", 6, k=3)
    pair = sum(chain.f_values[i] - chain.f_values[5 - i] for i in range(3))
    values = []
    for b0 in (0.0, 0.7, -1.3):
        params = random_params(rng, b0=b0, gamma=1.1, grad=0.5, t=0.8)
        got = parity_expectation(state, chain, params)
        assert got == pytest.approx(math.cos(1.1 * 0.5 * 0.8 * pair), abs=1e-12)
        values.append(got)
    assert values[0] == pytest.approx(values[1], abs=1e-14)
    assert values[0] == pytest.approx(values[2], abs=1e-14)


def test_unbalanced_two_branch_parity_vanishes():
    # branches that are not bit complements contribute no X^n matrix element
    rng = np.random.default_rng(93)
    chain = random_chain(rng, 5)
    params = random_params(rng)
    state = make_named_state("odf", 5, k=1)
    assert parity_expectation(state, chain, params) == 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_parity_matches_dense_oracle(n):
    rng = np.random.default_rng(920 + n)
    for _ in range(5):
        chain = random_chain(rng, n)
        params = random_params(rng)
        state = random_sparse(rng, n)
        assert parity_expectation(state, chain, params) == pytest.approx(
            oracle_parity(state, chain, params), abs=1e-12
        )


@pytest.mark.parametrize("offset", [1e4, 1e8])
@pytest.mark.parametrize("n", [6, 9, 13])
def test_parity_readout_matches_the_evolved_state_far_from_x0(n, offset):
    # parity_expectation and evolve evolve the same bitstrings; contracting
    # sigma_x^(x)n over evolve's amplitudes must give the readout's value
    # (n = 9 and 13: the complement lookup on longer rows and 2^13-term supports)
    rng = np.random.default_rng(760)
    chain = make_chain(offset + np.sort(rng.uniform(0.0, 1.0, size=n)), x0=0.0)
    params = random_params(rng, grad=float(rng.uniform(0.1, 1.0)))
    flip = str.maketrans("01", "10")
    for state in (
        make_named_state("ghz", n),
        make_named_state("product", n),
        make_named_state("odf", n, k=n // 2),
    ):
        amps = dict(evolve(state, chain, params).terms)
        contracted = sum(
            amps[bits.translate(flip)].conjugate() * amp
            for bits, amp in amps.items()
            if bits.translate(flip) in amps
        )
        got = parity_expectation(state, chain, params)
        assert abs(contracted.real - got) <= 1e-12, f"{contracted.real!r} vs {got!r}"


def _dict_paired_parity(state, chain, params):
    """Parity value and gradient with each complement found by a dict lookup
    on bitstrings, summed row by row with the readout's arithmetic."""
    if isinstance(state, SpectralState):
        return _dict_paired_sector_parity(state, chain, params)
    gt = params.gamma * params.t
    flip = str.maketrans("01", "10")
    value = grad = 0.0
    for weight, vec in state.eigenpairs:
        phase, lam = _evolution_terms(vec.bits, chain, params)
        amps = _cmul(vec.amps, np.cos(phase), -np.sin(phase)).tolist()
        rows = [bits for bits, _ in vec.terms]
        where = {bits: j for j, bits in enumerate(rows)}
        v_sum = d_sum = 0.0
        for i, bits in enumerate(rows):
            j = where.get(bits.translate(flip))
            if j is None:
                continue
            a, b = amps[i], amps[j]
            re = a.real * b.real - a.imag * -b.imag
            im = a.real * -b.imag + a.imag * b.real
            v_sum += re
            d_sum += re * 0.0 - im * ((-2.0 * gt) * float(lam[i]))
        value += weight * v_sum
        grad += weight * d_sum
    return value, grad


def _times(x, re, im):
    """x * complex(re, im), each part written out as CPython's complex product rounds it."""
    return complex(x.real * re - x.imag * im, x.real * im + x.imag * re)


def _dict_paired_sector_parity(state, chain, params):
    """The same on a mixed state's sector columns, in Python complex arithmetic:
    rho'_{I, comp I} = sum_ab (q'_a(I) m[a, b]) conj(q'_b(comp I)), row by row."""
    gt = params.gamma * params.t
    flip = str.maketrans("01", "10")
    phase, lam = _evolution_terms(state.bits, chain, params)
    q = _cmul(state.basis, np.cos(phase)[:, None], -np.sin(phase)[:, None]).tolist()
    m = state.m.astype(complex).tolist()
    width = state.basis.shape[1]
    rows = ["".join("01"[b] for b in row) for row in state.bits.tolist()]
    where = {bits: j for j, bits in enumerate(rows)}
    value = grad = 0.0
    for i, bits in enumerate(rows):
        j = where.get(bits.translate(flip))
        if j is None:
            continue
        term = 0j
        for a in range(width):
            for b in range(width):
                coef = m[int(state.sector[i]) * width + a][int(state.sector[j]) * width + b]
                partner = q[j][b]
                term += _times(_times(q[i][a], coef.real, coef.imag), partner.real, -partner.imag)
        value += term.real
        grad += term.real * 0.0 - term.imag * ((-2.0 * gt) * float(lam[i]))
    return value, grad


def _random_subset(rng, n, size):
    """A random support with the complements of a third of its rows added, so
    some rows pair up and others do not."""
    flip = str.maketrans("01", "10")
    rows = sorted({format(int(v), f"0{n}b") for v in rng.integers(0, 1 << min(n, 62), size=size)})
    rows = sorted(set(rows) | {bits.translate(flip) for bits in rows[: len(rows) // 3]})
    amps = rng.normal(size=len(rows)) + 1j * rng.normal(size=len(rows))
    return SparseState.from_terms(n, zip(rows, amps / np.linalg.norm(amps)))


@pytest.mark.parametrize("n", [2, 5, 9, 20, 62, 63, 100])
def test_parity_pairs_each_row_with_its_complement_as_a_dict_lookup(n):
    rng = np.random.default_rng(1303 + n)
    chain = make_chain(1e2 + np.sort(rng.uniform(0.0, 1.0, size=n)), x0=0.0)
    params = random_params(rng, grad=float(rng.uniform(0.1, 1.0)))
    states = [
        make_named_state("ghz", n),
        make_named_state("psi-m", n, m=1),
        make_named_state("psi-m", n, m=n // 2),
        make_named_state("odf", n, k=1),
        _random_subset(rng, n, 40),
    ]
    if n % 2:
        states.append(make_named_state("odf", n, k=n // 2))
    if n <= 20:
        states.append(make_named_state("dicke", n, k=n // 2))
    # GHZ and psi-m with m = 1 share no row, so they mix into a rank-2 state
    states.append(SpectralState(n, ((0.3, states[0]), (0.7, states[1]))))
    # and the library's mixtures: eigenvectors on one row set, zero where they have no entry
    model = NoiseModel(gamma_prime=0.8, delta_e=1.2, tau_c=0.7)
    dephased = apply_channel(states[4], model, 0.4)
    states += [apply_channel(states[0], model, 0.7), dephased, steady_twirl(dephased),
               steady_twirl(states[-1])]
    if n <= 9:
        states.append(apply_channel(make_named_state("product", n), model, 0.8))
    for state in states:
        got = measurement._parity_value_and_gradient(state, chain, params)
        assert got == _dict_paired_parity(state, chain, params)


def test_parity_pairing_of_a_mixture_with_shared_rows():
    rng = np.random.default_rng(1304)
    chain = random_chain(rng, 4)
    params = random_params(rng)
    state = random_mixture(rng, 4, rank=3)
    got = measurement._parity_value_and_gradient(state, chain, params)
    assert got == _dict_paired_parity(state, chain, params)


def test_parity_matches_dense_oracle_for_mixtures():
    rng = np.random.default_rng(94)
    chain = random_chain(rng, 3)
    params = random_params(rng)
    state = random_mixture(rng, 3, rank=3)
    assert parity_expectation(state, chain, params) == pytest.approx(
        oracle_parity(state, chain, params), abs=1e-12
    )


# ----------------------------------------------------------------------
# parity distribution and its derivatives
# ----------------------------------------------------------------------


def test_parity_distribution_structure():
    rng = np.random.default_rng(95)
    chain = random_chain(rng, 3)
    params = random_params(rng)
    state = make_named_state("ghz", 3)
    dist = parity_distribution(state, chain, params)
    labels = [label for label, _, _ in dist.outcomes]
    assert labels == ["+1", "-1"]
    assert sum(dist.probabilities) == pytest.approx(1.0, abs=1e-14)
    value = parity_expectation(state, chain, params)
    assert dist.probabilities[0] == pytest.approx(0.5 * (1 + value), abs=1e-14)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_parity_derivatives_match_finite_differences(n):
    rng = np.random.default_rng(950 + n)
    delta = 1e-6
    for _ in range(4):
        chain = random_chain(rng, n)
        params = random_params(rng)
        state = random_sparse(rng, n)
        dist = parity_distribution(state, chain, params)

        def p_plus(g):
            shifted = PhysParams(
                gamma=params.gamma, b0=params.b0, grad=g, t=params.t,
                gamma_prime=params.gamma_prime, delta_e=params.delta_e,
                tau_c=params.tau_c,
            )
            return 0.5 * (1.0 + parity_expectation(state, chain, shifted))

        fd = (p_plus(params.grad + delta) - p_plus(params.grad - delta)) / (2 * delta)
        assert dist.derivatives[0] == pytest.approx(fd, rel=1e-6, abs=1e-7)
        assert dist.derivatives[1] == pytest.approx(-fd, rel=1e-6, abs=1e-7)


def _complement_closed_sparse(rng, n, pairs):
    """A random state on `pairs` bitstrings below their complement and those complements."""
    low = rng.choice(1 << (n - 1), size=pairs, replace=False)  # qubit 1 unexcited
    rows = [format(int(i), f"0{n}b") for i in low]
    rows += [row.translate(str.maketrans("01", "10")) for row in rows]
    amps = rng.normal(size=len(rows)) + 1j * rng.normal(size=len(rows))
    return SparseState.from_terms(n, zip(rows, (amps / np.linalg.norm(amps)).tolist()))


_CLOSED_SUPPORTS = {
    "product": lambda: make_named_state("product", 10),
    "ghz": lambda: make_named_state("ghz", 12),
    "balanced-dicke": lambda: make_named_state("dicke", 10, k=5),
    "random-closed": lambda: _complement_closed_sparse(np.random.default_rng(2431), 9, 40),
    "dephased-product": lambda: apply_channel(make_named_state("product", 8),
                                              NoiseModel(1.0, 1.0, 1.0), 0.6),
}


@pytest.mark.parametrize("offset", [0.0, 1e4])
@pytest.mark.parametrize("name", sorted(_CLOSED_SUPPORTS))
def test_reversal_pairing_equals_the_searched_pairing(name, offset, monkeypatch):
    # a complement-closed support pairs row I with row s - 1 - I by two slices: the
    # same pairs in the same order as the search, and so the same parity bytes
    state = _CLOSED_SUPPORTS[name]()
    rng = np.random.default_rng(2432)
    chain = make_chain(offset + np.sort(rng.uniform(0.0, 1.0, size=state.n_qubits)), x0=0.0)
    params = random_params(rng, grad=0.6)
    paired, at = measurement._complement_rows(state.bits)
    assert (paired, at) == (slice(None), slice(None, None, -1))
    want_paired, want_at = reference_complement_pairing(state.bits)
    rows = np.arange(len(state.bits))
    assert rows[paired].tobytes() == want_paired.tobytes()
    assert rows[at].tobytes() == want_at.tobytes()
    got = measurement._parity_value_and_gradient(state, chain, params)
    monkeypatch.setattr(measurement, "_complement_rows", reference_complement_pairing)
    want = measurement._parity_value_and_gradient(state, chain, params)
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert np.array(got).tobytes() == np.array(_dict_paired_parity(state, chain, params)).tobytes()


def _open_sparse(rng, n, rows):
    """A random state on `rows` bitstrings with qubit 1 unexcited, none the complement of
    another, plus the complements of some but not all of them."""
    low = rng.random((rows, n)) < 0.5
    low[:, 0] = False
    low = np.unique(low, axis=0)
    bits = np.concatenate([low, ~low[: int(rng.integers(1, len(low)))]])
    amps = rng.normal(size=len(bits)) + 1j * rng.normal(size=len(bits))
    return SparseState.from_terms(n, zip(("".join("01"[b] for b in row) for row in bits.tolist()),
                                         (amps / np.linalg.norm(amps)).tolist()))


@pytest.mark.parametrize("seed", range(2433, 2438))
@pytest.mark.parametrize("n", [7, 20, 62, 63, 100])  # up to rows no int64 index holds
def test_searched_pairing_on_open_supports_equals_the_dict_pairing(n, seed):
    rng = np.random.default_rng(seed)
    state = _open_sparse(rng, n, int(rng.integers(2, 60)))
    got = measurement._complement_rows(state.bits)
    assert not isinstance(got[0], slice)
    assert 0 < len(got[0]) < state.support_size
    for part, want in zip(got, reference_complement_pairing(state.bits)):
        assert part.tobytes() == want.tobytes()


_NO_PAIR_STATES = {
    "dicke-n5-k2": lambda: make_named_state("dicke", 5, k=2),
    "dicke-n9-k4": lambda: make_named_state("dicke", 9, k=4),
    "dicke-n19-k9": lambda: make_named_state("dicke", 19, k=9),
    "dicke-n6-k1": lambda: make_named_state("dicke", 6, k=1),
    "dicke-n17-k1": lambda: make_named_state("dicke", 17, k=1),
    "dicke-n17-k2": lambda: make_named_state("dicke", 17, k=2),
    "twirled-dicke-n7-k3": lambda: steady_twirl(make_named_state("dicke", 7, k=3)),
}


@pytest.mark.parametrize("name", sorted(_NO_PAIR_STATES))
def test_no_complementary_classes_read_exactly_zero_with_no_phase(name, monkeypatch):
    state = _NO_PAIR_STATES[name]()
    rng = np.random.default_rng(2438)
    chain = make_chain(1e4 + np.sort(rng.uniform(0.0, 1.0, size=state.n_qubits)), x0=0.0)
    params = random_params(rng, grad=0.6)
    if state.n_qubits <= 9:  # the dict pairing finds no pair either
        assert _dict_paired_parity(state, chain, params) == (0.0, 0.0)

    def no_phase(*args, **kwargs):
        raise AssertionError("a phase was computed")

    monkeypatch.setattr(measurement, "_evolution_terms", no_phase)
    value, grad = measurement._parity_value_and_gradient(state, chain, params)
    assert type(value) is float and type(grad) is float
    assert np.array([value, grad]).tobytes() == np.zeros(2).tobytes()  # +0.0, not -0.0
    dist = parity_distribution(state, chain, params)
    assert dist.outcomes == (("+1", 0.5, 0.0), ("-1", 0.5, -0.0))


@pytest.mark.parametrize("name", ["dicke-n5-k2", "dicke-n6-k1", "twirled-dicke-n7-k3"])
def test_no_pair_state_on_a_chain_of_the_wrong_length_still_raises(name):
    state = _NO_PAIR_STATES[name]()
    chain = make_chain(np.arange(state.n_qubits - 1, dtype=float))
    message = f"^state has {state.n_qubits} qubits but chain has {state.n_qubits - 1}$"
    with pytest.raises(LengthMismatch, match=message):
        parity_distribution(state, chain, PhysParams(grad=0.4))


def test_outcome_distribution_validation():
    with pytest.raises(OutOfRange):
        OutcomeDistribution((("a", 0.6, 0.0), ("b", 0.5, 0.0)))
    with pytest.raises(OutOfRange):
        OutcomeDistribution((("a", -0.01, 0.0), ("b", 1.01, 0.0)))
    with pytest.raises(OutOfRange):
        OutcomeDistribution((("a", 0.5, 0.3), ("b", 0.5, 0.1)))
    dist = OutcomeDistribution((("a", 1.0, 0.2), ("b", 0.0, -0.2)))
    assert dist.probabilities == (1.0, 0.0)
    # a NaN sum fails too: OutOfRange from the user, SelfCheckFailed from the library
    for outcomes in ((("a", math.nan, 0.0),), (("a", 1.0, math.nan),),
                     (("a", 0.5, math.nan), ("b", 0.5, 0.0))):
        with pytest.raises(OutOfRange, match="sum to nan"):
            OutcomeDistribution(outcomes)
        with pytest.raises(SelfCheckFailed, match="sum to nan"):
            measurement._computed_distribution(outcomes)


# ----------------------------------------------------------------------
# classical Fisher information
# ----------------------------------------------------------------------


def test_a_readout_failing_its_own_sum_check_is_a_self_check_failure(monkeypatch):
    # a user-built OutcomeDistribution still raises OutOfRange (see above); one
    # the library computed points at the library
    real = measurement._walsh_hadamard
    monkeypatch.setattr(measurement, "_walsh_hadamard", lambda vec: 1.01 * real(vec))
    chain, params = make_chain([0.0, 0.5, 1.0]), PhysParams(grad=0.4)
    with pytest.raises(SelfCheckFailed, match="probabilities sum to"):
        jx_distribution(make_named_state("ghz", 3), chain, params)


def test_classical_fisher_two_outcome_formula():
    dist = OutcomeDistribution((("+1", 0.3, 0.12), ("-1", 0.7, -0.12)))
    want = 0.12**2 / 0.3 + 0.12**2 / 0.7
    assert classical_fisher(dist).value == pytest.approx(want, rel=1e-14)


def test_classical_fisher_divergent_outcome():
    report = classical_fisher(OutcomeDistribution((("+1", 1.0, 0.5), ("-1", 0.0, -0.5))))
    assert math.isinf(report.value)
    assert report.divergent
    assert report.crb_variance == 0.0


def test_classical_fisher_skips_empty_outcomes():
    report = classical_fisher(OutcomeDistribution((("+1", 1.0, 0.0), ("-1", 0.0, 0.0))))
    assert report.value == 0.0
    assert not report.divergent


@pytest.mark.parametrize("n", [2, 4, 6])
def test_ghz_parity_cfi_saturates_qfi_at_generic_points(n):
    rng = np.random.default_rng(960 + n)
    for _ in range(6):
        chain = random_chain(rng, n)
        params = random_params(rng, grad=float(rng.uniform(0.1, 1.0)))
        state = make_named_state("ghz", n)
        cfi = classical_fisher(parity_distribution(state, chain, params)).value
        qfi = qfi_pure(state, chain, params).value
        assert rel_dev(cfi, qfi) < 1e-9
        gt = params.gamma * params.t
        assert cfi == pytest.approx(gt * gt * _sum_f(chain) ** 2, rel=1e-9)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_balanced_two_branch_parity_cfi_saturates_qfi(n):
    rng = np.random.default_rng(970 + n)
    for _ in range(6):
        chain = random_chain(rng, n)
        params = random_params(rng, grad=float(rng.uniform(0.1, 1.0)))
        state = make_named_state("odf", n, k=n // 2)
        cfi = classical_fisher(parity_distribution(state, chain, params)).value
        qfi = qfi_pure(state, chain, params).value
        assert rel_dev(cfi, qfi) < 1e-9 or abs(cfi - qfi) < 1e-12


@pytest.mark.parametrize("offset", [1e4, 1e6, 1e8])
@pytest.mark.parametrize("n", [4, 6])
def test_balanced_parity_cfi_far_from_x0_matches_offset_free_qfi(n, offset):
    # the balanced probe sees only the centred profile, so its parity CFI on
    # a chain far from x0 is (gamma t)^2 (sum of centred f, upper half minus
    # lower half)^2, the offset-free QFI
    rng = np.random.default_rng(730 + n)
    chain = make_chain(offset + np.sort(rng.uniform(0.0, 1.0, size=n)), x0=0.0)
    params = random_params(rng, grad=float(rng.uniform(0.1, 1.0)))
    mean = math.fsum(chain.f_values) / n
    g = [fx - mean for fx in chain.f_values]
    half = n // 2
    gap = math.fsum(g[half:]) - math.fsum(g[:half])
    want = (params.gamma * params.t * gap) ** 2
    state = make_named_state("odf", n, k=half)
    cfi = classical_fisher(parity_distribution(state, chain, params)).value
    assert rel_dev(cfi, want) < 1e-9, f"{cfi!r} vs {want!r}"


@pytest.mark.parametrize("n", [12, 14])
def test_product_parity_cfi_far_from_x0_matches_per_qubit_closed_form(n):
    # <X^N> of the product state is prod_i cos(theta_i), theta_i =
    # gamma t (B0 + G f_i); its 2^n-term sum pairs bitstring phases of order
    # n * theta_i, which must not be rounded at that scale
    rng = np.random.default_rng(750 + n)
    chain = make_chain(1e4 + np.sort(rng.uniform(0.0, 1.0, size=n)), x0=0.0)
    params = random_params(rng, grad=float(rng.uniform(0.1, 1.0)))
    gt = params.gamma * params.t
    theta = [gt * (params.b0 + params.grad * fx) for fx in chain.f_values]
    cos = [math.cos(x) for x in theta]
    value = math.prod(cos)
    slope = math.fsum(
        -gt * fx * math.sin(x) * math.prod(cos[:i] + cos[i + 1:])
        for i, (fx, x) in enumerate(zip(chain.f_values, theta))
    )
    want = slope * slope / (1.0 - value * value)
    mean = math.fsum(chain.f_values) / n
    scale = max(want, gt * gt * math.fsum((fx - mean) ** 2 for fx in chain.f_values))
    state = make_named_state("product", n)
    cfi = classical_fisher(parity_distribution(state, chain, params)).value
    assert abs(cfi - want) <= 1e-9 * scale, f"{cfi!r} vs {want!r}"


def test_parity_cfi_at_the_exact_fringe_top_is_zero():
    # sin(alpha) = 0 exactly: the fringe is first-order insensitive and the
    # two-outcome statistics carry no information at this single point
    chain = make_chain([0.0, 0.5, 1.0])
    params = PhysParams(b0=0.0, grad=0.0)
    state = make_named_state("ghz", 3)
    report = classical_fisher(parity_distribution(state, chain, params))
    assert report.value == 0.0
    assert not report.divergent


def test_cfi_never_exceeds_qfi():
    rng = np.random.default_rng(98)
    for n in (2, 3, 4):
        for _ in range(5):
            chain = random_chain(rng, n)
            params = random_params(rng)
            state = random_sparse(rng, n)
            qfi = qfi_pure(state, chain, params).value
            for dist_fn in (parity_distribution, jx_distribution):
                cfi = classical_fisher(dist_fn(state, chain, params)).value
                assert cfi <= qfi * (1 + 1e-9) + 1e-12


# ----------------------------------------------------------------------
# J_x projective statistics
# ----------------------------------------------------------------------


def test_jx_distribution_labels_and_normalization():
    rng = np.random.default_rng(990)
    chain = random_chain(rng, 2)
    params = random_params(rng)
    dist = jx_distribution(make_named_state("ghz", 2), chain, params)
    assert [label for label, _, _ in dist.outcomes] == ["1", "0", "-1"]
    assert sum(dist.probabilities) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_jx_distribution_matches_dense_hadamard_oracle(n):
    rng = np.random.default_rng(991 + n)
    chain = random_chain(rng, n)
    params = random_params(rng)

    # oracle: rotate the evolved dense rho with an explicit H^(x)n
    from conftest import dense_unitary

    h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    had = np.array([[1.0]])
    for _ in range(n):
        had = np.kron(had, h1)
    rotate = had @ dense_unitary(chain, params)
    # a pure state, and a mixture whose widest sector holds min(3, n) columns
    states = (random_sparse(rng, n), random_mixture(rng, n, rank=min(3, 1 << n)))
    assert states[1].basis.shape[1] == min(3, n)
    for state in states:
        dist = jx_distribution(state, chain, params)
        rho = rotate @ dense_rho(state) @ rotate.conj().T
        probs = np.zeros(n + 1)
        for idx in range(1 << n):
            probs[bin(idx).count("1")] += rho[idx, idx].real
        np.testing.assert_allclose(dist.probabilities, probs, atol=1e-12)


def test_jx_parity_coarse_graining():
    # summing J_x outcomes with the sign (-1)^k reproduces the parity fringe
    rng = np.random.default_rng(997)
    for n in (2, 3, 4):
        chain = random_chain(rng, n)
        params = random_params(rng)
        state = random_sparse(rng, n)
        dist = jx_distribution(state, chain, params)
        signed = sum(((-1) ** k) * p for k, p in enumerate(dist.probabilities))
        assert signed == pytest.approx(parity_expectation(state, chain, params), abs=1e-12)


def test_jx_derivatives_match_finite_differences():
    rng = np.random.default_rng(998)
    chain = random_chain(rng, 3)
    params = random_params(rng)
    delta = 1e-6

    def probs(state, g):
        shifted = PhysParams(
            gamma=params.gamma, b0=params.b0, grad=g, t=params.t,
            gamma_prime=params.gamma_prime, delta_e=params.delta_e, tau_c=params.tau_c,
        )
        return np.asarray(jx_distribution(state, chain, shifted).probabilities)

    # a pure state, and a mixture with a three-column sector
    for state in (random_sparse(rng, 3), random_mixture(rng, 3, rank=3)):
        dist = jx_distribution(state, chain, params)
        fd = (probs(state, params.grad + delta) - probs(state, params.grad - delta)) / (2 * delta)
        np.testing.assert_allclose(dist.derivatives, fd, rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("b0", [0.0, 0.2])
@pytest.mark.parametrize("name", ["odf", "dicke"])
def test_jx_readout_far_from_x0_matches_the_near_chain(name, b0):
    # a one-sector probe sees only the centred profile, which the quarter
    # steps keep exact at 1e8; lambda's constant c (n/2 - k) must cancel
    # within the sector, not in the sum over outcomes.  What is left is the
    # phase of each qubit, rounded at the scale of G f ~ 3e7
    steps = [0.25 * i for i in range(5)]
    params = PhysParams(grad=0.3, b0=b0)
    state = make_named_state(name, 5, k=2)
    near = classical_fisher(jx_distribution(state, make_chain(steps), params)).value
    far = classical_fisher(jx_distribution(state, make_chain(steps, x0=-1e8), params)).value
    assert near > 0.01
    assert rel_dev(far, near) < 1e-7


@pytest.mark.parametrize("n", [2, 4, 6])
def test_jx_cfi_equals_parity_cfi_for_fringe_states(n):
    rng = np.random.default_rng(1000 + n)
    for _ in range(4):
        chain = random_chain(rng, n)
        params = random_params(rng, grad=float(rng.uniform(0.1, 1.0)))
        for state in (make_named_state("ghz", n), make_named_state("odf", n, k=n // 2)):
            parity_cfi = classical_fisher(parity_distribution(state, chain, params)).value
            jx_cfi = classical_fisher(jx_distribution(state, chain, params)).value
            assert rel_dev(parity_cfi, jx_cfi) < 1e-9 or abs(parity_cfi - jx_cfi) < 1e-12


# ----------------------------------------------------------------------
# error propagation
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 4, 6])
def test_error_propagation_inverts_qfi_for_fringe_states(n):
    rng = np.random.default_rng(1010 + n)
    for _ in range(5):
        chain = random_chain(rng, n)
        params = random_params(rng, grad=float(rng.uniform(0.1, 1.0)))
        for state in (make_named_state("ghz", n), make_named_state("odf", n, k=n // 2)):
            qfi = qfi_pure(state, chain, params).value
            if qfi < 1e-12:
                continue
            var = error_propagation(state, chain, params)
            assert rel_dev(var, 1.0 / qfi) < 1e-9


def _with_moderate_decay(chain, params):
    """Shorten t until the full coherence stays well above float noise.

    At d ~ 1e-8 the channel's eigendecomposition reconstructs the
    coherence with ~1e-16 absolute error, so any 1e-9-relative check on
    1/d^2 quantities would measure conditioning, not correctness.
    """
    model = NoiseModel.from_params(params)
    t = params.t
    while coherence_factor(model, t, chain.n) < 1e-3:
        t *= 0.5
    return PhysParams(
        gamma=params.gamma, b0=params.b0, grad=params.grad, t=t,
        gamma_prime=params.gamma_prime, delta_e=params.delta_e, tau_c=params.tau_c,
    )


def test_noisy_ghz_theta_error_propagation_formula():
    rng = np.random.default_rng(102)
    for _ in range(5):
        chain = random_chain(rng, 4)
        params = _with_moderate_decay(
            chain, random_params(rng, grad=float(rng.uniform(0.1, 1.0)))
        )
        model = NoiseModel.from_params(params)
        theta = float(rng.uniform(0.2, 1.2))
        state = apply_channel(make_named_state("ghz-theta", 4, theta=theta), model, params.t)
        alpha = _fringe_phase(chain, params, theta)
        if abs(math.sin(alpha)) < 0.1:
            continue
        d = coherence_factor(model, params.t, 4)
        s = _sum_f(chain)
        gt = params.gamma * params.t
        want = (1.0 + (1.0 - d * d) / math.tan(alpha) ** 2) / (d * gt * s) ** 2
        assert error_propagation(state, chain, params) == pytest.approx(want, rel=1e-9)


def test_saturation_theta_reaches_the_noisy_crb():
    from gradqfi import qfi_noisy_ghz

    rng = np.random.default_rng(103)
    for _ in range(5):
        chain = random_chain(rng, 4)
        params = _with_moderate_decay(
            chain, random_params(rng, grad=float(rng.uniform(0.1, 1.0)))
        )
        model = NoiseModel.from_params(params)
        theta = theta_for_saturation(chain, params)
        state = apply_channel(make_named_state("ghz-theta", 4, theta=theta), model, params.t)
        var = error_propagation(state, chain, params)
        qfi = qfi_noisy_ghz(chain, params).value
        assert rel_dev(var, 1.0 / qfi) < 1e-9


def test_flat_response_raises():
    chain = make_chain([0.0, 1.0])
    params = PhysParams(b0=0.0, grad=0.0)
    with pytest.raises(FlatResponse):
        error_propagation(make_named_state("ghz", 2), chain, params)


def test_theta_for_saturation_zeroes_the_fringe():
    rng = np.random.default_rng(104)
    chain = random_chain(rng, 5)
    params = random_params(rng)
    theta = theta_for_saturation(chain, params)
    state = make_named_state("ghz-theta", 5, theta=theta)
    assert parity_expectation(state, chain, params) == pytest.approx(0.0, abs=1e-12)


def test_mixture_cfi_upper_bounded_by_general_qfi():
    rng = np.random.default_rng(105)
    chain = random_chain(rng, 3)
    params = random_params(rng)
    state = random_mixture(rng, 3, rank=2)
    qfi = qfi_general(state, chain, params).value
    cfi = classical_fisher(parity_distribution(state, chain, params)).value
    assert cfi <= qfi * (1 + 1e-9) + 1e-12


@pytest.mark.parametrize("d", [1e-2, 1e-6, 1e-10, 1e-15, 1e-20, 1e-30, 1e-40])
def test_strongly_dephased_ghz_parity_cfi_keeps_its_coherence(d):
    # <X^N> = d cos(alpha): CFI = (d sin(alpha) gamma t sum f)^2 / (1 - d^2 cos^2(alpha))
    rng = np.random.default_rng(2203)
    n = 8
    chain = make_chain(np.sort(rng.uniform(-1.0, 1.0, size=n)) + 0.6, x0=0.0)
    params = params_with_coherence(d, n, gamma=1.1, b0=0.05, grad=0.3)
    state = apply_channel(make_named_state("ghz", n), NoiseModel.from_params(params), params.t)
    sum_f = math.fsum(chain.f_values)
    gt = params.gamma * params.t
    alpha = n * gt * params.b0 + gt * params.grad * sum_f
    coherence = coherence_factor(NoiseModel.from_params(params), params.t, n)
    want = (coherence * math.sin(alpha) * gt * sum_f) ** 2
    want /= 1.0 - (coherence * math.cos(alpha)) ** 2
    got = classical_fisher(parity_distribution(state, chain, params)).value
    assert want > 0.0
    assert rel_dev(got, want) < 1e-12


@pytest.mark.parametrize("d", COHERENCES)
def test_strongly_dephased_ghz_jx_cfi_keeps_its_coherence(d):
    # a GHZ's x-basis probabilities depend on x only through its parity, so the J_x CFI is
    # the parity closed form; d must stay a factor of m, not eigen-weights (1 +/- d) / 2
    rng = np.random.default_rng(2204)
    for n in range(2, 9):
        chain = make_chain(np.sort(rng.uniform(-1.0, 1.0, size=n)) + 0.6, x0=0.0)
        params = params_with_coherence(d, n, gamma=1.1, b0=0.05, grad=0.3)
        model = NoiseModel.from_params(params)
        state = apply_channel(make_named_state("ghz", n), model, params.t)
        sum_f = math.fsum(chain.f_values)
        gt = params.gamma * params.t
        alpha = n * gt * params.b0 + gt * params.grad * sum_f
        coherence = coherence_factor(model, params.t, n)
        want = (coherence * math.sin(alpha) * gt * sum_f) ** 2
        want /= 1.0 - (coherence * math.cos(alpha)) ** 2
        got = classical_fisher(jx_distribution(state, chain, params)).value
        assert want > 0.0
        assert rel_dev(got, want) < 1e-12, n
