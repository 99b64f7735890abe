"""Chain geometry, states, spectrum, and evolution against dense oracles."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gradqfi import (
    ChainConfig,
    DimensionTooLarge,
    EmptyChain,
    FieldProfile,
    InvalidProfile,
    LengthMismatch,
    NonFiniteCoordinate,
    NonNormalizedState,
    OutOfRange,
    PhysParams,
    SparseState,
    SpectralState,
    SpectrumNotPositive,
    SupportTooLarge,
    bit_complement,
    evolve,
    excitation_count,
    hamiltonian_eigenvalue,
    make_chain,
    make_named_state,
    state_from_json,
    state_overlap,
    state_to_json,
    tensor_product,
)
from gradqfi.core import (
    basis_excitations,
    spectral_from_mixture,
    spectral_from_support_matrix,
)

from conftest import dense_hg, dense_rho, dense_unitary, random_chain, random_params, random_sparse, to_dense

finite_floats = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


# ----------------------------------------------------------------------
# profiles and chains
# ----------------------------------------------------------------------


def test_linear_profile_is_identity():
    profile = FieldProfile()
    assert profile(0.7) == 0.7
    assert profile(-3.0) == -3.0


def test_custom_profile_evaluates_the_handle():
    profile = FieldProfile("custom", lambda u: u * u - 0.3 * u)
    assert profile(2.0) == pytest.approx(4.0 - 0.6)
    assert profile(0.0) == 0.0


def test_custom_profile_must_vanish_at_origin():
    with pytest.raises(InvalidProfile):
        FieldProfile("custom", lambda u: u + 1e-6)
    with pytest.raises(InvalidProfile):
        FieldProfile("custom", lambda u: float("nan"))


def test_profile_kind_validation():
    with pytest.raises(InvalidProfile):
        FieldProfile("quadratic")
    with pytest.raises(InvalidProfile):
        FieldProfile("linear", lambda u: u)
    with pytest.raises(InvalidProfile):
        FieldProfile("custom", None)


def test_make_chain_sorts_by_profile_value():
    chain = make_chain([0.3, -0.2, 0.1], x0=0.0)
    assert chain.positions == (-0.2, 0.1, 0.3)
    assert chain.f_values == (-0.2, 0.1, 0.3)


def test_make_chain_sorts_by_profile_not_position():
    # f(u) = u^2 - u maps 0.9 below 0.0, so the position order flips
    profile = FieldProfile("custom", lambda u: u * u - u)
    chain = make_chain([0.0, 0.9], x0=0.0, profile=profile)
    assert chain.positions == (0.9, 0.0)
    assert chain.f_values[0] == pytest.approx(-0.09)
    assert chain.f_values[1] == 0.0


def test_make_chain_tie_break_is_stable():
    profile = FieldProfile("custom", lambda u: u * u)
    assert make_chain([-0.3, 0.3], profile=profile).positions == (-0.3, 0.3)
    assert make_chain([0.3, -0.3], profile=profile).positions == (0.3, -0.3)


def test_chain_validation_errors():
    with pytest.raises(EmptyChain):
        make_chain([])
    with pytest.raises(NonFiniteCoordinate):
        make_chain([0.0, float("nan")])
    with pytest.raises(NonFiniteCoordinate):
        make_chain([0.0], x0=float("inf"))
    with pytest.raises(OutOfRange):
        ChainConfig((1.0, 0.0))  # unsorted must go through make_chain


@given(st.lists(finite_floats, min_size=1, max_size=10), finite_floats)
def test_make_chain_f_values_always_ascending(positions, x0):
    chain = make_chain(positions, x0=x0)
    assert all(a <= b for a, b in zip(chain.f_values, chain.f_values[1:]))
    assert chain.n == len(positions)
    assert sorted(chain.positions) == sorted(positions)


# ----------------------------------------------------------------------
# parameters
# ----------------------------------------------------------------------


def test_phys_params_validation():
    with pytest.raises(OutOfRange):
        PhysParams(gamma=0.0)
    with pytest.raises(OutOfRange):
        PhysParams(tau_c=0.0)
    with pytest.raises(OutOfRange):
        PhysParams(delta_e=-1.0)
    with pytest.raises(NonFiniteCoordinate):
        PhysParams(b0=float("nan"))
    params = PhysParams(t=0.0)
    assert params.t == 0.0


# ----------------------------------------------------------------------
# sparse and spectral states
# ----------------------------------------------------------------------


def test_sparse_state_canonicalizes_term_order():
    s = SparseState(2, (("10", 0.6), ("01", 0.8)))
    assert [bits for bits, _ in s.terms] == ["01", "10"]
    assert s.amplitudes["10"] == 0.6 + 0j
    assert s.support_size == 2


def test_sparse_state_validation():
    with pytest.raises(NonNormalizedState):
        SparseState(1, (("0", 0.5),))
    with pytest.raises(OutOfRange):
        SparseState(1, (("0", 1.0), ("0", 0.0)))
    with pytest.raises(LengthMismatch):
        SparseState(2, (("0", 1.0),))
    with pytest.raises(OutOfRange):
        SparseState(1, (("2", 1.0),))
    with pytest.raises(OutOfRange):
        SparseState(0, (("", 1.0),))
    with pytest.raises(NonFiniteCoordinate):
        SparseState(1, (("0", complex(float("nan"), 0.0)),))


def test_spectral_state_validation():
    up = SparseState(1, (("0", 1.0),))
    down = SparseState(1, (("1", 1.0),))
    mix = SpectralState(1, ((0.25, up), (0.75, down)))
    assert mix.rank == 2
    with pytest.raises(NonNormalizedState):
        SpectralState(1, ((0.5, up), (0.4, down)))
    with pytest.raises(NonNormalizedState):
        SpectralState(1, ((-0.1, up), (1.1, down)))
    plus = SparseState(1, (("0", math.sqrt(0.5)), ("1", math.sqrt(0.5))))
    with pytest.raises(NonNormalizedState):
        SpectralState(1, ((0.5, up), (0.5, plus)))  # not orthogonal


# ----------------------------------------------------------------------
# spectrum
# ----------------------------------------------------------------------


def test_hamiltonian_eigenvalue_signs():
    chain = make_chain([1.0, 2.0])
    # s = +1 for '0': lambda("00") = (f1 + f2)/2
    assert hamiltonian_eigenvalue(chain, "00") == pytest.approx(1.5)
    assert hamiltonian_eigenvalue(chain, "11") == pytest.approx(-1.5)
    assert hamiltonian_eigenvalue(chain, "01") == pytest.approx(-0.5)
    assert hamiltonian_eigenvalue(chain, "10") == pytest.approx(0.5)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_hamiltonian_eigenvalue_matches_kron_diagonal(n):
    rng = np.random.default_rng(101 + n)
    chain = random_chain(rng, n)
    diag = np.diag(dense_hg(chain))
    for idx in range(1 << n):
        bits = format(idx, f"0{n}b")
        assert hamiltonian_eigenvalue(chain, bits) == pytest.approx(
            float(diag[idx].real), rel=1e-12, abs=1e-14
        )


def test_basis_arrays_match_bitstring_definitions():
    exc = basis_excitations(4)
    for idx in range(16):
        bits = format(idx, "04b")
        assert exc[idx] == excitation_count(bits)


def test_dense_caps_are_enforced():
    with pytest.raises(DimensionTooLarge):
        basis_excitations(13)


def test_bit_complement_flips_eigenvalue_sign():
    rng = np.random.default_rng(11)
    chain = random_chain(rng, 5)
    for idx in [0, 3, 17, 31]:
        bits = format(idx, "05b")
        flipped = bit_complement(bits)
        assert bit_complement(flipped) == bits
        assert hamiltonian_eigenvalue(chain, flipped) == pytest.approx(
            -hamiltonian_eigenvalue(chain, bits), abs=1e-14
        )


# ----------------------------------------------------------------------
# evolution
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_evolve_matches_dense_unitary(n):
    rng = np.random.default_rng(211 + n)
    for _ in range(6):
        chain = random_chain(rng, n)
        params = random_params(rng)
        state = random_sparse(rng, n)
        evolved = evolve(state, chain, params)
        expected = dense_unitary(chain, params) @ to_dense(state)
        np.testing.assert_allclose(to_dense(evolved), expected, atol=1e-12)


def test_evolve_preserves_norm_and_support():
    rng = np.random.default_rng(23)
    chain = random_chain(rng, 4)
    params = random_params(rng)
    state = random_sparse(rng, 4, size=5)
    evolved = evolve(state, chain, params)
    assert evolved.support_size == state.support_size
    norm2 = sum(abs(a) ** 2 for _, a in evolved.terms)
    assert norm2 == pytest.approx(1.0, abs=1e-13)


def test_evolve_spectral_state_evolves_each_eigenvector():
    rng = np.random.default_rng(29)
    chain = random_chain(rng, 3)
    params = random_params(rng)
    up = make_named_state("ghz", 3)
    down = make_named_state("dicke", 3, k=1)
    mixed = spectral_from_mixture(((0.5, up), (0.5, down)))
    u = dense_unitary(chain, params)
    expected = u @ dense_rho(mixed) @ u.conj().T
    np.testing.assert_allclose(dense_rho(evolve(mixed, chain, params)), expected, atol=1e-12)


def test_evolve_qubit_count_mismatch():
    with pytest.raises(LengthMismatch):
        evolve(make_named_state("ghz", 3), make_chain([0.0, 1.0]), PhysParams())


# ----------------------------------------------------------------------
# named states
# ----------------------------------------------------------------------


def test_ghz_structure():
    s = make_named_state("ghz", 4)
    assert [bits for bits, _ in s.terms] == ["0000", "1111"]
    assert all(amp == pytest.approx(1 / math.sqrt(2)) for _, amp in s.terms)


def test_ghz_theta_relative_phase():
    theta = 0.7
    s = make_named_state("ghz-theta", 3, theta=theta)
    ratio = s.amplitudes["111"] / s.amplitudes["000"]
    assert ratio == pytest.approx(complex(math.cos(theta), math.sin(theta)))


def test_product_state_is_uniform():
    s = make_named_state("product", 3)
    assert s.support_size == 8
    assert all(amp == pytest.approx(8**-0.5) for _, amp in s.terms)
    with pytest.raises(SupportTooLarge):
        make_named_state("product", 21)


@pytest.mark.parametrize("n,k", [(4, 1), (4, 2), (5, 2), (6, 3)])
def test_odf_two_branch_structure(n, k):
    s = make_named_state("odf", n, k=k)
    assert set(s.amplitudes) == {"1" * k + "0" * (n - k), "0" * (n - k) + "1" * k}


def test_odf_degenerate_branches_merge():
    assert make_named_state("odf", 3, k=0).terms == (("000", 1.0 + 0j),)
    assert make_named_state("odf", 3, k=3).terms == (("111", 1.0 + 0j),)


def test_dicke_counts_and_uniformity():
    s = make_named_state("dicke", 5, k=2)
    assert s.support_size == math.comb(5, 2)
    assert all(excitation_count(bits) == 2 for bits, _ in s.terms)
    assert all(amp == pytest.approx(math.comb(5, 2) ** -0.5) for _, amp in s.terms)


def test_psi_m_blocks():
    s = make_named_state("psi-m", 5, m=2)
    assert set(s.amplitudes) == {"11000", "00111"}
    # m = 0 reduces to the GHZ pair
    assert make_named_state("psi-m", 4, m=0).terms == make_named_state("ghz", 4).terms


def test_named_state_argument_validation():
    with pytest.raises(OutOfRange):
        make_named_state("odf", 4)
    with pytest.raises(OutOfRange):
        make_named_state("dicke", 4, k=5)
    with pytest.raises(OutOfRange):
        make_named_state("psi-m", 4)
    with pytest.raises(OutOfRange):
        make_named_state("bell", 2)
    with pytest.raises(OutOfRange):
        make_named_state("ghz", 0)


# ----------------------------------------------------------------------
# algebra helpers
# ----------------------------------------------------------------------


def test_state_overlap_matches_dense_inner_product():
    rng = np.random.default_rng(31)
    a = random_sparse(rng, 4, size=6)
    b = random_sparse(rng, 4, size=3)
    assert state_overlap(a, b) == pytest.approx(complex(np.vdot(to_dense(a), to_dense(b))))
    with pytest.raises(LengthMismatch):
        state_overlap(a, random_sparse(rng, 3))


def test_tensor_product_matches_kron():
    rng = np.random.default_rng(37)
    a = random_sparse(rng, 2, size=3)
    b = random_sparse(rng, 3, size=4)
    prod = tensor_product(a, b)
    assert prod.n_qubits == 5
    np.testing.assert_allclose(to_dense(prod), np.kron(to_dense(a), to_dense(b)), atol=1e-15)


@given(st.integers(1, 5), st.integers(0, 2**20 - 1))
def test_state_json_round_trip(n, raw_seed):
    rng = np.random.default_rng(raw_seed)
    state = random_sparse(rng, n)
    assert state_from_json(state_to_json(state)).terms == state.terms


# ----------------------------------------------------------------------
# spectral assembly
# ----------------------------------------------------------------------


def test_spectral_from_mixture_recovers_orthogonal_weights():
    up = SparseState(2, (("00", 1.0),))
    down = SparseState(2, (("11", 1.0),))
    mix = spectral_from_mixture(((0.7, up), (0.3, down)))
    weights = sorted((w for w, _ in mix.eigenpairs), reverse=True)
    assert weights == pytest.approx([0.7, 0.3])
    np.testing.assert_allclose(
        dense_rho(mix), 0.7 * dense_rho(up) + 0.3 * dense_rho(down), atol=1e-12
    )


def test_spectral_from_mixture_weight_validation():
    up = SparseState(1, (("0", 1.0),))
    with pytest.raises(NonNormalizedState):
        spectral_from_mixture(((0.7, up),))
    with pytest.raises(NonNormalizedState):
        spectral_from_mixture(())


def test_spectral_from_support_matrix_rejects_negative_spectra():
    rho = np.array([[1.2, 0.0], [0.0, -0.2]], dtype=np.complex128)
    with pytest.raises(SpectrumNotPositive):
        spectral_from_support_matrix(rho, ["0", "1"], 1)


def test_spectral_from_support_matrix_clips_numerical_noise():
    rho = np.array([[1.0, 0.0], [0.0, -1e-12]], dtype=np.complex128)
    state = spectral_from_support_matrix(rho, ["0", "1"], 1)
    assert state.rank == 1
    assert state.eigenpairs[0][0] == pytest.approx(1.0)
