"""Chain geometry, states, spectrum, and evolution against dense oracles."""

import itertools
import math
import warnings

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
    NoiseModel,
    NonNormalizedState,
    NumericOverflow,
    OutOfRange,
    PhysParams,
    SparseState,
    SpectralState,
    SpectrumNotPositive,
    SupportTooLarge,
    TrajectoryEnsemble,
    apply_channel,
    evolve,
    jx_distribution,
    make_chain,
    make_named_state,
    mc_trajectory_average,
    parity_distribution,
    steady_twirl,
)
from gradqfi.core import (STATE_NAMES, _cmul, _dicke_bits, _evolution_terms, _excited_sums,
                          _prefix_index, _row_index, _sector_spectral)
from gradqfi.measurement import _basis_excitations, _complement_rows

from conftest import (
    dense_rho,
    dense_unitary,
    random_chain,
    random_mixture,
    random_params,
    random_sparse,
    reference_evolution_terms,
    reference_full_support_terms,
    reference_named_state,
    reference_phased,
    to_dense,
)

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


def _reference_chain(positions, x0, profile):
    """make_chain in plain Python: float() each value, a stable sort on f(x - x0)."""
    xs = sorted((float(x) for x in positions), key=lambda x: profile(x - x0))
    return tuple(xs), tuple(profile(x - x0) for x in xs)


def _hex(values):
    return tuple(float(v).hex() for v in values)  # tells -0.0 from 0.0


_TIED_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)
_AS_INPUT = {
    "tuple": tuple,
    "list": list,
    "iterator": iter,
    "ndarray": np.array,
    "int": lambda xs: [int(x) for x in xs],
}
_PROFILES = {
    "linear": FieldProfile(),
    "custom": FieldProfile("custom", lambda u: u * u * u - 0.25 * u),
}


@given(
    st.lists(_TIED_FLOATS, min_size=1, max_size=12),
    st.one_of(st.sampled_from([0.0, -0.0]), st.floats(min_value=-1e8, max_value=1e8)),
    st.sampled_from(sorted(_AS_INPUT)),
    st.sampled_from(sorted(_PROFILES)),
)
def test_chains_match_a_plain_python_oracle(positions, x0, kind, profile_name):
    profile = _PROFILES[profile_name]
    if kind == "int":
        positions = [float(int(x)) for x in positions]
    want_pos, want_f = _reference_chain(positions, x0, profile)
    built = make_chain(_AS_INPUT[kind](positions), x0, profile)
    direct = ChainConfig(_AS_INPUT[kind](want_pos), x0, profile)
    rebuilt = ChainConfig(built.positions, x0, profile)  # make_chain's chain, checked
    assert built.x0.hex() == float(x0).hex() and built == rebuilt
    for chain in (built, direct, rebuilt):
        assert _hex(chain.positions) == _hex(want_pos)
        assert _hex(chain.f_values) == _hex(want_f)
        assert all(type(x) is float for x in chain.positions + chain.f_values)
        assert chain.f_array.dtype == np.float64 and not chain.f_array.flags.writeable
        assert chain.f_array.tobytes() == np.array(want_f, dtype=np.float64).tobytes()


_NAN_ABOVE_HALF = FieldProfile("custom", lambda u: math.nan if u > 0.5 else 0.0)
_FLOAT_OF_LIST = "float() argument must be a string or a real number, not 'list'"


def test_make_chain_calls_a_custom_profile_once_per_qubit():
    calls = []
    profile = FieldProfile("custom", lambda u: calls.append(u) or u * u * u)
    calls.clear()  # the profile's own f(0) check
    chain = make_chain([0.4, -0.3, 0.1, 0.2, -0.5], 0.1, profile)
    assert len(calls) == 5
    assert chain.f_values == tuple(profile(x - 0.1) for x in chain.positions)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: make_chain([]), EmptyChain, "positions must contain at least one qubit"),
        (lambda: ChainConfig(()), EmptyChain, "positions must contain at least one qubit"),
        (lambda: make_chain([[1.0, 2.0]]), TypeError, _FLOAT_OF_LIST),
        (lambda: ChainConfig([[1.0, 2.0]]), TypeError, _FLOAT_OF_LIST),
        (lambda: make_chain([0.0, math.nan]), NonFiniteCoordinate, "position nan is not finite"),
        (lambda: ChainConfig((0.0, -math.inf)), NonFiniteCoordinate,
         "position -inf is not finite"),
        (lambda: make_chain([0.0], x0=math.inf), NonFiniteCoordinate, "x0 inf is not finite"),
        (lambda: ChainConfig((0.0,), math.nan), NonFiniteCoordinate, "x0 nan is not finite"),
        (lambda: make_chain([1e308], -1e308), NonFiniteCoordinate,
         "profile value inf is not finite"),
        (lambda: make_chain([0.0, 1.0], profile=_NAN_ABOVE_HALF), NonFiniteCoordinate,
         "profile value nan is not finite"),
        # positions are checked before a custom profile sees them (sin(inf) raises)
        (lambda: make_chain([math.inf, 0.0], profile=FieldProfile("custom", math.sin)),
         NonFiniteCoordinate, "position inf is not finite"),
        (lambda: ChainConfig((1.0, 0.0)), OutOfRange,
         "positions must be ordered by ascending profile value; use make_chain"),
    ],
)
def test_bad_chains_raise_the_named_error_without_a_warning(build, error, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow RuntimeWarning would fail here
        with pytest.raises(error) as info:
            build()
    assert str(info.value) == message


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
    with pytest.raises(OutOfRange, match=r"gamma_prime must be >= 0, got -1\.0"):
        PhysParams(gamma_prime=-1.0)
    with pytest.raises(NonFiniteCoordinate):
        PhysParams(b0=float("nan"))
    params = PhysParams(t=0.0)
    assert params.t == 0.0


# ----------------------------------------------------------------------
# sparse and spectral states
# ----------------------------------------------------------------------


def test_sparse_state_canonicalizes_term_order():
    s = SparseState.from_terms(2, (("10", 0.6), ("01", 0.8)))
    assert [bits for bits, _ in s.terms] == ["01", "10"]
    assert dict(s.terms)["10"] == 0.6 + 0j
    assert s.support_size == 2


def test_sparse_state_validation():
    with pytest.raises(NonNormalizedState):
        SparseState.from_terms(1, (("0", 0.5),))
    with pytest.raises(OutOfRange):
        SparseState.from_terms(1, (("0", 1.0), ("0", 0.0)))
    with pytest.raises(LengthMismatch):
        SparseState.from_terms(2, (("0", 1.0),))
    with pytest.raises(OutOfRange):
        SparseState.from_terms(1, (("2", 1.0),))
    with pytest.raises(OutOfRange):
        SparseState.from_terms(0, (("", 1.0),))
    with pytest.raises(NonFiniteCoordinate):
        SparseState.from_terms(1, (("0", complex(float("nan"), 0.0)),))


@pytest.mark.parametrize("n", [1, 7, 8, 9, 70])
@given(data=st.data())
def test_from_terms_sorts_shuffled_terms_and_names_a_duplicate(n, data):
    # the rows of the state must come out in the bitstrings' string order,
    # from one qubit to seventy
    indices = data.draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=40, unique=True)
    )
    bitstrings = [format(i, f"0{n}b") for i in indices]
    amp = 1.0 / math.sqrt(len(bitstrings))
    shuffled = data.draw(st.permutations([(bits, amp) for bits in bitstrings]))
    state = SparseState.from_terms(n, shuffled)
    assert [bits for bits, _ in state.terms] == sorted(bitstrings)
    assert [a for _, a in state.terms] == [complex(amp)] * len(bitstrings)
    twin = data.draw(st.sampled_from(bitstrings))
    with pytest.raises(OutOfRange, match=f"duplicate basis bitstring '{twin}'"):
        SparseState.from_terms(n, [*shuffled, (twin, 0.0)])


def test_spectral_state_validation():
    up = SparseState.from_terms(1, (("0", 1.0),))
    down = SparseState.from_terms(1, (("1", 1.0),))
    mix = SpectralState(1, ((0.25, up), (0.75, down)))
    assert mix.rank == 2
    with pytest.raises(NonNormalizedState):
        SpectralState(1, ((0.5, up), (0.4, down)))
    with pytest.raises(NonNormalizedState):
        SpectralState(1, ((-0.1, up), (1.1, down)))
    plus = SparseState.from_terms(1, (("0", math.sqrt(0.5)), ("1", math.sqrt(0.5))))
    with pytest.raises(NonNormalizedState):
        SpectralState(1, ((0.5, up), (0.5, plus)))  # not orthogonal


def test_public_and_library_built_states_share_one_form():
    # strictly ascending rows, read-only arrays, one unit-norm row per weight
    rng = np.random.default_rng(1640)
    chain, params = random_chain(rng, 4), random_params(rng)
    model = NoiseModel.from_params(params)
    product, ghz = make_named_state("product", 4), make_named_state("ghz", 4)
    mixture = random_mixture(rng, 4, 3)
    given = SpectralState(4, ((0.5, ghz), (0.5, make_named_state("dicke", 4, k=1))))
    states = [
        product, random_sparse(rng, 4), mixture, given,
        apply_channel(product, model, 0.8), apply_channel(ghz, model, math.inf),
        steady_twirl(product), steady_twirl(mixture), evolve(mixture, chain, params),
        mc_trajectory_average(product, chain, params, TrajectoryEnsemble(64, seed=3)),
    ]
    for state in states:
        keys = [row.tobytes() for row in state.bits]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert not state.bits.flags.writeable and not state.vectors.flags.writeable
        assert state.vectors.shape == (len(state.weights), len(keys))
        assert np.abs(np.linalg.norm(state.vectors, axis=1) - 1.0).max() <= 1e-12
        if isinstance(state, SpectralState):
            assert state.eigenpairs is state.eigenpairs  # built once
    assert given.eigenpairs[0] == (0.5, ghz)  # the pairs as given


# ----------------------------------------------------------------------
# spectrum
# ----------------------------------------------------------------------


def test_basis_arrays_match_bitstring_definitions():
    exc = _basis_excitations(4)
    for idx in range(16):
        bits = format(idx, "04b")
        assert exc[idx] == bits.count("1")


def test_dense_caps_are_enforced():
    with pytest.raises(DimensionTooLarge):
        _basis_excitations(13)


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
    mixed = SpectralState(3, ((0.5, up), (0.5, down)))
    u = dense_unitary(chain, params)
    expected = u @ dense_rho(mixed) @ u.conj().T
    np.testing.assert_allclose(dense_rho(evolve(mixed, chain, params)), expected, atol=1e-12)


def test_evolve_qubit_count_mismatch():
    with pytest.raises(LengthMismatch):
        evolve(make_named_state("ghz", 3), make_chain([0.0, 1.0]), PhysParams())


@pytest.mark.parametrize("offset", [0.0, 1e4, 1e8])
def test_evolution_terms_match_a_per_bitstring_loop(offset):
    # the vectorized rule must reproduce, bit for bit, the plain loop that
    # sums each bitstring's excited qubits in chain order
    rng = np.random.default_rng(241)
    chain = make_chain(offset + np.sort(rng.uniform(0.0, 1.0, size=5)), x0=0.0)
    params = random_params(rng, grad=float(rng.uniform(0.1, 1.0)))
    gbt = params.gamma * params.b0 * params.t
    ggt = params.gamma * params.grad * params.t
    c = math.fsum(chain.f_values) / 5
    centred = [fx - c for fx in chain.f_values]
    turns = [math.remainder(gbt + ggt * fx, 4.0 * math.pi) for fx in chain.f_values]
    support = [format(i, "05b") for i in range(32)]
    bits_matrix = np.array([[ch == "1" for ch in bits] for bits in support])
    phase, lam = _evolution_terms(bits_matrix, chain, params)
    for bits, got_phase, got_lam in zip(support, phase.tolist(), lam.tolist()):
        excited = [ch == "1" for ch in bits]
        assert got_phase == 0.5 * math.fsum(turns) - sum(
            t for t, e in zip(turns, excited) if e
        )
        assert got_lam == (
            0.5 * math.fsum(centred)
            - sum(g for g, e in zip(centred, excited) if e)
            + c * (2.5 - bits.count("1"))
        )


@pytest.mark.parametrize("offset", [0.0, 1e2, 1e4, 1e8])
@pytest.mark.parametrize(
    "name,n,kw",
    [("product", 8, {}), ("dicke", 10, {"k": 5}), ("dicke", 9, {"k": 2}), ("ghz", 12, {}),
     ("psi-m", 9, {"m": 3})],
)
def test_evolution_terms_equal_the_per_qubit_reference_bytes(name, n, kw, offset):
    rng = np.random.default_rng(1301 + n)
    chain = make_chain(offset + np.sort(rng.uniform(0.0, 1.0, size=n)), x0=0.0)
    params = random_params(rng, grad=float(rng.uniform(0.1, 1.0)))
    state = make_named_state(name, n, **kw)
    phase, lam = _evolution_terms(state.bits, chain, params)
    want_phase, want_lam = reference_evolution_terms([b for b, _ in state.terms], chain, params)
    assert phase.tobytes() == want_phase.tobytes()
    assert lam.tobytes() == want_lam.tobytes()


@pytest.mark.parametrize("offset", [0.0, 1e4])
@pytest.mark.parametrize("n", range(1, 18))
def test_full_support_terms_equal_the_per_qubit_loop_bytes(n, offset):
    # a full support's sums are built by prefix doubling: each row's sum must be
    # the per-qubit loop's, row for row, with negative turns among the qubits
    rng = np.random.default_rng(2400 + n)
    chain = make_chain(offset + np.sort(rng.uniform(0.0, 1.0, size=n)), x0=0.0)
    grad = float(rng.uniform(0.1, 0.9))  # b0 puts qubit 1's turn at -gamma t
    params = random_params(rng, grad=grad, b0=-grad * chain.f_values[0] - 1.0)
    gbt, ggt = (params.gamma * params.t * v for v in (params.b0, params.grad))
    assert min(math.remainder(gbt + ggt * fx, 4.0 * math.pi) for fx in chain.f_values) < 0.0
    state = make_named_state("product", n)
    want_phase, want_lam = reference_full_support_terms(n, chain, params)
    phase, lam = _evolution_terms(state.bits, chain, params)
    assert phase.tobytes() == want_phase.tobytes()
    assert lam.tobytes() == want_lam.tobytes()
    evolved = evolve(state, chain, params)
    assert evolved.amps.tobytes() == reference_phased(state.amps, want_phase).tobytes()
    if n <= 8:  # the doubled reference itself against the one-row-at-a-time loop
        rows = [b for b, _ in state.terms]
        for got, want in zip((want_phase, want_lam), reference_evolution_terms(rows, chain, params)):
            assert got.tobytes() == want.tobytes()


_PHASE_READS = {
    "evolve": lambda state, chain, params: evolve(state, chain, params),
    "parity": lambda state, chain, params: parity_distribution(state, chain, params),
    "jx": lambda state, chain, params: jx_distribution(state, chain, params),
    "mc": lambda state, chain, params: mc_trajectory_average(
        state, chain, params, TrajectoryEnsemble(8, seed=1)),
}


@pytest.mark.parametrize("read", sorted(_PHASE_READS))
@pytest.mark.parametrize("params", [
    PhysParams(gamma=1e300, t=1e300, grad=1.0),  # gamma B0 t + gamma G t f is inf
    PhysParams(gamma=1e10, b0=1e300, grad=-1e300),  # inf - inf, a NaN
], ids=["inf", "nan"])
def test_an_overflowing_evolution_phase_is_a_named_error(read, params):
    chain, state = make_chain([0.5, 1.0, 2.0]), make_named_state("ghz", 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericOverflow,
                           match="^the evolution phase overflows float64 at n = 3$"):
            _PHASE_READS[read](state, chain, params)


def test_full_support_evolve_of_a_dephased_product_phases_each_row_as_the_loop():
    rng = np.random.default_rng(2418)
    chain = make_chain(1e4 + np.sort(rng.uniform(0.0, 1.0, size=9)), x0=0.0)
    params = random_params(rng, b0=-2.0)
    state = apply_channel(make_named_state("product", 9), NoiseModel(1.0, 1.0, 1.0), 0.7)
    assert len(state.bits) == 1 << 9
    want_phase, _ = reference_full_support_terms(9, chain, params)
    evolved = evolve(state, chain, params)
    assert evolved.basis[:, 0].tobytes() == reference_phased(state.basis[:, 0], want_phase).tobytes()
    assert evolved.m is state.m


@pytest.mark.parametrize("make", [
    lambda: make_named_state("dicke", 9, k=4),
    lambda: make_named_state("product", 6),
    lambda: random_sparse(np.random.default_rng(2419), 7, size=30),
    lambda: apply_channel(make_named_state("product", 6), NoiseModel(1.0, 1.0, 1.0), 0.4),
    lambda: steady_twirl(random_mixture(np.random.default_rng(2420), 4, 3)),
    lambda: random_mixture(np.random.default_rng(2421), 4, 2),
])
def test_excitation_counts_are_counted_once_and_kept_read_only(make):
    state = make()
    k = state.excitations
    assert k.dtype == np.int32 and not k.flags.writeable
    assert k is state.excitations
    assert k.tolist() == [int(row.sum()) for row in state.bits]


# ----------------------------------------------------------------------
# named states
# ----------------------------------------------------------------------


def _rows(bits):
    return ["".join("01"[b] for b in row) for row in bits.tolist()]


@pytest.mark.parametrize("n", range(1, 15))
def test_dicke_rows_equal_the_combinations_oracle(n):
    for k in range(n + 1):
        want = sorted(
            "".join("1" if i in ones else "0" for i in range(n))
            for ones in itertools.combinations(range(n), k)
        )
        bits = _dicke_bits(n, k)
        assert bits.dtype == bool and bits.shape == (math.comb(n, k), n)
        assert _rows(bits) == want  # ascending and unique, so no re-sort is needed
        assert make_named_state("dicke", n, k=k).bits.tobytes() == bits.tobytes()


@pytest.mark.parametrize("k", [1, 2, 10])
def test_dicke_rows_at_twenty_qubits(k):
    bits = make_named_state("dicke", 20, k=k).bits
    assert bits.shape == (math.comb(20, k), 20)
    first, last = _rows(bits[[0, -1]])
    assert first == "0" * (20 - k) + "1" * k
    assert last == "1" * k + "0" * (20 - k)


def test_ghz_structure():
    s = make_named_state("ghz", 4)
    assert [bits for bits, _ in s.terms] == ["0000", "1111"]
    assert all(amp == pytest.approx(1 / math.sqrt(2)) for _, amp in s.terms)


def test_ghz_theta_relative_phase():
    theta = 0.7
    s = make_named_state("ghz-theta", 3, theta=theta)
    amps = dict(s.terms)
    ratio = amps["111"] / amps["000"]
    assert ratio == pytest.approx(complex(math.cos(theta), math.sin(theta)))


@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
def test_ghz_theta_rejects_a_phase_that_is_not_finite(theta):
    with pytest.raises(NonFiniteCoordinate, match=f"^theta must be finite, got {theta!r}$"):
        make_named_state("ghz-theta", 3, theta=theta)


def test_product_state_is_uniform():
    s = make_named_state("product", 3)
    assert s.support_size == 8
    assert all(amp == pytest.approx(8**-0.5) for _, amp in s.terms)
    with pytest.raises(SupportTooLarge):
        make_named_state("product", 21)


@pytest.mark.parametrize("n,k", [(4, 1), (4, 2), (5, 2), (6, 3)])
def test_odf_two_branch_structure(n, k):
    s = make_named_state("odf", n, k=k)
    assert {bits for bits, _ in s.terms} == {"1" * k + "0" * (n - k), "0" * (n - k) + "1" * k}


def test_odf_degenerate_branches_merge():
    assert make_named_state("odf", 3, k=0).terms == (("000", 1.0 + 0j),)
    assert make_named_state("odf", 3, k=3).terms == (("111", 1.0 + 0j),)


def test_dicke_counts_and_uniformity():
    s = make_named_state("dicke", 5, k=2)
    assert s.support_size == math.comb(5, 2)
    assert all(bits.count("1") == 2 for bits, _ in s.terms)
    assert all(amp == pytest.approx(math.comb(5, 2) ** -0.5) for _, amp in s.terms)


def test_psi_m_blocks():
    s = make_named_state("psi-m", 5, m=2)
    assert {bits for bits, _ in s.terms} == {"11000", "00111"}
    # m = 0 reduces to the GHZ pair
    assert make_named_state("psi-m", 4, m=0).terms == make_named_state("ghz", 4).terms


def _assert_rebuilt_identically(state):
    """A state the library built unchecked equals, byte for byte, its rebuild from copies
    through the public constructor, which checks everything."""
    if isinstance(state, SparseState):
        twin = SparseState(state.n_qubits, state.bits.copy(), state.amps.copy())
        pairs = ((state.bits, twin.bits), (state.amps, twin.amps))
    else:
        for _, vec in state.eigenpairs:
            _assert_rebuilt_identically(vec)
        twin = SpectralState(state.n_qubits, state.eigenpairs)
        assert twin.weights == state.weights
        pairs = ((state.bits, twin.bits), (state.vectors, twin.vectors))
    for built, checked in pairs:
        assert built.dtype == checked.dtype and built.flags.c_contiguous
        assert not built.flags.writeable and not checked.flags.writeable
        assert built.tobytes() == checked.tobytes()


@pytest.mark.parametrize("n", range(1, 10))
@pytest.mark.parametrize("name", STATE_NAMES)
def test_named_states_match_the_string_reference(name, n):
    counts = range(n + 1) if name in ("odf", "dicke", "psi-m") else (None,)
    rng = np.random.default_rng(n)
    chain, params = random_chain(rng, n), random_params(rng)
    model, ens = NoiseModel.from_params(params), TrajectoryEnsemble(64, seed=n)
    for count in counts:
        kw = {"m": count} if name == "psi-m" else {"k": count}
        state = make_named_state(name, n, theta=0.7, **kw)
        assert state.terms == reference_named_state(name, n, theta=0.7, **kw)
        for built in (state, evolve(state, chain, params), apply_channel(state, model, 0.8),
                      apply_channel(state, model, math.inf), steady_twirl(state),
                      mc_trajectory_average(state, chain, params, ens)):
            _assert_rebuilt_identically(built)


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


@pytest.mark.parametrize("name", ["product-plus", "GHZ", "psi_m"])
def test_named_state_takes_only_canonical_names(name):
    with pytest.raises(OutOfRange):
        make_named_state(name, 2, m=1)


# ----------------------------------------------------------------------
# spectral assembly
# ----------------------------------------------------------------------


def test_sector_spectral_rejects_negative_spectra():
    # a coherence larger than 1 makes the 2 x 2 sector matrix indefinite
    one_qubit = np.array([[False], [True]])
    with pytest.raises(SpectrumNotPositive):
        _sector_spectral(1, one_qubit, np.full(2, 0.5**0.5, complex), [1.0, 1.5])


def test_sector_spectral_clips_numerical_noise():
    # eigenvalues 1 + 1e-12 and -1e-12: the second is noise and is dropped
    one_qubit = np.array([[False], [True]])
    state = _sector_spectral(1, one_qubit, np.full(2, 0.5**0.5, complex), [1.0, 1.0 + 2e-12])
    assert state.rank == 1
    assert state.eigenpairs[0][0] == pytest.approx(1.0)


# ----------------------------------------------------------------------
# row kernel: prefix table, row index and complex product
# ----------------------------------------------------------------------


def _loop_sums(bits, values):
    """The per-qubit loop: each qubit's column adds column * v_i to every row, from +0.0."""
    sums = np.zeros((len(values), len(bits)))
    for row, v in zip(np.ascontiguousarray(bits.T), values.T[:, :, None]):
        sums += row * v
    return sums


def _bits_of(index, n):
    """Rows spelling the given ascending integers in binary, qubit 1 the most significant."""
    return (np.asarray(index, dtype=np.int64)[:, None] >> np.arange(n - 1, -1, -1)) & 1 == 1


@st.composite
def supports(draw):
    """An ascending support: one row, a full one, a random subset of rows, or a Dicke one."""
    kind = draw(st.sampled_from(["single", "full", "subset", "dicke"]))
    if kind == "full":
        n = draw(st.integers(1, 14))
        return _bits_of(np.arange(1 << n), n)
    n = draw(st.integers(1, 24))
    if kind == "dicke":
        k = draw(st.integers(0, n).filter(lambda k: math.comb(n, k) <= 20000))
        return _dicke_bits(n, k)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = 1 if kind == "single" else draw(st.integers(1, min(1 << n, 5000)))
    return _bits_of(np.sort(rng.choice(1 << n, size=size, replace=False)), n)


_magnitudes = st.floats(min_value=1e-300, max_value=1e300)
_summands = st.one_of(st.sampled_from([0.0, -0.0]), _magnitudes, _magnitudes.map(lambda x: -x))


@given(bits=supports(), data=st.data())
def test_excited_sums_equal_the_per_qubit_loop_bytes(bits, data):
    # the prefix table, its gathered index and the tail passes add each row's
    # excited values in chain order from +0.0, exactly as the loop does
    n = bits.shape[1]
    m = data.draw(st.integers(1, 3))
    values = np.array(data.draw(st.lists(_summands, min_size=m * n, max_size=m * n)))
    values = values.reshape(m, n)
    with np.errstate(over="ignore", invalid="ignore"):  # sums of 1e300s may reach inf - inf
        want = _loop_sums(bits, values).view(np.int64)
        got = _excited_sums(bits, values)
        kept = _excited_sums(bits, values, _prefix_index(bits))
    assert (got.view(np.int64) == want).all()
    assert (kept.view(np.int64) == want).all()


@given(bits=supports())
def test_row_index_is_each_rows_binary_value(bits):
    s, n = bits.shape
    value = bits @ (1 << np.arange(n - 1, -1, -1))
    assert _row_index(bits, n).tolist() == value.tolist()
    index = _prefix_index(bits)
    if s == 1 << n or s < 2048:  # a full support reads no index, a small one no table
        assert index is None
    else:
        h = s.bit_length() - 1
        assert index.tolist() == (value >> (n - h)).tolist()
        assert index.dtype == np.intp and not index.flags.writeable


_products = st.floats(min_value=-1e150, max_value=1e150)


@given(a=st.lists(st.tuples(_products, _products), min_size=1, max_size=40),
       factor=st.tuples(_products, _products))
def test_cmul_rounds_as_cpythons_complex_product(a, factor):
    # one factor for every entry, and a factor per entry (the reversed entries)
    amps = np.array([complex(x, y) for x, y in a])
    per_entry = amps[::-1].copy()
    for re, im in (factor, (per_entry.real, per_entry.imag)):
        res, ims = (np.broadcast_to(v, amps.shape).tolist() for v in (re, im))
        want = [complex(x) * complex(r, i) for x, r, i in zip(amps.tolist(), res, ims)]
        assert _cmul(amps, re, im).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("offset", [0.0, 1e4])
@pytest.mark.parametrize("name,n,kw", [
    ("dicke", 14, {"k": 7}), ("dicke", 15, {"k": 5}), ("dicke", 17, {"k": 4}),
])
def test_table_path_terms_and_evolve_equal_the_per_row_reference_bytes(name, n, kw, offset):
    rng = np.random.default_rng(3200 + n)
    chain = make_chain(offset + np.sort(rng.uniform(0.0, 1.0, size=n)), x0=0.0)
    params = random_params(rng, grad=float(rng.uniform(0.1, 1.0)))
    state = make_named_state(name, n, **kw)
    assert state.support_size >= 2048 and state.prefix_index is not None
    want_phase, want_lam = reference_evolution_terms([b for b, _ in state.terms], chain, params)
    phase, lam = _evolution_terms(state.bits, chain, params, state.excitations, state.prefix_index)
    assert phase.tobytes() == want_phase.tobytes()
    assert lam.tobytes() == want_lam.tobytes()
    evolved = evolve(state, chain, params)
    assert evolved.amps.tobytes() == reference_phased(state.amps, want_phase).tobytes()


@pytest.mark.parametrize("make,has_index", [
    (lambda: make_named_state("dicke", 14, k=7), True),
    (lambda: make_named_state("dicke", 12, k=6), False),
    (lambda: make_named_state("product", 9), False),
    (lambda: make_named_state("dicke", 9, k=4), False),
    (lambda: apply_channel(make_named_state("dicke", 10, k=4), NoiseModel(1.0, 1.0, 1.0), 0.4),
     False),
    (lambda: apply_channel(random_sparse(np.random.default_rng(3210), 13, size=2500),
                           NoiseModel(1.0, 1.0, 1.0), 0.4), True),
])
def test_prefix_index_is_kept_once(make, has_index):
    state = make()
    index = state.prefix_index
    assert (index is not None) == has_index
    assert state.prefix_index is index


def test_a_full_support_pairs_each_row_with_its_reversed_row():
    assert _complement_rows(make_named_state("product", 6).bits) == (
        slice(None), slice(None, None, -1))


@pytest.mark.parametrize("n", range(1, 13))
def test_basis_excitations_count_the_set_bits_of_every_index(n):
    assert _basis_excitations(n).tolist() == [bin(i).count("1") for i in range(1 << n)]
