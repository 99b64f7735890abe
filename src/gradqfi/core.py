"""Domain model for a qubit chain probing a magnetic-field gradient.

N qubits sit at fixed positions x_1 <= ... <= x_N inside a field
B(x) = B0 + (x - x0) * G.  Each qubit couples through sigma_z, so the
Hamiltonian is diagonal in the computational basis:

    H / hbar = gamma * B0 * J_z + gamma * G * H_G,
    H_G = (1/2) * sum_i f(x_i - x0) * sigma_z^(i),

with f(u) = u for the linear profile (generalized profiles allowed as
long as f(0) = 0).  Qubits are labeled in ascending order of their
profile value f(x_i - x0); the leftmost character of a basis bitstring
belongs to qubit 1 (the smallest f).  sigma_z |0> = +|0>.

The gradient reaches a state only through the phase each basis bitstring
picks up; _evolution_terms computes that phase and the eigenvalue lambda_I
of H_G once, for evolve, the measurement readouts and the Monte Carlo
trajectories alike.

Everything here is immutable and side-effect free, so all operations
are safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    EmptyChain,
    InvalidProfile,
    LengthMismatch,
    NegativeTime,
    NonFiniteCoordinate,
    NonNormalizedState,
    OutOfRange,
    SpectrumNotPositive,
    SupportTooLarge,
)

# Sparse states hold at most this many basis terms.
SPARSE_CAP = 1 << 20

NORM_TOL = 1e-12
ORTHO_TOL = 1e-10


# ----------------------------------------------------------------------
# field profile and chain geometry
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FieldProfile:
    """Shape of the position dependence, applied to u = x - x0.

    kind "linear" is f(u) = u.  kind "custom" wraps an arbitrary real
    function handle, which must vanish at the origin (f(0) = 0 within
    1e-12) so that the reference point stays field-free.
    """

    kind: str = "linear"
    func: Callable[[float], float] | None = None

    def __post_init__(self):
        if self.kind == "linear":
            if self.func is not None:
                raise InvalidProfile("linear profile takes no function handle")
        elif self.kind == "custom":
            if self.func is None:
                raise InvalidProfile("custom profile requires a function handle")
            origin = float(self.func(0.0))
            if not math.isfinite(origin) or abs(origin) > 1e-12:
                raise InvalidProfile(
                    f"profile must satisfy f(0) = 0 within 1e-12, got {origin!r}"
                )
        else:
            raise InvalidProfile(f"profile kind must be 'linear' or 'custom', got {self.kind!r}")

    def __call__(self, u: float) -> float:
        if self.kind == "linear":
            return float(u)
        return float(self.func(u))


LINEAR = FieldProfile()


@dataclass(frozen=True)
class ChainConfig:
    """Qubit positions, the reference point x0, and the field profile.

    positions must already be ordered by ascending f(x - x0); build
    instances through make_chain, which sorts for you (stable in the
    original order on ties).
    """

    positions: tuple[float, ...]
    x0: float = 0.0
    profile: FieldProfile = LINEAR
    f_values: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self):
        positions = tuple(float(x) for x in self.positions)
        if not positions:
            raise EmptyChain("positions must contain at least one qubit")
        for x in positions:
            if not math.isfinite(x):
                raise NonFiniteCoordinate(f"position {x!r} is not finite")
        if not math.isfinite(self.x0):
            raise NonFiniteCoordinate(f"x0 {self.x0!r} is not finite")
        f_values = tuple(self.profile(x - self.x0) for x in positions)
        for fx in f_values:
            if not math.isfinite(fx):
                raise NonFiniteCoordinate(f"profile value {fx!r} is not finite")
        for a, b in zip(f_values, f_values[1:]):
            if a > b:
                raise OutOfRange(
                    "positions must be ordered by ascending profile value; use make_chain"
                )
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "f_values", f_values)

    @property
    def n(self) -> int:
        return len(self.positions)

    @cached_property
    def f_array(self) -> np.ndarray:
        return np.asarray(self.f_values, dtype=np.float64)


def make_chain(
    positions: Iterable[float],
    x0: float = 0.0,
    profile: FieldProfile = LINEAR,
) -> ChainConfig:
    """Build a ChainConfig, sorting positions by ascending f(x - x0).

    The sort is stable: positions with equal profile values keep their
    input order (the physics is invariant under relabeling, so the
    choice only pins down a deterministic convention).
    """
    pos = [float(x) for x in positions]
    if not pos:
        raise EmptyChain("positions must contain at least one qubit")
    for x in pos:
        if not math.isfinite(x):
            raise NonFiniteCoordinate(f"position {x!r} is not finite")
    if not math.isfinite(x0):
        raise NonFiniteCoordinate(f"x0 {x0!r} is not finite")
    pos.sort(key=lambda x: profile(x - x0))
    return ChainConfig(tuple(pos), float(x0), profile)


# ----------------------------------------------------------------------
# physical parameters
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PhysParams:
    """Coupling, field, timing, and noise parameters.

    SI units throughout: gamma in rad/(s*T), b0 in T, grad in T/m, t in
    s, tau_c in s; delta_e is the rms fluctuation strength seen through
    the noise coupling gamma_prime.
    """

    gamma: float = 1.0
    b0: float = 0.0
    grad: float = 0.0
    t: float = 1.0
    gamma_prime: float = 1.0
    delta_e: float = 0.0
    tau_c: float = 1.0

    def __post_init__(self):
        for name in ("gamma", "b0", "grad", "t", "gamma_prime", "delta_e", "tau_c"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise NonFiniteCoordinate(f"{name} must be finite, got {value!r}")
        if self.gamma <= 0:
            raise OutOfRange(f"gamma must be > 0, got {self.gamma!r}")
        if self.t < 0:
            raise NegativeTime(f"t must be >= 0, got {self.t!r}")
        if self.delta_e < 0:
            raise OutOfRange(f"delta_e must be >= 0, got {self.delta_e!r}")
        if self.tau_c <= 0:
            raise OutOfRange(f"tau_c must be > 0, got {self.tau_c!r}")


# ----------------------------------------------------------------------
# states
# ----------------------------------------------------------------------


def _check_bits(bits: str, n_qubits: int) -> None:
    if len(bits) != n_qubits:
        raise LengthMismatch(
            f"bitstring {bits!r} has length {len(bits)}, expected n_qubits={n_qubits}"
        )
    if bits.strip("01"):
        raise OutOfRange(f"bitstring {bits!r} must contain only '0' and '1'")


@dataclass(frozen=True)
class SparseState:
    """Pure state as a sparse list of (bitstring, amplitude) terms.

    Terms are canonicalized to ascending bitstring order.  Bitstrings
    are unique, have length n_qubits, and the amplitudes form a unit
    vector within 1e-12.
    """

    n_qubits: int
    terms: tuple[tuple[str, complex], ...]

    def __post_init__(self):
        if self.n_qubits < 1:
            raise OutOfRange(f"n_qubits must be >= 1, got {self.n_qubits!r}")
        terms = tuple(
            sorted(((str(b), complex(a)) for b, a in self.terms), key=lambda term: term[0])
        )
        if not terms:
            raise NonNormalizedState("state needs at least one term")
        if len(terms) > SPARSE_CAP:
            raise SupportTooLarge(f"{len(terms)} terms exceed the sparse cap {SPARSE_CAP}")
        seen = set()
        norm2 = 0.0
        for bits, amp in terms:
            _check_bits(bits, self.n_qubits)
            if bits in seen:
                raise OutOfRange(f"duplicate basis bitstring {bits!r}")
            seen.add(bits)
            if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
                raise NonFiniteCoordinate(f"amplitude {amp!r} is not finite")
            norm2 += abs(amp) ** 2
        if abs(norm2 - 1.0) > NORM_TOL:
            raise NonNormalizedState(f"sum of |amplitude|^2 is {norm2!r}, expected 1 within {NORM_TOL:g}")
        object.__setattr__(self, "terms", terms)

    @property
    def support_size(self) -> int:
        return len(self.terms)

    @property
    def eigenpairs(self) -> tuple[tuple[float, "SparseState"], ...]:
        """The state as a one-term spectral decomposition, like SpectralState's."""
        return ((1.0, self),)


@dataclass(frozen=True)
class SpectralState:
    """Mixed state in spectral form: weights plus orthonormal eigenvectors.

    Weights are non-negative and sum to 1 within 1e-12; eigenvectors are
    mutually orthogonal within 1e-10.
    """

    n_qubits: int
    eigenpairs: tuple[tuple[float, SparseState], ...]

    def __post_init__(self):
        pairs = tuple((float(w), v) for w, v in self.eigenpairs)
        if not pairs:
            raise NonNormalizedState("spectral state needs at least one eigenpair")
        total = 0.0
        for w, vec in pairs:
            if not math.isfinite(w) or w < 0:
                raise NonNormalizedState(f"eigenvalue weight {w!r} must be finite and >= 0")
            if vec.n_qubits != self.n_qubits:
                raise LengthMismatch(
                    f"eigenvector has {vec.n_qubits} qubits, expected {self.n_qubits}"
                )
            total += w
        if abs(total - 1.0) > NORM_TOL:
            raise NonNormalizedState(f"weights sum to {total!r}, expected 1 within {NORM_TOL:g}")
        _check_orthogonality([vec for _, vec in pairs])
        object.__setattr__(self, "eigenpairs", pairs)

    @property
    def rank(self) -> int:
        return len(self.eigenpairs)


State = SparseState | SpectralState


def _check_orthogonality(vectors: Sequence["SparseState"]) -> None:
    """Verify pairwise overlaps stay below ORTHO_TOL via the Gram matrix.

    Small united supports go through one dense Gram product; larger ones
    are accumulated bitstring-wise, which is linear in the total term
    count whenever supports are (near-)disjoint, the only way a large
    orthogonal family arises here.
    """
    r = len(vectors)
    if r < 2:
        return
    support = sorted({bits for vec in vectors for bits, _ in vec.terms})
    gram = np.zeros((r, r), dtype=np.complex128)
    if len(support) <= 8192:
        index = {bits: i for i, bits in enumerate(support)}
        mat = np.zeros((r, len(support)), dtype=np.complex128)
        for i, vec in enumerate(vectors):
            for bits, amp in vec.terms:
                mat[i, index[bits]] = amp
        gram = mat.conj() @ mat.T
    else:
        by_bits: dict[str, list[tuple[int, complex]]] = {}
        for i, vec in enumerate(vectors):
            for bits, amp in vec.terms:
                by_bits.setdefault(bits, []).append((i, amp))
        for contributors in by_bits.values():
            for i, ai in contributors:
                for j, aj in contributors:
                    gram[i, j] += ai.conjugate() * aj
    np.fill_diagonal(gram, 0.0)
    worst = float(np.abs(gram).max())
    if worst >= ORTHO_TOL:
        raise NonNormalizedState(
            f"eigenvectors are not orthogonal within {ORTHO_TOL:g} (worst overlap {worst:.3e})"
        )


# ----------------------------------------------------------------------
# Hamiltonian spectrum and evolution
# ----------------------------------------------------------------------


def _evolution_terms(
    bitstrings: Sequence[str], config: ChainConfig, params: PhysParams
) -> tuple[np.ndarray, np.ndarray]:
    """Evolution phase and H_G eigenvalue lambda_I of each basis bitstring.

    lambda_I = (1/2) sum_i (f_i - c) s_i + c (n/2 - k_I) with c = mean(f):
    the first term sees only the centred profile and the second vanishes on
    balanced strings.  The phase gamma t (B0 (n/2 - k_I) + G lambda_I) =
    (1/2) sum_i s_i gamma t (B0 + G f_i) sums per-qubit turns reduced
    modulo 4 pi, so it stays within n pi and is not rounded at the scale of
    a large f.  Both are half the all-qubit sum minus the sum over the
    excited qubits, accumulated qubit by qubit in chain order.
    """
    n = config.n
    gbt = params.gamma * params.b0 * params.t
    ggt = params.gamma * params.grad * params.t
    c = math.fsum(config.f_values) / n
    centred = [fx - c for fx in config.f_values]
    turns = [math.remainder(gbt + ggt * fx, 4.0 * math.pi) for fx in config.f_values]
    raw = np.frombuffer("".join(bitstrings).encode("ascii"), dtype=np.uint8)
    excited = raw.reshape(-1, n).T == ord("1")  # (qubit, term)
    phase = np.zeros(excited.shape[1])
    lam = np.zeros(excited.shape[1])
    for row, turn, g in zip(excited, turns, centred):
        phase += row * turn
        lam += row * g
    phase = 0.5 * math.fsum(turns) - phase
    lam = 0.5 * math.fsum(centred) - lam + c * (0.5 * n - excited.sum(axis=0))
    return phase, lam


def evolve(state: State, config: ChainConfig, params: PhysParams) -> State:
    """Apply the exact diagonal evolution exp(-i t H / hbar).

    Each amplitude on bitstring I picks up exp(-i phase(I)) with
    phase(I) = gamma*B0*t*(N/2 - k(I)) + gamma*G*t*lambda_I, evaluated by
    _evolution_terms.  Norm is preserved exactly; spectral states evolve
    eigenvector-wise.
    """
    if isinstance(state, SpectralState):
        pairs = tuple((w, evolve(v, config, params)) for w, v in state.eigenpairs)
        return SpectralState(state.n_qubits, pairs)
    n = state.n_qubits
    if n != config.n:
        raise LengthMismatch(f"state has {n} qubits but chain has {config.n}")
    phase, _ = _evolution_terms([bits for bits, _ in state.terms], config, params)
    return SparseState(n, tuple(
        (bits, amp * complex(math.cos(ph), -math.sin(ph)))
        for (bits, amp), ph in zip(state.terms, phase.tolist())
    ))


# ----------------------------------------------------------------------
# named probe states
# ----------------------------------------------------------------------

STATE_NAMES = ("ghz", "ghz-theta", "product", "odf", "dicke", "psi-m")

_SQRT_HALF = 1.0 / math.sqrt(2.0)


def make_named_state(
    name: str,
    n_qubits: int,
    *,
    k: int | None = None,
    m: int | None = None,
    theta: float = 0.0,
) -> SparseState:
    """Construct one of the standard probe states.

    ghz        (|0..0> + |1..1>)/sqrt(2)
    ghz-theta  (|0..0> + e^{i theta}|1..1>)/sqrt(2)
    product    |+>^n, 2^n uniform terms (n <= 20 in sparse form)
    odf        (|1>^k|0>^(n-k) + |0>^(n-k)|1>^k)/sqrt(2); needs k
    dicke      uniform superposition of all weight-k bitstrings; needs k
    psi-m      (|1>^m|0>^(n-m) + |0>^m|1>^(n-m))/sqrt(2); needs m
    """
    if n_qubits < 1:
        raise OutOfRange(f"n_qubits must be >= 1, got {n_qubits!r}")
    if name not in STATE_NAMES:
        raise OutOfRange(f"unknown state name {name!r}; choose from {STATE_NAMES}")

    if name == "ghz":
        return SparseState(
            n_qubits, (("0" * n_qubits, _SQRT_HALF), ("1" * n_qubits, _SQRT_HALF))
        )
    if name == "ghz-theta":
        rel = complex(math.cos(theta), math.sin(theta)) * _SQRT_HALF
        return SparseState(n_qubits, (("0" * n_qubits, _SQRT_HALF), ("1" * n_qubits, rel)))
    if name == "product":
        if (1 << n_qubits) > SPARSE_CAP or n_qubits > 20:
            raise SupportTooLarge(
                f"product state needs 2^{n_qubits} terms, above the sparse cap; "
                "use the closed-form paths instead"
            )
        amp = 2.0 ** (-0.5 * n_qubits)
        terms = tuple((format(i, f"0{n_qubits}b"), amp) for i in range(1 << n_qubits))
        return SparseState(n_qubits, terms)
    if name == "odf":
        if k is None:
            raise OutOfRange("odf state requires k")
        if not 0 <= k <= n_qubits:
            raise OutOfRange(f"k must be in [0, {n_qubits}], got {k!r}")
        a = "1" * k + "0" * (n_qubits - k)
        b = "0" * (n_qubits - k) + "1" * k
        if a == b:
            return SparseState(n_qubits, ((a, 1.0),))
        return SparseState(n_qubits, ((a, _SQRT_HALF), (b, _SQRT_HALF)))
    if name == "dicke":
        if k is None:
            raise OutOfRange("dicke state requires k")
        if not 0 <= k <= n_qubits:
            raise OutOfRange(f"k must be in [0, {n_qubits}], got {k!r}")
        count = math.comb(n_qubits, k)
        if count > SPARSE_CAP:
            raise SupportTooLarge(f"dicke state needs C({n_qubits},{k})={count} terms, above the sparse cap")
        amp = 1.0 / math.sqrt(count)
        terms = []
        for ones in combinations(range(n_qubits), k):
            chars = ["0"] * n_qubits
            for i in ones:
                chars[i] = "1"
            terms.append(("".join(chars), amp))
        return SparseState(n_qubits, tuple(terms))
    # psi-m
    if m is None:
        raise OutOfRange("psi-m state requires m")
    if not 0 <= m <= n_qubits:
        raise OutOfRange(f"m must be in [0, {n_qubits}], got {m!r}")
    a = "1" * m + "0" * (n_qubits - m)
    b = "0" * m + "1" * (n_qubits - m)
    return SparseState(n_qubits, ((a, _SQRT_HALF), (b, _SQRT_HALF)))


# ----------------------------------------------------------------------
# spectral assembly (shared by the noise channel and the twirl)
# ----------------------------------------------------------------------

# Density-matrix eigenvalues in [-NEG_EVAL_TOL, _WEIGHT_DROP] are numerical
# noise and are dropped; anything more negative is a real positivity
# violation and raises.
NEG_EVAL_TOL = 1e-10
_WEIGHT_DROP = 1e-14
_AMP_DROP = 1e-14


def _eigen_pairs(
    rho: np.ndarray, support: Sequence[str], n_qubits: int
) -> list[tuple[float, SparseState]]:
    """(eigenvalue, eigenvector) of a Hermitian block over an explicit support.

    Keeps the eigenvalues above _WEIGHT_DROP, heaviest first and not
    normalized; eigenvector entries at or below _AMP_DROP are dropped and
    the rest renormalized to a unit vector.
    """
    w, vecs = np.linalg.eigh(rho)
    if w[0] < -NEG_EVAL_TOL:
        raise SpectrumNotPositive(
            f"density matrix has eigenvalue {w[0]:.6e}, below -{NEG_EVAL_TOL:g}"
        )
    pairs = []
    for i in sorted(np.flatnonzero(w > _WEIGHT_DROP), key=lambda i: -w[i]):
        col = vecs[:, i]
        mask = np.abs(col) > _AMP_DROP
        col = col[mask] / math.sqrt(float(np.vdot(col[mask], col[mask]).real))
        terms = tuple(
            (support[j], complex(col[pos]))
            for pos, j in enumerate(np.flatnonzero(mask))
        )
        pairs.append((float(w[i]), SparseState(n_qubits, terms)))
    return pairs


def spectral_from_support_matrix(
    rho: np.ndarray, support: Sequence[str], n_qubits: int
) -> SpectralState:
    """Diagonalize a Hermitian density block given over an explicit support.

    rho is an s x s matrix over the basis bitstrings in `support` (unit
    trace).  Returns the eigendecomposition as a SpectralState, with
    numerical-noise eigenvalues dropped and weights renormalized.
    """
    pairs = _eigen_pairs(rho, support, n_qubits)
    if not pairs:
        raise NonNormalizedState("density matrix has no positive weight")
    # lightest first, in eigh's order, so the weights keep their digits
    total = sum(w for w, _ in reversed(pairs))
    return SpectralState(n_qubits, tuple((w / total, vec) for w, vec in pairs))
