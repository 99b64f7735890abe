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

A state is an ascending bool matrix with a row per basis bitstring (column
i is qubit i + 1) and its amplitudes; a mixed state holds instead each
row's entries in its excitation sector's orthonormal columns, the matrix m of
rho between them and, from first use, m's one eigh for its positivity check,
eigen-views and QFI.  Only SparseState.from_terms and .terms spell rows as
'0'/'1' strings.  The gradient reaches a state only through the phase each row
picks up, summed by _excited_sums (with lambda_I of H_G only for the readouts):
the first floor(log2 s) qubits of s rows from a table of every prefix's sums,
built by doubling and read through the row index the state keeps, then one
pass over each later qubit's row (all n passes below 2048 rows, none on a full
support).

Public constructors check their input; the library builds its own states
and chains through _frozen, unchecked.  Everything here is immutable and
side-effect free, so all operations are safe to call concurrently.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    EmptyChain,
    InvalidProfile,
    LengthMismatch,
    NegativeTime,
    NonFiniteCoordinate,
    NonNormalizedState,
    NumericOverflow,
    OutOfRange,
    SpectrumNotPositive,
    SupportTooLarge,
)

# Sparse states hold at most this many basis terms.
SPARSE_CAP = 1 << 20

NORM_TOL = 1e-12
ORTHO_TOL = 1e-10


def _frozen(obj, *values):
    """Set a frozen dataclass's fields in declaration order, its arrays read-only.  Handed
    a class, make a new instance with no check: for values that hold its invariants."""
    obj = obj.__new__(obj) if isinstance(obj, type) else obj
    for value in values:
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    obj.__dict__.update(zip(obj.__dataclass_fields__, values))
    return obj


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
        return float(u) if self.kind == "linear" else float(self.func(u))


LINEAR = FieldProfile()


def _check_finite(values: np.ndarray, what: str) -> None:
    finite = np.isfinite(values)
    if not finite.all():
        raise NonFiniteCoordinate(f"{what} {values[~finite][0].item()!r} is not finite")


def _chain_arrays(positions: Iterable[float], x0: float,
                  profile: FieldProfile) -> tuple[np.ndarray, np.ndarray]:
    """The positions p as a float64 vector (float() of each) and f = f(p - x0), both
    checked finite; p and x0 are checked before the profile is evaluated."""
    p = np.fromiter(map(float, positions), np.float64)
    if not p.size:
        raise EmptyChain("positions must contain at least one qubit")
    _check_finite(p, "position")
    if not math.isfinite(x0):
        raise NonFiniteCoordinate(f"x0 {x0!r} is not finite")
    with np.errstate(over="ignore", invalid="ignore"):  # inf on overflow, as float arithmetic
        u = p - x0
    f = u if profile.kind == "linear" else np.array([profile(x) for x in u.tolist()])
    _check_finite(f, "profile value")
    return p, f


@dataclass(frozen=True)
class ChainConfig:
    """Qubit positions, the reference point x0, and the field profile.

    positions must already be ordered by ascending f(x - x0); the
    constructor checks that with vector tests on the float64 positions p
    and on f = f(p - x0).  make_chain sorts (stable on ties), checks once
    and builds the chain unchecked.  positions is p as a tuple of floats, f_array
    is f itself, read-only, and the f_values property builds f's tuple on access.
    """

    positions: tuple[float, ...]
    x0: float = 0.0
    profile: FieldProfile = LINEAR
    f_array: np.ndarray = field(init=False, repr=False, compare=False)
    f_values = property(lambda self: tuple(self.f_array.tolist()))  # f's floats, on access

    def __post_init__(self):
        p, f = _chain_arrays(self.positions, self.x0, self.profile)
        if (f[1:] < f[:-1]).any():
            raise OutOfRange("positions must be ordered by ascending profile value; "
                             "use make_chain")
        _frozen(self, tuple(p.tolist()), self.x0, self.profile, f)

    @property
    def n(self) -> int:
        return len(self.positions)

    @cached_property
    def spread(self) -> float:
        """sum_i (f_i - mean f)^2 (see _spread), computed once; inf where a square is inf."""
        with np.errstate(over="ignore"):
            return _spread(self.f_array - self.f_array.mean())


def _spread(centred: np.ndarray) -> float:
    """sum_i c_i^2 of the centred profile c = f - mean f by math.fsum, as _fsum rounds it."""
    try:
        return math.fsum(memoryview(centred * centred))
    except OverflowError:
        raise NumericOverflow(f"profile spread overflows float64 at n = {len(centred)}") from None


def _fsum(x: np.ndarray) -> float:
    """The correctly rounded sum of a float64 vector (+ 0.0 as sum() starts): math.fsum, or
    where fsum raises (inf - inf, finite terms past float64) the inf or nan sum() gives."""
    try:
        return math.fsum(memoryview(x)) + 0.0
    except (OverflowError, ValueError):
        return sum(x.tolist())


def make_chain(
    positions: Iterable[float],
    x0: float = 0.0,
    profile: FieldProfile = LINEAR,
) -> ChainConfig:
    """Build a ChainConfig, sorting positions by ascending f(x - x0).

    The sort is one stable argsort of f: positions with equal profile
    values (-0.0 and 0.0 too) keep their input order (the physics is
    invariant under relabeling, so the choice only pins down a
    deterministic convention).  The chain keeps the sorted arrays of the one
    pass that computes and checks them, so the profile runs once per qubit.
    """
    p, f = _chain_arrays(positions, x0, profile)
    order = f.argsort(kind="stable")
    p, f = p[order], f[order]
    return _frozen(ChainConfig, tuple(p.tolist()), float(x0), profile, f)


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
        if self.gamma_prime < 0:
            raise OutOfRange(f"gamma_prime must be >= 0, got {self.gamma_prime!r}")
        if self.delta_e < 0:
            raise OutOfRange(f"delta_e must be >= 0, got {self.delta_e!r}")
        if self.tau_c <= 0:
            raise OutOfRange(f"tau_c must be > 0, got {self.tau_c!r}")


# ----------------------------------------------------------------------
# states
# ----------------------------------------------------------------------


def _keys(bits: np.ndarray) -> np.ndarray:
    """The rows of a bit matrix as fixed-width byte strings (one 0/1 byte per qubit,
    no copy), which sort and search exactly as the bitstrings do."""
    return np.ascontiguousarray(bits).view(f"S{bits.shape[1]}").ravel()


def _excitations(bits: np.ndarray) -> np.ndarray:
    """Each row's excitation count, summed by einsum as int32 (2.7x a bool row sum), read-only."""
    k = np.einsum("ij->i", bits, dtype=np.int32)
    k.setflags(write=False)
    return k


def _cmul(a: np.ndarray, re, im) -> np.ndarray:
    """a * complex(re, im) elementwise, rounded as CPython's complex product is (numpy's
    complex multiply may round the last digit differently): each product is written into
    out's parts or one temporary, and the parts are subtracted and added in place."""
    out = np.empty_like(a)
    real, imag, tmp = out.real, out.imag, a.imag * im
    np.multiply(a.real, re, out=real)
    real -= tmp
    np.multiply(a.imag, re, out=tmp)
    np.multiply(a.real, im, out=imag)
    imag += tmp
    return out


@dataclass(frozen=True, eq=False)
class SparseState:
    """Pure state as a bit matrix and an amplitude vector.

    bits is a read-only (terms, n_qubits) bool matrix (column i is qubit
    i + 1) with unique rows, sorted on construction into ascending
    bitstring order; amps holds each row's complex128 amplitude, a unit
    vector within 1e-12.  The constructor checks this and may keep, read-only,
    the arrays it is given; the library's own states are built unchecked.
    excitations, each row's count as a read-only int32 vector, and prefix_index, the row
    index _excited_sums gathers its prefix table by (None where it reads none), are kept on
    first use.
    """

    n_qubits: int
    bits: np.ndarray
    amps: np.ndarray

    def __post_init__(self):
        n = self.n_qubits
        if n < 1:
            raise OutOfRange(f"n_qubits must be >= 1, got {n!r}")
        bits = np.ascontiguousarray(self.bits, dtype=bool)
        amps = np.ascontiguousarray(self.amps, dtype=np.complex128)
        if bits.ndim != 2 or bits.shape[1] != n or amps.shape != bits.shape[:1]:
            raise LengthMismatch(f"bits {bits.shape} and amps {amps.shape} do not fit {n} qubits")
        if not len(amps):
            raise NonNormalizedState("state needs at least one term")
        if len(amps) > SPARSE_CAP:
            raise SupportTooLarge(f"{len(amps)} terms exceed the sparse cap {SPARSE_CAP}")
        keys = _keys(bits)
        ascending = keys[1:] > keys[:-1]
        if np.count_nonzero(ascending) < len(ascending):  # strictly ascending is canonical
            order = np.argsort(keys, kind="stable")
            keys, bits, amps = keys[order], bits[order], amps[order]
            dup = np.flatnonzero(keys[1:] == keys[:-1])
            if len(dup):
                bad = "".join("01"[b] for b in bits[dup[0]].tolist())
                raise OutOfRange(f"duplicate basis bitstring {bad!r}")
        norm2 = float(np.vdot(amps, amps).real)
        if not math.isfinite(norm2) and not np.isfinite(amps).all():
            bad = complex(amps[~np.isfinite(amps)][0])
            raise NonFiniteCoordinate(f"amplitude {bad!r} is not finite")
        if not abs(norm2 - 1.0) <= NORM_TOL:
            raise NonNormalizedState(
                f"sum of |amplitude|^2 is {norm2!r}, expected 1 within {NORM_TOL:g}"
            )
        _frozen(self, n, bits, amps)

    @classmethod
    def from_terms(cls, n_qubits: int, terms: Iterable[tuple[str, complex]]) -> "SparseState":
        """State from (bitstring, amplitude) pairs in any order, qubit 1 leftmost."""
        if n_qubits < 1:
            raise OutOfRange(f"n_qubits must be >= 1, got {n_qubits!r}")
        terms = [(str(bits), complex(amp)) for bits, amp in terms]
        for bits, _ in terms:
            if len(bits) != n_qubits:
                raise LengthMismatch(
                    f"bitstring {bits!r} has length {len(bits)}, expected n_qubits={n_qubits}"
                )
            if bits.strip("01"):
                raise OutOfRange(f"bitstring {bits!r} must contain only '0' and '1'")
        raw = np.frombuffer("".join(bits for bits, _ in terms).encode("ascii"), dtype=np.uint8)
        return cls(n_qubits, raw.reshape(-1, n_qubits) == ord("1"), [amp for _, amp in terms])

    @property
    def terms(self) -> tuple[tuple[str, complex], ...]:
        """(bitstring, amplitude) pairs in ascending order, rebuilt on each access."""
        rows = (self.bits.view(np.uint8) + ord("0")).view(f"S{self.n_qubits}").ravel()
        return tuple(zip(rows.astype(str).tolist(), self.amps.tolist()))

    @property
    def support_size(self) -> int:
        return len(self.amps)

    weights = (1.0,)  # the state as a rank-1 case of SpectralState's views
    excitations = cached_property(lambda self: _excitations(self.bits))  # each row's, once
    prefix_index = cached_property(lambda self: _prefix_index(self.bits))  # shared, once

    @property
    def vectors(self) -> np.ndarray:
        return self.amps[None, :]

    @property
    def eigenpairs(self) -> tuple[tuple[float, "SparseState"], ...]:
        """The state as a one-term spectral decomposition, like SpectralState's."""
        return ((1.0, self),)


@dataclass(frozen=True, eq=False, init=False)
class SpectralState:
    """Mixed state on excitation sectors: rho = sum_gh m[g, h] |q_g><q_h|.

    bits holds the ascending support rows, sector each row's index among the
    occupied sectors, basis[:, a] its entry of its sector's orthonormal column
    g = sector * width + a; a state built from a pure probe has one column per
    sector.  The constructor checks that the weights are >= 0 and sum to 1
    within 1e-12 and the eigenvectors are orthogonal within 1e-10, keeps the
    pairs and converts them by a thin QR per sector, A = QR, m = R W R^dagger.
    Otherwise weights, vectors (the (rank, rows) eigenvector matrix) and
    eigenpairs are lazy views, for the public API only, of _spectrum above
    _WEIGHT_DROP: m's one checked eigh, which the QFI reads too.  Evolutions and
    readouts read bits, sector, basis and m.  excitations and prefix_index are as on
    SparseState.
    """

    n_qubits: int
    bits: np.ndarray
    sector: np.ndarray
    basis: np.ndarray
    m: np.ndarray

    def __init__(self, n_qubits: int, eigenpairs: Iterable[tuple[float, SparseState]]):
        pairs = tuple((float(w), v) for w, v in eigenpairs)
        if not pairs:
            raise NonNormalizedState("spectral state needs at least one eigenpair")
        total = 0.0
        for w, vec in pairs:
            if not math.isfinite(w) or w < 0:
                raise NonNormalizedState(f"eigenvalue weight {w!r} must be finite and >= 0")
            if vec.n_qubits != n_qubits:
                raise LengthMismatch(f"eigenvector has {vec.n_qubits} qubits, expected {n_qubits}")
            total += w
        if abs(total - 1.0) > NORM_TOL:
            raise NonNormalizedState(f"weights sum to {total!r}, expected 1 within {NORM_TOL:g}")
        bits = np.concatenate([vec.bits for _, vec in pairs])  # the rows' ascending union
        _, first, where = np.unique(_keys(bits), return_index=True, return_inverse=True)
        vectors = np.zeros((len(pairs), len(first)), dtype=np.complex128)
        vectors[np.repeat(np.arange(len(pairs)), [len(vec.amps) for _, vec in pairs]),
                where] = np.concatenate([vec.amps for _, vec in pairs])
        bits = bits[first]
        gram = vectors.conj() @ vectors.T
        np.fill_diagonal(gram, 0.0)
        worst = float(np.abs(gram).max())
        if worst >= ORTHO_TOL:
            raise NonNormalizedState(
                f"eigenvectors are not orthogonal within {ORTHO_TOL:g} "
                f"(worst overlap {worst:.3e})"
            )
        weights = tuple(w for w, _ in pairs)
        k = _excitations(bits)
        sector = (np.cumsum(np.bincount(k) > 0) - 1)[k]
        blocks = [(rows, *np.linalg.qr(vectors[:, rows].T))  # each sector's rows, Q and R
                  for rows in map(np.flatnonzero, np.arange(sector.max() + 1)[:, None] == sector)]
        width = max(q.shape[1] for _, q, _ in blocks)
        basis = np.zeros((len(bits), width), dtype=np.complex128)
        r_all = np.zeros((len(blocks) * width, len(pairs)), dtype=np.complex128)
        for j, (rows, q, r) in enumerate(blocks):
            basis[rows, : q.shape[1]] = q
            r_all[j * width : j * width + len(r)] = r
        _frozen(self, n_qubits, bits, sector, basis, (r_all * weights) @ r_all.conj().T)
        vectors.setflags(write=False)  # the views are kept as given, with the counts
        self.__dict__.update(eigenpairs=pairs, weights=weights, vectors=vectors, excitations=k)

    excitations = cached_property(lambda self: _excitations(self.bits))  # each row's, once
    prefix_index = cached_property(lambda self: _prefix_index(self.bits))  # shared, once

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """m's eigh (w ascending, u[:, c] w[c]'s eigenvector); w[0] < -NEG_EVAL_TOL raises."""
        w, u = np.linalg.eigh(self.m)
        if w[0] < -NEG_EVAL_TOL:
            raise SpectrumNotPositive(f"density matrix has eigenvalue {w[0]:.6e}, "
                                      f"below -{NEG_EVAL_TOL:g}")
        return w, u

    @cached_property
    def weights(self) -> tuple[float, ...]:
        """m's eigenvalues above _WEIGHT_DROP, heaviest first, divided by their fsum."""
        w = self._spectrum[0]
        w = w[w > _WEIGHT_DROP][::-1]
        return tuple((w / math.fsum(w)).tolist())

    @cached_property
    def vectors(self) -> np.ndarray:
        """Weight c's eigenvector spread over the rows, sum_a u[sector * width + a, c] basis[:, a],
        with its entries at or below _AMP_DROP dropped and the rest renormalized."""
        u, width = self._spectrum[1][:, ::-1][:, : self.rank], self.basis.shape[1]
        cols = (self.sector * width)[:, None] + np.arange(width)
        out = np.zeros((u.shape[1], len(self.bits)), dtype=np.complex128)
        for c, row in enumerate(out):
            spread = (u[cols, c] * self.basis).sum(axis=1)
            keep = np.abs(spread) > _AMP_DROP
            kept = spread[keep]
            row[keep] = kept / math.sqrt(float(np.vdot(kept, kept).real))
        out.setflags(write=False)
        return out

    @cached_property
    def eigenpairs(self) -> tuple[tuple[float, SparseState], ...]:
        """(weight, SparseState) pairs: those given, or each view row's nonzero entries."""
        return tuple((w, _frozen(SparseState, self.n_qubits, self.bits[row != 0], row[row != 0]))
                     for w, row in zip(self.weights, self.vectors))

    @property
    def rank(self) -> int:
        return len(self.weights)


State = SparseState | SpectralState


# ----------------------------------------------------------------------
# Hamiltonian spectrum and evolution
# ----------------------------------------------------------------------


def _turns(bits: np.ndarray, config: ChainConfig, params: PhysParams) -> list[float]:
    """gamma t (B0 + G f_i) modulo 4 pi per qubit, once bits fits the chain and each is finite."""
    if bits.shape[1] != config.n:
        raise LengthMismatch(f"state has {bits.shape[1]} qubits but chain has {config.n}")
    gbt = params.gamma * params.b0 * params.t
    ggt = params.gamma * params.grad * params.t
    phases = [gbt + ggt * fx for fx in config.f_array.tolist()]
    if not all(map(math.isfinite, phases)):  # inf, or inf - inf
        raise NumericOverflow(f"the evolution phase overflows float64 at n = {config.n}")
    return [math.remainder(phase, 4.0 * math.pi) for phase in phases]


# A support of fewer rows that is not full is summed on the per-qubit loop alone: there the
# row index and the table's small adds cost more than the passes they save.  Measured on
# evolve + parity_distribution of fresh Dicke states (one process, alternated, median of
# 150): the table was 4-18% slower on every support of 14 to 2002 rows (15% at 190 rows,
# Dicke n = 20, k = 2) and 6-8% faster at 3432 rows (Dicke n = 14, k = 7).
_TABLE_ROWS = 2048


def _prefix_width(s: int, n: int) -> int:
    """h, the leading qubits _excited_sums reads from its table on s rows of n qubits:
    n on a full support (2^n rows), floor(log2 s) from _TABLE_ROWS rows on, else 0."""
    if s == 1 << n:
        return n
    return s.bit_length() - 1 if s >= _TABLE_ROWS else 0


def _row_index(bits: np.ndarray, h: int) -> np.ndarray:
    """Each row's first h bits as a read-only intp, qubit 1 the most significant (h <= 32):
    the rows' prefixes, zero-padded on the left to 32 columns, packed into big-endian u4s."""
    padded = np.zeros((len(bits), 32), dtype=bool)
    padded[:, 32 - h :] = bits[:, :h]
    index = np.packbits(padded).view(">u4").astype(np.intp)
    index.setflags(write=False)
    return index


def _prefix_index(bits: np.ndarray) -> np.ndarray | None:
    """The row index _excited_sums gathers its table by (_row_index of _prefix_width bits),
    or None where it reads none: a full support is in index order, a small one has no table."""
    s, n = bits.shape
    h = _prefix_width(s, n)
    return _row_index(bits, h) if 0 < h < n else None


def _prefix_table(values: np.ndarray) -> np.ndarray:
    """(m, 2^h) sums of (m, h) per-qubit values over the excited qubits of every h-bit prefix,
    in index order, added in chain order from zero.  Qubit i doubles the prefixes so far in
    place: those at every 2^(h-i)-th column, each + v_i, go half a stride after it."""
    m, h = values.shape
    sums = np.zeros((m, 1 << h), dtype=values.dtype)
    for i, v in enumerate(values.T[:, :, None]):
        step = 1 << (h - i)
        np.add(sums[:, ::step], v, out=sums[:, step >> 1 :: step])
    return sums


def _excited_sums(bits: np.ndarray, values: np.ndarray,
                  index: np.ndarray | None = None) -> np.ndarray:
    """(m, s) sums of (m, n) per-qubit values over each ascending row's excited qubits,
    added in chain order from +0.0.  The first h = _prefix_width(s, n) qubits come from
    _prefix_table, gathered by each row's prefix (index, _prefix_index's, counted unless
    given): 2^h - 1 < s adds, and on a full support (h = n) the table is the sums.  Each
    of the n - h tail qubits' rows of one copy of bits.T then adds row * v_i; where it is
    unexcited that is +-0.0, which leaves a sum (never -0.0) as the table leaves it."""
    m, n = values.shape
    h = _prefix_width(len(bits), n)
    if h == n:
        return _prefix_table(values)
    if h:
        index = _row_index(bits, h) if index is None else index
        sums = np.take(_prefix_table(values[:, :h]), index, axis=1)
        bits, values = bits[:, h:], values[:, h:]
    else:
        sums = np.zeros((m, len(bits)))
    for row, v in zip(np.ascontiguousarray(bits.T), values.T[:, :, None]):
        sums += row * v
    return sums


def _evolution_terms(
    bits: np.ndarray, config: ChainConfig, params: PhysParams, k: np.ndarray | None = None,
    index: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Evolution phase and H_G eigenvalue lambda_I of each row of an ascending bit matrix.

    lambda_I = (1/2) sum_i (f_i - c) s_i + c (n/2 - k_I) with c = mean(f):
    the first term sees only the centred profile and the second vanishes on
    balanced strings.  The phase gamma t (B0 (n/2 - k_I) + G lambda_I) =
    (1/2) sum_i s_i gamma t (B0 + G f_i) sums per-qubit turns reduced
    modulo 4 pi, so it stays within n pi and is not rounded at the scale of
    a large f.  Both are half the all-qubit sum minus the sum over the
    excited qubits, one _excited_sums pass over the pair (turn_i, f_i - c).
    k, each row's excitation count, and index, _excited_sums' row index, are counted
    from bits unless given.
    """
    turns = _turns(bits, config, params)
    n, f = config.n, config.f_array.tolist()
    c = math.fsum(f) / n
    centred = [fx - c for fx in f]
    sums = _excited_sums(bits, np.array([turns, centred]), index)
    k = _excitations(bits) if k is None else k
    return 0.5 * math.fsum(turns) - sums[0], 0.5 * math.fsum(centred) - sums[1] + c * (0.5 * n - k)


def evolve(state: State, config: ChainConfig, params: PhysParams) -> State:
    """Apply the exact diagonal evolution exp(-i t H / hbar).

    Each amplitude on bitstring I picks up exp(-i phase(I)) with
    phase(I) = gamma*B0*t*(N/2 - k(I)) + gamma*G*t*lambda_I, the phase of
    _evolution_terms alone: one _excited_sums pass over the turns, by the state's
    prefix_index.  The evolution is diagonal, so a mixed state's sector columns are
    phased row by row and m is kept.
    """
    turns = _turns(state.bits, config, params)
    phase = 0.5 * math.fsum(turns) - _excited_sums(state.bits, np.array([turns]),
                                                   state.prefix_index)[0]
    re, im = np.cos(phase), -np.sin(phase)
    if isinstance(state, SparseState):
        return _frozen(SparseState, state.n_qubits, state.bits, _cmul(state.amps, re, im))
    return _frozen(SpectralState, state.n_qubits, state.bits, state.sector,
                   _cmul(state.basis, re[:, None], im[:, None]), state.m)


# ----------------------------------------------------------------------
# named probe states
# ----------------------------------------------------------------------

STATE_NAMES = ("ghz", "ghz-theta", "product", "odf", "dicke", "psi-m")

_SQRT_HALF = 1.0 / math.sqrt(2.0)


def make_named_state(name: str, n_qubits: int, *, k: int | None = None, m: int | None = None,
                     theta: float = 0.0) -> SparseState:
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
    if name in ("odf", "dicke", "psi-m"):
        label, value = ("m", m) if name == "psi-m" else ("k", k)
        if value is None:
            raise OutOfRange(f"{name} state requires {label}")
        if not 0 <= value <= n_qubits:
            raise OutOfRange(f"{label} must be in [0, {n_qubits}], got {value!r}")

    if name == "ghz" or (name == "psi-m" and m == 0):  # psi-m at m = 0 is the GHZ pair
        return _two_branch(n_qubits, n_qubits, 0)
    if name == "ghz-theta":
        if not math.isfinite(theta):
            raise NonFiniteCoordinate(f"theta must be finite, got {theta!r}")
        rel = complex(math.cos(theta), math.sin(theta)) * _SQRT_HALF
        return _two_branch(n_qubits, n_qubits, 0, rel)
    if name == "product":
        if (1 << n_qubits) > SPARSE_CAP or n_qubits > 20:
            raise SupportTooLarge(
                f"product state needs 2^{n_qubits} terms, above the sparse cap; "
                "use the closed-form paths instead"
            )
        amps = np.full(1 << n_qubits, 2.0 ** (-0.5 * n_qubits), complex)
        return _frozen(SparseState, n_qubits, _product_bits(n_qubits), amps)
    if name == "odf" and 0 < k < n_qubits:
        return _two_branch(n_qubits, k, k)
    if name == "psi-m":
        return _two_branch(n_qubits, m, n_qubits - m)
    # dicke, and odf at k = 0 or n, whose two branches are one bitstring
    count = math.comb(n_qubits, k)
    if count > SPARSE_CAP:
        raise SupportTooLarge(f"dicke state needs C({n_qubits},{k})={count} terms, "
                              "above the sparse cap")
    return _frozen(SparseState, n_qubits, _dicke_bits(n_qubits, k),
                   np.full(count, 1.0 / math.sqrt(count), complex))


def _two_branch(n: int, first: int, last: int, amp_first: complex = _SQRT_HALF) -> SparseState:
    """(|0..0 1^last> + amp_first * sqrt(2) |1^first 0..0>) / sqrt(2), last < n, first > 0."""
    bits = np.zeros((2, n), dtype=bool)
    bits[0, n - last :] = True
    bits[1, :first] = True
    return _frozen(SparseState, n, bits, np.array((_SQRT_HALF, amp_first), dtype=np.complex128))


def _dicke_bits(n: int, k: int) -> np.ndarray:
    """D(n, k), the C(n, k) weight-k rows ascending.  By the first excitation p, D(w, m) is
    blocks p = w - m..0 of 0^p 1 and the top C(w-1-p, m-1) rows of D(w-1, m-1), n wide and
    right-aligned: one flat copy and one strided column each.  k > n/2 flips D(n, n - k)."""
    if 2 * k > n:
        return ~_dicke_bits(n, n - k)[::-1]
    blocks = n - k + 1  # D(blocks, 1) is the anti-diagonal
    bits = (np.eye(blocks, n, n - blocks, dtype=bool)[::-1] if k
            else np.zeros((1, n), dtype=bool)).reshape(-1)
    sizes = [1] * blocks  # block i of level m has C(m - 1 + i, m - 1) rows
    for width in range(blocks + 1, n + 1):
        sizes = list(itertools.accumulate(sizes))
        out, start = np.empty(sum(sizes) * n, dtype=bool), 0
        for col, size in zip(range(n - width + blocks - 1, n - width - 1, -1), sizes):
            out[start : start + size * n] = bits[: size * n]
            out[start + col : start + size * n : n] = True
            start += size * n
        bits = out
    return bits.reshape(-1, n)


def _product_bits(n: int) -> np.ndarray:
    """All 2^n bitstrings in ascending order, as a (2^n, n) bit matrix (n <= 32)."""
    index = (np.arange(1 << n, dtype=np.uint32) << np.uint32(32 - n)).astype(">u4")
    return np.unpackbits(index.view(np.uint8).reshape(-1, 4), axis=1, count=n).view(bool)


# ----------------------------------------------------------------------
# mixed states on excitation sectors (built by the noise channel, the Monte
# Carlo average and the twirl)
# ----------------------------------------------------------------------

# Eigenvalues of a coefficient matrix in [-NEG_EVAL_TOL, _WEIGHT_DROP] are
# numerical noise and are left out of the views; anything more negative is a
# real positivity violation and raises.
NEG_EVAL_TOL = 1e-10
_WEIGHT_DROP = 1e-14
_AMP_DROP = 1e-14


def _sector_spectral(
    n_qubits: int, bits: np.ndarray, amps: np.ndarray, decay: Sequence[complex]
) -> SpectralState:
    """rho = sum_kl decay[l - k] sqrt(p_k p_l) |e_k><e_l| of a pure vector.

    The vector (amps over the ascending rows bits, rows with |amp|^2 = 0 left
    out) splits into unit sector vectors e_k with masses p_k, one per occupied
    excitation count k; decay[dk] multiplies the coherence between sectors dk
    apart and is conjugated for l < k.  The state keeps each row's entry of
    its e_k and M_kl = decay[l - k] sqrt(p_k p_l), r x r with r <= n + 1.
    """
    prob = amps.real**2 + amps.imag**2
    kept = prob != 0  # so every kept row's sector has a mass
    if not kept.all():
        bits, amps, prob = bits[kept], amps[kept], prob[kept]
    k = _excitations(bits)
    mass = np.bincount(k, weights=prob, minlength=n_qubits + 1)
    occupied = np.flatnonzero(mass)
    root = np.sqrt(mass[occupied])
    gap = occupied[None, :] - occupied[:, None]  # l - k
    factor = np.asarray(decay)[np.abs(gap)]
    m = np.where(gap >= 0, factor, np.conj(factor)) * np.outer(root, root)
    scale = np.zeros(n_qubits + 1)
    scale[occupied] = 1.0 / root
    unit = amps * scale[k]  # each row's entry of its sector's e_k
    sector = (np.cumsum(mass > 0) - 1)[k]  # its index among the occupied sectors
    state = _frozen(SpectralState, n_qubits, bits, sector, unit[:, None], m)
    state.__dict__["excitations"] = k  # counted here already
    state._spectrum  # M's one eigh: refuses an M that is not positive, kept for the QFI
    return state
