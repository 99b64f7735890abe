"""Measurement statistics and estimator precision.

Two POVMs: the x-basis parity sigma_x^(x)N (two outcomes, +1/-1) and the
projective J_x measurement (N+1 outcomes).  Parity is the coarse-graining
of J_x by outcome sign, so its classical Fisher information never exceeds
the J_x one; both saturate the quantum bound for the GHZ and balanced
two-branch probes.

Probabilities and their analytic d/dG derivatives come from the same
evolved amplitudes: every amplitude carries exp(-i phase(I)) with
d phase / dG = gamma t lambda_I, so derivatives are exact (no finite
differences anywhere outside the test suite).  phase(I) and lambda_I come
from core._evolution_terms on the state's bit matrix, the rule evolve
uses, so a readout and the evolved state agree digit for digit even on
chains far from x0.  Both read a mixed state on its sector columns, never its
eigen-views.  Parity pairs each row with its complement: with no row when no
excitation count k occurs with N - k (0, with no phase computed), row s - 1 - I
on a complement-closed support (product, GHZ, balanced Dicke), else by one
search of every row's complement among the rows' byte-string keys, at any N.
J_x scatters each column into a dense 2^N row, so it is capped at N = 12.  A
distribution the library computes that fails its own sum checks raises
SelfCheckFailed, not the OutOfRange a user-built one gets.

Note on two-branch states: sigma_x^(x)N connects a bitstring only to its
complement, so an unbalanced two-branch state (k excitations vs k
mirrored, k != N/2) has parity expectation exactly 0; only the balanced
k = N/2 probe (and GHZ) gives the cosine signal and bound-saturating
parity statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (ChainConfig, PhysParams, SparseState, State, _cmul, _evolution_terms, _fsum,
                   _keys, _prefix_table, _prefix_width, _row_index)
from .errors import DimensionTooLarge, FlatResponse, LengthMismatch, OutOfRange, SelfCheckFailed
from .qfi import FisherReport, _seq_sum

_P_FLOOR = 1e-15
_DP_FLOOR = 1e-12
# J_x readout builds dense 2^n vectors, so it is capped here.
_DENSE_CAP_QUBITS = 12


@dataclass(frozen=True)
class OutcomeDistribution:
    """Measurement outcomes: (label, probability, d probability / dG)."""

    outcomes: tuple[tuple[str, float, float], ...]

    def __post_init__(self):
        cleaned = []
        total_p = 0.0
        total_dp = 0.0
        abs_dp = 0.0
        for label, p, dp in self.outcomes:
            p = float(p)
            dp = float(dp)
            if p < 0.0:
                if p < -1e-12:
                    raise OutOfRange(f"outcome {label!r} has probability {p!r} < 0")
                p = 0.0
            cleaned.append((str(label), p, dp))
            total_p += p
            total_dp += dp
            abs_dp += abs(dp)
        if not abs(total_p - 1.0) <= 1e-12:  # NaN fails too
            raise OutOfRange(f"probabilities sum to {total_p!r}, expected 1 within 1e-12")
        # the derivatives cancel only to rounding of their own scale
        bound = 1e-10 * max(1.0, abs_dp)
        if not abs(total_dp) <= bound:
            raise OutOfRange(f"derivatives sum to {total_dp!r}, expected 0 within {bound:g}")
        object.__setattr__(self, "outcomes", tuple(cleaned))

    @property
    def probabilities(self) -> tuple[float, ...]:
        return tuple(p for _, p, _ in self.outcomes)

    @property
    def derivatives(self) -> tuple[float, ...]:
        return tuple(dp for _, _, dp in self.outcomes)


def _complement_rows(bits: np.ndarray) -> tuple[np.ndarray | slice, np.ndarray | slice]:
    """Rows of an ascending bit matrix whose complement is a row too, ascending, and that
    row: on a complement-closed support (a full one is, by construction) row I meets row
    s - 1 - I, as two slices; otherwise each row's complement is searched among the rows'
    byte-string keys."""
    if len(bits) == 1 << bits.shape[1] or (bits[::-1] != bits).all():  # reversed by complement
        return slice(None), slice(None, None, -1)
    keys, flipped = _keys(bits), _keys(~bits)
    at = np.minimum(np.searchsorted(keys, flipped), len(keys) - 1)
    paired = np.flatnonzero(keys[at] == flipped)
    return paired, at[paired]


def _reversed_by_complement(state: State) -> bool:
    """Whether each row I's complement is row s - 1 - I: rows 0 and s - 1, then the state's
    kept row index (False where it keeps none), then the tail columns."""
    bits = state.bits
    if not (bits[0] != bits[-1]).all() or state.prefix_index is None:
        return False
    h = _prefix_width(*bits.shape)
    return bool((state.prefix_index[::-1] + state.prefix_index == (1 << h) - 1).all()
                and all((col[::-1] != col).all() for col in bits.T[h:]))


def _parity_value_and_gradient(
    state: State, config: ChainConfig, params: PhysParams
) -> tuple[float, float]:
    """(<sigma_x^(x)N>, d/dG of it) on the evolved state, in one pass over the rows.

    The contraction pairs each bitstring with its complement: <X^N> is the sum
    of rho'_{I, comp(I)} = a'_I conj(a'_comp(I)), or sum_ab q'_a(I) m[a, b]
    conj(q'_b(comp(I))) on a mixed state's sector columns; differentiating the
    evolution phases gives the exact gradient term -2i gamma t lambda_I per pair.
    With no rows of counts k and n - k both, no row has a complement: (0.0, 0.0), no phase.
    """
    if state.n_qubits != config.n:
        raise LengthMismatch(f"state has {state.n_qubits} qubits but chain has {config.n}")
    bits, closed = state.bits, _reversed_by_complement(state)
    if not closed and len(bits) < 1 << state.n_qubits:  # else every row has a complement
        present = np.bincount(state.excitations, minlength=state.n_qubits + 1) > 0
        if not (present & present[::-1]).any():
            return 0.0, 0.0
    gt = params.gamma * params.t
    phase, lam = _evolution_terms(bits, config, params, state.excitations, state.prefix_index)
    re, im = np.cos(phase), -np.sin(phase)
    paired, at = (slice(None), slice(None, None, -1)) if closed else _complement_rows(bits)
    if isinstance(state, SparseState):
        amps = _cmul(state.amps, re, im)
        partner, amps = amps[at], amps[paired]
        term = _cmul(amps, partner.real, -partner.imag)
    else:
        width = state.basis.shape[1]
        q = _cmul(state.basis, re[:, None], im[:, None])
        row, col = state.sector[paired] * width, state.sector[at] * width
        term = 0.0
        for a, b in np.ndindex(width, width):
            coef, other = state.m[row + a, col + b], q[at, b]
            term = term + _cmul(_cmul(q[paired, a], coef.real, coef.imag), other.real, -other.imag)
    # the real part of _cmul(term, 0.0, -2 gt lambda), rounded as _cmul rounds it
    dterm = term.real * 0.0 - term.imag * ((-2.0 * gt) * lam[paired])
    return _seq_sum(term.real), _seq_sum(dterm)


def parity_expectation(state: State, config: ChainConfig, params: PhysParams) -> float:
    """<sigma_x^(x)N> on the evolved state (noise-averaged if spectral).

    Reproduces the closed forms: cos[N gamma B0 t + gamma G t sum f] for
    GHZ, the same with +theta and a d(t) prefactor for the dephased
    GHZ_theta, and cos[gamma G t * pair sum] (offset-free) for the
    balanced two-branch probe.
    """
    return _parity_value_and_gradient(state, config, params)[0]


def parity_distribution(state: State, config: ChainConfig,
                        params: PhysParams) -> OutcomeDistribution:
    """Two-outcome parity statistics p(+/-1) = (1 +/- <X^N>)/2 with exact dG derivatives."""
    return _parity_outcomes(*_parity_value_and_gradient(state, config, params))


def _parity_outcomes(value: float, grad: float) -> OutcomeDistribution:
    return _computed_distribution(
        (("+1", 0.5 * (1.0 + value), 0.5 * grad), ("-1", 0.5 * (1.0 - value), -0.5 * grad))
    )


def _computed_distribution(outcomes) -> OutcomeDistribution:
    """A distribution the library computed: a failed sum check is its own fault."""
    try:
        return OutcomeDistribution(outcomes)
    except OutOfRange as exc:
        raise SelfCheckFailed(f"readout failed its consistency check: {exc}") from exc


def classical_fisher(dist: OutcomeDistribution) -> FisherReport:
    """Classical Fisher information sum_j (dp_j)^2 / p_j of a distribution.

    Outcomes with p < 1e-15 and |dp| < 1e-12 are skipped (empty outcomes).
    An outcome with p < 1e-15 but real derivative weight makes the FI
    formally divergent; that is reported as value = inf with the
    divergent flag set (the Cramer-Rao variance bound collapses to 0).
    """
    total = 0.0
    for _, p, dp in dist.outcomes:
        if not p < _P_FLOOR:
            total += dp * dp / p
        elif abs(dp) >= _DP_FLOOR:
            return FisherReport(math.inf, "closed-form:cfi", divergent=True)
    return FisherReport(total, "closed-form:cfi")


def _walsh_hadamard(block: np.ndarray) -> np.ndarray:
    """Orthonormal H^(x)n along the first axis (2^n long) of a contiguous array, in place:
    butterflies on index pairs (i, i + h), h = 1, 2, 4, ..., then / sqrt(2^n).  Returns it."""
    size, h = len(block), 1
    while h < size:
        low, high = block.reshape(size // (2 * h), 2, -1).swapaxes(0, 1)  # rows I, I + h
        diff = low - high
        low += high
        high[...] = diff
        h *= 2
    block /= math.sqrt(size)
    return block


def _basis_excitations(n_qubits: int) -> np.ndarray:
    """k(I), the set bits of every dense basis index I: the prefix table of ones at h = n."""
    if n_qubits > _DENSE_CAP_QUBITS:
        raise DimensionTooLarge(f"J_x distribution needs n <= {_DENSE_CAP_QUBITS}, got {n_qubits}")
    return _prefix_table(np.ones((1, n_qubits), dtype=np.intp))[0]


def jx_distribution(
    state: State, config: ChainConfig, params: PhysParams
) -> OutcomeDistribution:
    """Projective J_x statistics: outcomes labeled by eigenvalue N/2 - k.

    The evolved columns q_g of rho = sum_gh m_gh |q_g><q_h| (pure: one column, m = [[1]])
    go to the x basis as X_g, and -i gamma t mu q_g as Y_g, lambda = kappa_g + mu with
    kappa_g lambda on the first nonzero row of g's sector.  Grouped by the count of |->:
    p = Re sum m_gh X_g conj X_h, dp = 2 Re sum m_gh Y_g conj X_h + gamma t sum (kappa_g
    - kappa_h) Im(m_gh X_g conj X_h): a coherence of m stays a factor, and lambda's large
    constant far from x0 enters only as kappa_g - kappa_h.  Needs n <= the dense cap.
    """
    n, gt = state.n_qubits, params.gamma * params.t
    counts = _basis_excitations(n)
    phase, lam = _evolution_terms(state.bits, config, params, state.excitations,
                                  state.prefix_index)
    if isinstance(state, SparseState):
        sector, basis, m = np.zeros(len(lam), np.intp), state.amps[:, None], np.ones((1, 1))
    else:
        sector, basis, m = state.sector, state.basis, state.m
    width = basis.shape[1]
    first = np.argmax((np.arange(len(m) // width)[:, None] == sector) & basis.any(axis=1), axis=1)
    q = _cmul(basis, np.cos(phase)[:, None], -np.sin(phase)[:, None])
    index = _row_index(state.bits, n)  # qubit 1 is the most significant bit
    at = (index[:, None], (sector * width)[:, None] + np.arange(width))  # (index, column)
    block = np.zeros((1 << n, 2, len(m)), dtype=np.complex128)  # (index, X or Y, column)
    block[:, 0][at], block[:, 1][at] = q, _cmul(q, 0.0, -gt * (lam - lam[first][sector])[:, None])
    x, y = _walsh_hadamard(block).swapaxes(0, 1)
    kappa = np.repeat(lam[first], width)
    z, w = x @ m, x @ ((kappa[:, None] - kappa) * m)
    p = (z.real * x.real + z.imag * x.imag).sum(axis=1)  # |x|^2 bit for bit if z = x (pure)
    dp = 2.0 * (z.conj() * y).real.sum(axis=1) + gt * (w * x.conj()).imag.sum(axis=1)
    probs, derivs = (np.bincount(counts, weights=v, minlength=n + 1) for v in (p, dp))
    return _computed_distribution(
        tuple((f"{0.5 * n - k:g}", float(probs[k]), float(derivs[k])) for k in range(n + 1))
    )


def error_propagation(state: State, config: ChainConfig, params: PhysParams) -> float:
    """Single-shot estimator variance (error propagation) at this operating point:

    Delta^2 G = (<M^2> - <M>^2) / (d<M>/dG)^2 with <M^2> = 1 for parity.

    No automatic phase steering happens: the operating point is exactly
    the supplied (B0, G, t, theta).  For the dephased GHZ_theta probe
    this reproduces {1 + [1 - d^2] cot^2 alpha} / [d gamma t sum f]^2,
    which collapses to 1/QFI at the cot(alpha) = 0 point.
    """
    value, grad = _parity_value_and_gradient(state, config, params)
    variance = _propagated_variance(value, grad)
    if variance is None:
        raise FlatResponse(
            f"parity response d<M>/dG = {grad!r} is flat at this operating point"
        )
    return variance


def _propagated_variance(value: float, grad: float) -> float | None:
    """(1 - <M>^2) / (d<M>/dG)^2 for parity, or None when |d<M>/dG| <= 1e-15."""
    if not abs(grad) > 1e-15:
        return None
    return (1.0 - value * value) / (grad * grad)


def theta_for_saturation(config: ChainConfig, params: PhysParams) -> float:
    """The GHZ_theta phase putting the parity fringe at its steepest point.

    Solves cot(alpha) = 0 with alpha = N gamma B0 t + gamma G t sum f + theta,
    i.e. theta = pi/2 - N gamma B0 t - gamma G t sum f.  Intended for
    tests and demonstrations; in the field alpha is not known a priori.
    """
    base = (config.n * params.gamma * params.b0 * params.t
            + params.gamma * params.grad * params.t * _fsum(config.f_array))
    return 0.5 * math.pi - base
