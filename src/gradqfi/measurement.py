"""Measurement statistics and estimator precision.

Two POVMs: the x-basis parity sigma_x^(x)N (two outcomes, +1/-1) and the
projective J_x measurement (N+1 outcomes).  Parity is the coarse-graining
of J_x by outcome sign, so its classical Fisher information never exceeds
the J_x one; both saturate the quantum bound for the GHZ and balanced
two-branch probes.

Probabilities and their analytic d/dG derivatives come from the same
evolved amplitudes: every amplitude carries exp(-i phase(I)) with
d phase / dG = gamma t lambda_I, so derivatives are exact (no finite
differences anywhere outside the test suite).

Note on two-branch states: sigma_x^(x)N connects a bitstring only to its
complement, so an unbalanced two-branch state (k excitations vs k
mirrored, k != N/2) has parity expectation exactly 0; only the balanced
k = N/2 probe (and GHZ) gives the cosine signal and bound-saturating
parity statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .core import (
    ORACLE_CAP_QUBITS,
    ChainConfig,
    PhysParams,
    SparseState,
    State,
    basis_excitations,
    bit_complement,
)
from .errors import DimensionTooLarge, FlatResponse, LengthMismatch, OutOfRange
from .qfi import FisherReport

_P_FLOOR = 1e-15
_DP_FLOOR = 1e-12
# bitstring bytes -> 0/1 per qubit, the selectors of itertools.compress
_EXCITED = bytes.maketrans(b"01", b"\x00\x01")


@dataclass(frozen=True)
class OutcomeDistribution:
    """Measurement outcomes: (label, probability, d probability / dG)."""

    outcomes: tuple[tuple[str, float, float], ...]

    def __post_init__(self):
        cleaned = []
        total_p = 0.0
        total_dp = 0.0
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
        if abs(total_p - 1.0) > 1e-12:
            raise OutOfRange(f"probabilities sum to {total_p!r}, expected 1 within 1e-12")
        if abs(total_dp) > 1e-10:
            raise OutOfRange(f"derivatives sum to {total_dp!r}, expected 0 within 1e-10")
        object.__setattr__(self, "outcomes", tuple(cleaned))

    @property
    def probabilities(self) -> tuple[float, ...]:
        return tuple(p for _, p, _ in self.outcomes)

    @property
    def derivatives(self) -> tuple[float, ...]:
        return tuple(dp for _, _, dp in self.outcomes)


def _evolved_amplitudes(
    vec: SparseState, config: ChainConfig, params: PhysParams
) -> tuple[dict[str, complex], dict[str, float]]:
    """Evolved amplitude and generator eigenvalue per support bitstring.

    Chains far from x0 keep their digits in both.  lambda_I is taken as
    (1/2) sum_i (f_i - c) s_i + c (n/2 - k_I) with c = mean(f): the first
    term sees only the centred profile and the second vanishes on balanced
    strings.  The phase (1/2) sum_i s_i (gamma B0 t + gamma G t f_i) sums
    per-qubit phases reduced modulo 4 pi, so it stays within n pi and is
    not rounded at the scale of a large f.  Each sum is half the sum over
    all qubits minus the sum over the excited ones.
    """
    gbt = params.gamma * params.b0 * params.t
    ggt = params.gamma * params.grad * params.t
    n = vec.n_qubits
    c = math.fsum(config.f_values) / n
    centred = [fx - c for fx in config.f_values]
    turns = [math.remainder(gbt + ggt * fx, 4.0 * math.pi) for fx in config.f_values]
    lam_all = 0.5 * math.fsum(centred)
    phase_all = 0.5 * math.fsum(turns)
    amps: dict[str, complex] = {}
    lams: dict[str, float] = {}
    for bits, amp in vec.terms:
        excited = bits.encode("ascii").translate(_EXCITED)
        phase = phase_all - sum(compress(turns, excited))
        amps[bits] = amp * complex(math.cos(phase), -math.sin(phase))
        lams[bits] = (
            lam_all - sum(compress(centred, excited)) + c * (0.5 * n - bits.count("1"))
        )
    return amps, lams


def _parity_value_and_gradient(
    state: State, config: ChainConfig, params: PhysParams
) -> tuple[float, float]:
    """(<sigma_x^(x)N>, d/dG of it) on the evolved state.

    The contraction pairs each bitstring with its complement:
    <X^N> = sum_I conj(a'_comp(I)) a'_I; differentiating the evolution
    phases gives the exact gradient term -2i gamma t lambda_I per pair.
    """
    if state.n_qubits != config.n:
        raise LengthMismatch(
            f"state has {state.n_qubits} qubits but chain has {config.n}"
        )
    gt = params.gamma * params.t
    value = 0.0
    grad = 0.0
    for weight, vec in state.eigenpairs:
        amps, lams = _evolved_amplitudes(vec, config, params)
        v = 0j
        g = 0j
        for bits, amp in amps.items():
            partner = amps.get(bit_complement(bits))
            if partner is None:
                continue
            term = partner.conjugate() * amp
            v += term
            g += term * complex(0.0, -2.0 * gt * lams[bits])
        value += weight * v.real
        grad += weight * g.real
    return value, grad


def parity_expectation(state: State, config: ChainConfig, params: PhysParams) -> float:
    """<sigma_x^(x)N> on the evolved state (noise-averaged if spectral).

    Reproduces the closed forms: cos[N gamma B0 t + gamma G t sum f] for
    GHZ, the same with +theta and a d(t) prefactor for the dephased
    GHZ_theta, and cos[gamma G t * pair sum] (offset-free) for the
    balanced two-branch probe.
    """
    value, _ = _parity_value_and_gradient(state, config, params)
    return value


def parity_distribution(
    state: State, config: ChainConfig, params: PhysParams
) -> OutcomeDistribution:
    """Two-outcome parity statistics p(+/-1) = (1 +/- <X^N>)/2 with exact dG derivatives."""
    value, grad = _parity_value_and_gradient(state, config, params)
    return OutcomeDistribution(
        (
            ("+1", 0.5 * (1.0 + value), 0.5 * grad),
            ("-1", 0.5 * (1.0 - value), -0.5 * grad),
        )
    )


def classical_fisher(dist: OutcomeDistribution) -> FisherReport:
    """Classical Fisher information sum_j (dp_j)^2 / p_j of a distribution.

    Outcomes with p < 1e-15 and |dp| < 1e-12 are skipped (empty outcomes).
    An outcome with p < 1e-15 but real derivative weight makes the FI
    formally divergent; that is reported as value = inf with the
    divergent flag set (the Cramer-Rao variance bound collapses to 0).
    """
    total = 0.0
    divergent = False
    for _, p, dp in dist.outcomes:
        if p < _P_FLOOR:
            if abs(dp) >= _DP_FLOOR:
                divergent = True
            continue
        total += dp * dp / p
    if divergent:
        return FisherReport(math.inf, "closed-form:cfi", divergent=True)
    return FisherReport(total, "closed-form:cfi")


def _walsh_hadamard(vec: np.ndarray) -> np.ndarray:
    """Orthonormal Hadamard transform H^(x)n applied to a dense 2^n vector."""
    out = vec.copy()
    dim = out.shape[0]
    h = 1
    while h < dim:
        out = out.reshape(-1, 2 * h)
        left = out[:, :h].copy()
        right = out[:, h:]
        out[:, :h] = left + right
        out[:, h:] = left - right
        out = out.reshape(dim)
        h *= 2
    return out / math.sqrt(dim)


def jx_distribution(
    state: State, config: ChainConfig, params: PhysParams
) -> OutcomeDistribution:
    """Projective J_x statistics: outcomes labeled by eigenvalue N/2 - k.

    Transforms the evolved dense vector(s) into the x basis with a
    Walsh-Hadamard transform and groups probability (and its analytic dG
    derivative) by the number of |-> factors.  Needs n <= the dense cap.
    """
    n = state.n_qubits
    if n != config.n:
        raise LengthMismatch(f"state has {n} qubits but chain has {config.n}")
    if n > ORACLE_CAP_QUBITS:
        raise DimensionTooLarge(
            f"J_x distribution needs n <= {ORACLE_CAP_QUBITS}, got {n}"
        )
    gt = params.gamma * params.t
    counts = basis_excitations(n)
    probs = np.zeros(n + 1, dtype=np.float64)
    derivs = np.zeros(n + 1, dtype=np.float64)
    for weight, vec in state.eigenpairs:
        amps, lams = _evolved_amplitudes(vec, config, params)
        dense = np.zeros(1 << n, dtype=np.complex128)
        ddense = np.zeros(1 << n, dtype=np.complex128)
        for bits, amp in amps.items():
            idx = int(bits, 2)
            dense[idx] = amp
            ddense[idx] = amp * complex(0.0, -gt * lams[bits])
        x_amp = _walsh_hadamard(dense)
        x_damp = _walsh_hadamard(ddense)
        p = x_amp.real**2 + x_amp.imag**2
        dp = 2.0 * (x_amp.conj() * x_damp).real
        probs += weight * np.bincount(counts, weights=p, minlength=n + 1)
        derivs += weight * np.bincount(counts, weights=dp, minlength=n + 1)
    outcomes = tuple(
        (f"{0.5 * n - k:g}", float(probs[k]), float(derivs[k])) for k in range(n + 1)
    )
    return OutcomeDistribution(outcomes)


def error_propagation(
    state: State,
    config: ChainConfig,
    params: PhysParams,
) -> float:
    """Single-shot estimator variance (error propagation) at this operating point:

    Delta^2 G = (<M^2> - <M>^2) / (d<M>/dG)^2 with <M^2> = 1 for parity.

    No automatic phase steering happens: the operating point is exactly
    the supplied (B0, G, t, theta).  For the dephased GHZ_theta probe
    this reproduces {1 + [1 - d^2] cot^2 alpha} / [d gamma t sum f]^2,
    which collapses to 1/QFI at the cot(alpha) = 0 point.
    """
    value, grad = _parity_value_and_gradient(state, config, params)
    if abs(grad) <= 1e-15:
        raise FlatResponse(
            f"parity response d<M>/dG = {grad!r} is flat at this operating point"
        )
    return (1.0 - value * value) / (grad * grad)


def theta_for_saturation(config: ChainConfig, params: PhysParams) -> float:
    """The GHZ_theta phase putting the parity fringe at its steepest point.

    Solves cot(alpha) = 0 with alpha = N gamma B0 t + gamma G t sum f + theta,
    i.e. theta = pi/2 - N gamma B0 t - gamma G t sum f.  Intended for
    tests and demonstrations; in the field alpha is not known a priori.
    """
    base = (
        config.n * params.gamma * params.b0 * params.t
        + params.gamma * params.grad * params.t * float(sum(config.f_values))
    )
    return 0.5 * math.pi - base
