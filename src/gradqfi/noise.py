"""Collective phase noise: analytic decay, channel, twirl, and Monte Carlo.

The chain sees a fluctuating global field that couples through J_z with
stationary Gaussian statistics and exponentially decaying correlation
<dE(t) dE(0)> = delta_e^2 exp(-t/tau_c) (an Ornstein-Uhlenbeck process).
The accumulated random phase delta_phi = gamma' * integral dE dt is then
Gaussian with variance gamma'^2 C(t), so averaging over realizations
multiplies each density-matrix element rho_IJ by a coherence factor that
depends only on the excitation difference |k(I) - k(J)|.

So the channel, the twirl and the Monte Carlo average build their output
on excitation sectors: for a pure input only an r x r matrix, one row per
occupied sector, is diagonalized (core._sector_spectral), and its r
eigenvectors become, one at a time, the dense rows of an r x s matrix over
the input's s rows: rank r <= n + 1 at a cost of O(r s).

Monte Carlo here is an oracle for the analytic channel: each trajectory
takes one exact joint-Gaussian step of (dE, integral dE) from a stationary
dE(0) to t, built from the OU transition moments rather than from C(t),
so there is no discretization bias, convergence tests isolate sampling
error, and a trajectory costs three normals at any t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ChainConfig, PhysParams, SparseState, SpectralState, State, _excitations, _frozen,
    _kept_spectrum, _sector_spectral, _spectral_rows, evolve,
)
from .errors import NegativeTime, OutOfRange, ZeroTrajectories

# Monte Carlo trajectories are processed in fixed-size chunks; the chunk
# size is part of the determinism contract (per-chunk partial sums are
# combined in fixed order), so never derive it from worker counts.
MC_CHUNK = 8192


@dataclass(frozen=True)
class NoiseModel:
    """Noise coupling gamma', fluctuation strength delta_e, correlation time tau_c."""

    gamma_prime: float
    delta_e: float
    tau_c: float

    def __post_init__(self):
        for name in ("gamma_prime", "delta_e", "tau_c"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise OutOfRange(f"{name} must be finite, got {value!r}")
        if self.gamma_prime < 0:
            raise OutOfRange(f"gamma_prime must be >= 0, got {self.gamma_prime!r}")
        if self.delta_e < 0:
            raise OutOfRange(f"delta_e must be >= 0, got {self.delta_e!r}")
        if self.tau_c <= 0:
            raise OutOfRange(f"tau_c must be > 0, got {self.tau_c!r}")

    @classmethod
    def from_params(cls, params: PhysParams) -> "NoiseModel":
        return cls(params.gamma_prime, params.delta_e, params.tau_c)


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Monte Carlo ensemble settings.

    Streams are counter-based: trajectory i's draws depend only on
    (seed, i), so results are independent of chunking and execution order.
    """

    n_traj: int
    seed: int = 0

    def __post_init__(self):
        if self.n_traj < 1:
            raise ZeroTrajectories(f"n_traj must be >= 1, got {self.n_traj!r}")
        if not 0 <= self.seed < (1 << 64):
            raise OutOfRange(f"seed must fit in 64 bits, got {self.seed!r}")


# ----------------------------------------------------------------------
# analytic decay
# ----------------------------------------------------------------------


def correlation_integral(model: NoiseModel, t: float) -> float:
    """Variance of integral dE dtau over [0, t]:

    C(t) = 2 (delta_e tau_c)^2 (e^{-t/tau_c} + t/tau_c - 1).

    Accepts t = inf (C diverges linearly, so the limit is inf).
    """
    if t < 0 or math.isnan(t):
        raise NegativeTime(f"t must be >= 0, got {t!r}")
    if model.delta_e == 0.0 or t == 0.0:
        return 0.0
    s = t / model.tau_c
    scale = model.delta_e * model.tau_c
    return 2.0 * scale * scale * (math.expm1(-s) + s)


def coherence_factor(model: NoiseModel, t: float, weight: int | float) -> float:
    """Decay of a coherence whose J_z eigenvalues differ by `weight`:

    exp[-(1/2) (gamma' * weight)^2 C(t)].

    weight is N for the GHZ coherence, |N - 2m| for the flipped-block
    states, and |k(I) - k(J)| in general; weight 0 (a decoherence-free
    coherence) gives exactly 1 for every t.
    """
    if t < 0 or math.isnan(t):
        raise NegativeTime(f"t must be >= 0, got {t!r}")
    w = model.gamma_prime * float(weight)
    if w == 0.0:
        return 1.0
    c = correlation_integral(model, t)
    if c == 0.0:
        return 1.0
    return math.exp(-0.5 * w * w * c)


# ----------------------------------------------------------------------
# averaged channel and steady-state twirl
# ----------------------------------------------------------------------


def apply_channel(state: SparseState, model: NoiseModel, t: float) -> SpectralState:
    """Average over noise realizations at time t (no gradient encoding).

    Multiplies rho_IJ by coherence_factor(|k_I - k_J|).  The output is
    built on the input's excitation sectors (core._sector_spectral), so its
    rank is at most the number of occupied sectors.  t = inf gives the
    steady state (all cross-sector coherences gone).
    """
    if not isinstance(state, SparseState):
        raise OutOfRange("apply_channel takes a pure SparseState input")
    decay = [coherence_factor(model, t, dk) for dk in range(state.n_qubits + 1)]  # checks t
    return _sector_spectral(state.n_qubits, state.bits, state.amps, decay)


def steady_twirl(state: State) -> SpectralState:
    """Project onto the excitation sectors (the t -> infinity dephasing limit).

    Removes every coherence between different J_z sectors; the output
    commutes with J_z exactly (each eigenvector lives in one sector), and
    its rank is at most the number of occupied sectors times the input's
    rank.  A pure input keeps one vector per sector.  For a mixture, the
    sector columns of the eigenvector rows that touch the sector are the
    columns of A = QR (thin QR), so the sector block A W A^dagger is
    R W R^dagger over the orthonormal columns of Q, and only that small
    matrix is diagonalized.  Idempotent: twirling a twirled state returns
    it unchanged.
    """
    n = state.n_qubits
    if len(state.weights) == 1:
        return _sector_spectral(n, state.bits, state.vectors[0], [1.0] + [0.0] * n)
    k = _excitations(state.bits)
    blocks, kept = [], []  # per occupied sector: its columns, Q and the kept eigenvectors
    for sector in np.flatnonzero(np.bincount(k)).tolist():
        cols = np.flatnonzero(k == sector)
        part = state.vectors[:, cols]
        present = (part != 0).any(axis=1)  # the eigenvectors that reach the sector
        if present.any():
            q, r = np.linalg.qr(part[present].T)
            w, u = _kept_spectrum((r * np.array(state.weights)[present]) @ r.conj().T)
            blocks.append((cols, q, u))
            kept += w.tolist()
    rows = ((cols, q @ u[:, c]) for cols, q, u in blocks for c in range(u.shape[1]))
    return _spectral_rows(n, state.bits, kept, rows)


# ----------------------------------------------------------------------
# Monte Carlo trajectory oracle
# ----------------------------------------------------------------------


def _char_function(
    seed: int, n_traj: int, t: float, model: NoiseModel,
    gamma_prime: float, n_qubits: int,
) -> np.ndarray:
    """E[exp(-i delta_phi * dk)] for dk = 0..n_qubits, over n_traj trajectories.

    delta_phi = gamma' * Y_t with Y_t the integral of the OU process X over
    [0, t].  Each trajectory takes one exact step from a stationary X_0:
    given X_0, the pair (X_t, Y_t) is jointly Gaussian with mean
    (phi X_0, tau (1 - phi) X_0), phi = e^{-t/tau}, and the exact
    transition covariance (Gillespie, Phys. Rev. E 54, 2084 (1996)), so
    the estimate has no discretization bias at any t.  Y_t is drawn from
    the Cholesky factor of that covariance; X_t itself is never needed.
    Trajectory i reads one Philox counter, four uniforms, at counter i and
    forms by Box-Muller only the three normals it uses (X_0, the X_t noise,
    the Y_t noise), so the stream layout does not depend on t and the
    result does not depend on chunking.
    """
    tau = model.tau_c
    sig2 = model.delta_e * model.delta_e
    s = t / tau
    em1 = math.expm1(-s)          # phi - 1  (negative)
    em2 = math.expm1(-2.0 * s)
    var_x = -sig2 * em2
    cov_xy = sig2 * tau * em1 * em1
    var_y = sig2 * tau * tau * (2.0 * s + 4.0 * em1 - em2)
    a = math.sqrt(var_x)
    b = cov_xy / a if a > 0.0 else 0.0
    c = math.sqrt(max(var_y - b * b, 0.0))
    drift = -tau * em1            # tau (1 - phi)

    acc = np.zeros(n_qubits + 1, dtype=np.complex128)
    for lo in range(0, n_traj, MC_CHUNK):
        hi = min(lo + MC_CHUNK, n_traj)
        bitgen = np.random.Philox(key=seed)
        bitgen.advance(lo)        # one counter (four outputs) per trajectory
        u = np.random.Generator(bitgen).random((hi - lo, 4), dtype=np.float64)
        # Box-Muller on the pairs (u0, u1) and (u2, u3) without r0 sin(a0), which
        # nothing reads; a column is read strided once, by the negation or the
        # 2 pi product, so log1p, sqrt, cos and sin run on contiguous vectors
        r1 = np.sqrt(-2.0 * np.log1p(-u[:, 2]))
        a1 = (2.0 * math.pi) * u[:, 3]
        z0 = np.sqrt(-2.0 * np.log1p(-u[:, 0])) * np.cos((2.0 * math.pi) * u[:, 1])
        x0 = model.delta_e * z0              # stationary initial sample
        y = drift * x0 + b * (r1 * np.cos(a1)) + c * (r1 * np.sin(a1))
        base = np.exp(-1j * (gamma_prime * y))
        cur = np.ones(hi - lo, dtype=np.complex128)
        for dk in range(n_qubits + 1):
            acc[dk] += cur.sum()
            if dk < n_qubits:
                cur *= base
    return acc / n_traj


def mc_coherence_magnitude(
    model: NoiseModel, t: float, weight: int, ens: TrajectoryEnsemble
) -> float:
    """Monte Carlo estimate of the coherence factor magnitude at a J_z weight.

    Draws the same trajectory stream as mc_trajectory_average (identical
    seed and layout) and returns |E[exp(-i gamma' weight * Y)]|,
    converging to coherence_factor(model, t, weight) at ~ 1/sqrt(n_traj).
    The estimator is elementwise numpy throughout (no BLAS), so its digits
    are stable across thread counts.
    """
    if not (math.isfinite(t) and t >= 0):
        raise NegativeTime(f"t must be finite and >= 0, got {t!r}")
    if weight < 0:
        raise OutOfRange(f"weight must be >= 0, got {weight!r}")
    if t == 0.0 or weight == 0 or model.delta_e == 0.0 or model.gamma_prime == 0.0:
        return 1.0
    char = _char_function(ens.seed, ens.n_traj, t, model, model.gamma_prime, weight)
    return float(abs(char[weight]))


def mc_trajectory_average(
    state: SparseState,
    config: ChainConfig,
    params: PhysParams,
    ens: TrajectoryEnsemble,
) -> SpectralState:
    """Noise-averaged, gradient-encoded state from stochastic trajectories.

    Samples the integrated noise phase per trajectory and averages
    exp(-i delta_phi J_z) over the evolved state: the coherence between
    sectors dk apart picks up the sampled E[exp(-i delta_phi dk)], and the
    average is built on the evolved state's excitation sectors, so its rank
    is at most the number of occupied sectors.  Deterministic for a fixed
    ensemble seed regardless of chunk scheduling; converges to evolve +
    apply_channel at rate ~ 1/sqrt(n_traj).
    """
    if not isinstance(state, SparseState):
        raise OutOfRange("mc_trajectory_average takes a pure SparseState input")
    n = state.n_qubits
    model = NoiseModel.from_params(params)
    evolved = evolve(state, config, params)
    if params.t == 0.0 or model.delta_e == 0.0 or model.gamma_prime == 0.0:
        # noise-free: the average is the evolved pure state itself
        return _frozen(SpectralState, n, evolved.bits, evolved.vectors, evolved.weights)
    char = _char_function(ens.seed, ens.n_traj, params.t, model, params.gamma_prime, n)
    # element (I, J) picks up char[k_J - k_I], conjugated when k_J < k_I
    return _sector_spectral(n, evolved.bits, evolved.amps, char)
