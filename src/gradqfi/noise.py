"""Collective phase noise: analytic decay, channel, twirl, and Monte Carlo.

The chain sees a fluctuating global field that couples through J_z with
stationary Gaussian statistics and exponentially decaying correlation
<dE(t) dE(0)> = delta_e^2 exp(-t/tau_c) (an Ornstein-Uhlenbeck process).
The accumulated random phase delta_phi = gamma' * integral dE dt is then
Gaussian with variance gamma'^2 C(t), so averaging over realizations
multiplies each density-matrix element rho_IJ by a coherence factor that
depends only on the excitation difference |k(I) - k(J)|.

So the channel, the twirl and the Monte Carlo average hold their output on
excitation sectors (core.SpectralState), rho = sum_kl M_kl |e_k><e_l| with e_k
the input's unit vector on sector k, and set or mask entries of the r x r M.

Monte Carlo here is an oracle for the analytic channel: each trajectory
takes one exact joint-Gaussian step of (dE, integral dE) from a stationary
dE(0) to t, built from the OU transition moments rather than from C(t),
so there is no discretization bias, convergence tests isolate sampling
error, and a trajectory costs three normals at any t.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (
    ChainConfig, PhysParams, SparseState, SpectralState, State, _frozen, _sector_spectral, evolve,
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

    Accepts t = inf (C diverges linearly, so the limit is inf).  Where t / tau_c
    overflows, C is its white-noise limit 2 delta_e^2 tau_c t.  Where (delta_e tau_c)^2
    is 0 or subnormal, C is formed as 2 scale (scale (e^{-s} + s - 1)), scale = delta_e
    tau_c, so that a large s keeps it from underflowing early.
    """
    if t < 0 or math.isnan(t):
        raise NegativeTime(f"t must be >= 0, got {t!r}")
    if model.delta_e == 0.0 or t == 0.0:
        return 0.0
    s = t / model.tau_c
    scale = model.delta_e * model.tau_c
    if s == math.inf:  # not scale^2 * inf: the limit 2 delta_e^2 tau_c t
        return s if t == s else 2.0 * scale * (model.delta_e * t)
    if scale * scale < sys.float_info.min:  # 0 or subnormal
        return 2.0 * scale * (scale * (math.expm1(-s) + s))
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

    Multiplies rho_IJ by coherence_factor(|k_I - k_J|): on the input's
    excitation sectors that is M_kl = d_|k-l| sqrt(p_k p_l)
    (core._sector_spectral), so its rank is at most the number of occupied
    sectors.  t = inf gives the steady state (all cross-sector coherences gone).
    """
    if not isinstance(state, SparseState):
        raise OutOfRange("apply_channel takes a pure SparseState input")
    decay = [coherence_factor(model, t, dk) for dk in range(state.n_qubits + 1)]  # checks t
    return _sector_spectral(state.n_qubits, state.bits, state.amps, decay)


def steady_twirl(state: State) -> SpectralState:
    """Project onto the excitation sectors (the t -> infinity dephasing limit).

    Removes every coherence between different J_z sectors: a pure input
    keeps one vector per sector, and a mixed one keeps the blocks of its
    coefficient matrix m between columns of the same sector, on the same
    sector columns.  The output commutes with J_z exactly (each eigenvector
    lives in one sector).  Idempotent: twirling a twirled state returns it
    unchanged.
    """
    if isinstance(state, SparseState):
        return _sector_spectral(state.n_qubits, state.bits, state.amps,
                                [1.0] + [0.0] * state.n_qubits)
    block = np.arange(len(state.m)) // state.basis.shape[1]  # each column's sector
    m = np.where(block[:, None] == block[None, :], state.m, 0.0)  # positive, as state.m is
    return _frozen(SpectralState, state.n_qubits, state.bits, state.sector, state.basis, m)


# ----------------------------------------------------------------------
# Monte Carlo trajectory oracle
# ----------------------------------------------------------------------


def _char_function(
    seed: int, n_traj: int, t: float, model: NoiseModel, n_qubits: int,
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
    result does not depend on chunking.  Each step writes, in the order of
    the expression it spells out, into a view of one block made per call, so
    a chunk makes no array temporaries and its cost does not hang on where
    the heap would put some twenty fresh ones, or on pages it hands back.
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

    width = min(MC_CHUNK, n_traj)
    work = np.empty(13 * width)  # every array of a chunk, as views of one block
    acc = np.zeros(n_qubits + 1, dtype=np.complex128)
    for lo in range(0, n_traj, MC_CHUNK):
        m = min(MC_CHUNK, n_traj - lo)
        base, cur = work[: 4 * width].view(np.complex128).reshape(2, width)[:, :m]
        u = work[4 * width : 4 * (width + m)].reshape(m, 4)
        r1, a1, y, v, w = work[8 * width :].reshape(5, width)[:, :m]
        bitgen = np.random.Philox(key=seed)
        bitgen.advance(lo)        # one counter (four outputs) per trajectory
        np.random.Generator(bitgen).random(out=u)
        # Box-Muller on the pairs (u0, u1) and (u2, u3) without r0 sin(a0), which
        # nothing reads; a column is read strided once, by the negation or the
        # 2 pi product, so log1p, sqrt, cos and sin run on contiguous vectors
        np.sqrt(np.multiply(-2.0, np.log1p(np.negative(u[:, 2], out=w), out=r1), out=r1), out=r1)
        np.multiply(2.0 * math.pi, u[:, 3], out=a1)
        np.sqrt(np.multiply(-2.0, np.log1p(np.negative(u[:, 0], out=w), out=y), out=y), out=y)
        np.multiply(y, np.cos(np.multiply(2.0 * math.pi, u[:, 1], out=w), out=v), out=y)  # z0
        np.multiply(drift, np.multiply(model.delta_e, y, out=y), out=y)  # drift x0
        y += np.multiply(b, np.multiply(r1, np.cos(a1, out=w), out=w), out=w)
        y += np.multiply(c, np.multiply(r1, np.sin(a1, out=w), out=w), out=w)
        np.exp(np.multiply(-1j, np.multiply(model.gamma_prime, y, out=y), out=cur), out=base)
        cur.fill(1.0)
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
    char = _char_function(ens.seed, ens.n_traj, t, model, weight)
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
    noisy = params.t != 0.0 and model.delta_e != 0.0 and model.gamma_prime != 0.0
    char = (_char_function(ens.seed, ens.n_traj, params.t, model, n)
            if noisy else [1.0] * (n + 1))  # noise-free: no trajectory is drawn
    # element (I, J) picks up char[k_J - k_I], conjugated when k_J < k_I
    return _sector_spectral(n, evolved.bits, evolved.amps, char)
