"""Quantum Fisher information for gradient estimation.

All values carry the (gamma*t)^2 prefactor, i.e. they are Fisher
information per squared unit of the gradient G, so 1/value is directly
the Cramer-Rao variance bound on an unbiased single-shot estimate.

One spectral evaluator plus closed forms:

* qfi_general: exact for any pure or mixed state, with no cap on the qubit
  count: 4 * variance of the generator, or the SLD formula with
  d rho = -i [H_G, rho] on a mixed state's sector columns (O(s + r^3)).
* qfi_pure: its pure case, which refuses mixtures.
* closed forms for the standard probe families (GHZ, product, optimal
  decoherence-free states, Dicke, dephased GHZ, steady-state product),
  each O(n) in the chain size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import noise as _noise
from .core import (ChainConfig, PhysParams, SparseState, SpectralState, State, _excitations,
                   _fsum, make_named_state)
from .errors import LengthMismatch, OutOfRange

# Relative cutoff: eigenvalue pairs of a mixed state's coefficient matrix with
# combined weight at or below this fraction of the largest do not contribute.
EIGEN_GAP_EPS = 1e-12


@dataclass(frozen=True)
class FisherReport:
    """Fisher information value plus the path that produced it.

    value is in units of G^-2 (it includes the (gamma*t)^2 prefactor).
    path is "general", "pure-variance", or "closed-form:<name>".
    divergent marks a classical distribution with a vanishing-probability
    outcome that still carries derivative weight (value is +inf there).
    """

    value: float
    path: str
    divergent: bool = False

    def __post_init__(self):
        if not self.divergent:
            _fisher_value(self.value)

    @property
    def crb_variance(self) -> float:
        """Single-shot Cramer-Rao bound 1/value (inf when value is 0, 0 when it is inf)."""
        if self.value == 0.0:
            return math.inf
        return 1.0 / self.value


def _fisher_value(value: float) -> float:
    """value, checked to be a Fisher information: >= 0 and not NaN."""
    if not (value >= 0.0):
        raise OutOfRange(f"Fisher information must be >= 0, got {value!r}")
    return value


def _spectral_qfi(state: State, config: ChainConfig, params: PhysParams) -> float:
    """QFI of a pure state (_spectral_core) or a mixed one (_sector_qfi) for H_G."""
    if state.n_qubits != config.n:
        raise LengthMismatch(f"state has {state.n_qubits} qubits but chain has {config.n}")
    gt = params.gamma * params.t
    with np.errstate(over="ignore"):  # inf on overflow, as float arithmetic
        if isinstance(state, SparseState):
            return _spectral_core(state.bits, state.amps, config.f_array, gt, state.excitations)
        return _sector_qfi(state, config.f_array, gt)


def _spectral_core(excited: np.ndarray, amps: np.ndarray, f: np.ndarray, gt: float,
                   k: np.ndarray | None = None) -> float:
    """(gamma t)^2 4 Var(H_G) of a pure state from its (s, n) support bits, its amplitudes,
    the profile f and gamma t: 4 || H|a> - <a|H|a> |a> ||^2, an elementwise residual, so a
    state carrying little information does not cancel.

    H_G = (1/2) sum_i f_i - sum_i f_i n_i with n_i the excitation of qubit
    i, and the QFI ignores a constant and the sign of the generator, so
    lambda_I = sum_{i excited} (f_i - c) + c (k_I - k_0), with c = mean(f)
    and k_0 the excitation count of the first row with a nonzero amplitude
    (k, each row's count, is counted from the bits unless given).
    On a chain far from x0 the large c-term is then exactly zero within one
    excitation sector instead of cancelling in floating point.
    """
    v = amps[None, :]
    c = float(f.mean())
    k = _excitations(excited) if k is None else k
    # einsum casts the boolean matrix in buffered chunks, never all at once
    lam = np.einsum("ij,j->i", excited, f - c) + c * (k - k[np.argmax(v[0] != 0)])
    hv = v * lam
    hv -= (hv @ v.conj().T) @ v  # now the part of H_G|a> outside the state
    resid = hv.view(np.float64)
    return gt * gt * (4.0 * np.einsum("ij,ij->i", resid, resid).tolist()[0])


def _sector_qfi(state: SpectralState, f: np.ndarray, gt: float) -> float:
    """QFI of rho = sum_gh m_gh |q_g><q_h| on its sector columns q_g (see SpectralState):

        (gamma t)^2 [ 2 sum_ab |(U^dagger [h, m] U)_ab|^2 / (w_a + w_b) + 4 tr(m G) ]

    with m = U diag(w) U^dagger (the state's checked eigh), over pairs with w_a + w_b
    above EIGEN_GAP_EPS * max(w): the SLD formula with d rho = -i [H_G, rho] (Liu et
    al., J. Phys. A 53, 023001 (2020)).  h_gh = <q_g|mu - mu_k|q_h> + (mu_k + c (k - k_0))
    delta_gh is H_G on the columns, mu_I = sum_{i excited} (f_i - c), c = mean(f),
    mu_k mu on one row of sector k; G_gh = <r_g|r_h> for the residuals
    r_g = (mu - mu_k) q_g - sum_h q_h h_hg, which no sector constant enters.
    A coherence of m is a factor, never a difference of eigen-weights.
    """
    basis, m, width = state.basis, state.m, state.basis.shape[1]
    cols = (state.sector * width)[:, None, None] + np.arange(width)[:, None]  # g = k w + a
    at = (cols, cols.swapaxes(1, 2))  # (row, a, b) -> (g_a, g_b)
    c = float(f.mean())
    k = state.excitations
    mu = np.einsum("ij,j->i", state.bits, f - c)
    some = np.empty(len(m) // width, dtype=np.intp)
    some[state.sector] = np.arange(len(mu))  # one row of each sector
    shift = mu[some]
    mu -= shift[state.sector]
    h, gram = np.zeros((2, len(m), len(m)), dtype=np.complex128)
    np.add.at(h, at, basis.conj()[:, :, None] * (mu[:, None] * basis)[:, None, :])
    resid = mu[:, None] * basis - np.einsum("ia,iab->ib", basis, h[at])
    np.add.at(gram, at, resid.conj()[:, :, None] * resid[:, None, :])
    h += np.diag(np.repeat(shift + c * (k[some] - k[0]), width))
    w, u = state._spectrum
    commutator = u.conj().T @ (h @ m - m @ h) @ u
    pair = w[:, None] + w[None, :]
    keep = pair > EIGEN_GAP_EPS * w.max()
    total = 2.0 * float((np.abs(commutator[keep]) ** 2 / pair[keep]).sum())
    return gt * gt * (total + 4.0 * float((m * gram.T).sum().real))


def qfi_general(state: State, config: ChainConfig, params: PhysParams) -> FisherReport:
    """QFI of the gradient-encoded state via the spectral formula.

    Exact for any pure or mixed state and for any chain size the state
    fits; see _spectral_qfi.  The evolution commutes with H_G, so the
    value depends on neither B0 nor G.
    """
    return FisherReport(_spectral_qfi(state, config, params), "general")


def qfi_pure(state: SparseState, config: ChainConfig, params: PhysParams) -> FisherReport:
    """QFI of a pure state, (gamma t)^2 * 4 Var(H_G): the pure case of qfi_general."""
    if not isinstance(state, SparseState):
        raise OutOfRange("qfi_pure takes a pure SparseState; use qfi_general for mixtures")
    return FisherReport(_spectral_qfi(state, config, params), "pure-variance")


# ----------------------------------------------------------------------
# closed forms
# ----------------------------------------------------------------------


def _gt2(params: PhysParams) -> float:
    gt = params.gamma * params.t
    return gt * gt


def qfi_max_entangled(
    config: ChainConfig, params: PhysParams
) -> tuple[FisherReport, SparseState]:
    """Best known-offset QFI over all states, with the state achieving it.

    value = (gamma t)^2 (sum_i |f_i|)^2, achieved by the two-block
    superposition that flips the m qubits with f_i <= 0 (a qubit exactly
    at the reference point has f = 0 and contributes nothing, so which
    block it joins is value-irrelevant; we put it in the flipped block).
    """
    f_abs_sum = _fsum(np.abs(config.f_array))
    value = _gt2(params) * f_abs_sum * f_abs_sum
    m = int(np.count_nonzero(config.f_array <= 0.0))
    state = make_named_state("psi-m", config.n, m=m)
    return FisherReport(value, "closed-form:max-entangled"), state


def qfi_max_separable(config: ChainConfig, params: PhysParams) -> FisherReport:
    """Best known-offset QFI over product states: (gamma t)^2 sum_i f_i^2.

    The optimum is |+>^n up to local z-rotations; no state is returned
    because the sparse form grows as 2^n while the value does not need it.
    """
    with np.errstate(over="ignore"):  # inf on overflow, as float arithmetic
        return FisherReport(_separable(_gt2(params), config.f_array), "closed-form:max-separable")


def _separable(gt2: float, f: np.ndarray) -> float:
    """(gamma t)^2 sum_i f_i^2 from gt2 = (gamma t)^2 and a profile f, the sum correctly
    rounded (_fsum); inf on overflow under the caller's errstate."""
    return gt2 * _fsum(f * f)


def _seq_sum(x: np.ndarray) -> float:
    """Sum in index order, bit for bit as Python's sum(), for parity's row sums only;
    + 0.0 is sum()'s start value 0, which turns an all -0.0 sum into 0.0."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf/nan silently, as float arithmetic
        return float(np.cumsum(x)[-1]) + 0.0 if len(x) else 0.0


def _dfs_pair_sum(f: np.ndarray, k: int) -> float:
    """sum_{i<l} (f_i - f_{N-1-i}) with l = min(k, N-k), correctly rounded (_fsum)."""
    ell = min(k, len(f) - k)
    with np.errstate(over="ignore", invalid="ignore"):  # inf/nan silently, as float arithmetic
        return _fsum(f[:ell] - f[::-1][:ell])


def _dfs_report(config: ChainConfig, params: PhysParams, k: int,
                path: str = "closed-form:dfs-subspace") -> FisherReport:
    """qfi_dfs_subspace's report under the given path, without building its state."""
    if not 0 <= k <= config.n:
        raise OutOfRange(f"k must be in [0, {config.n}], got {k!r}")
    return FisherReport(_dfs_value(_gt2(params), config.f_array, k), path)


def _dfs_value(gt2: float, f: np.ndarray, k: int) -> float:
    """(gamma t)^2 [sum_{i<l} (f_i - f_{N-1-i})]^2 with l = min(k, N-k)."""
    pair_sum = _dfs_pair_sum(f, k)
    return gt2 * pair_sum * pair_sum


def qfi_dfs_subspace(
    config: ChainConfig, params: PhysParams, k: int
) -> tuple[FisherReport, SparseState]:
    """Best QFI within the k-excitation decoherence-free sector.

    value = (gamma t)^2 [sum_{i=1}^{l} (f_i - f_{N-i+1})]^2 with
    l = min(k, N-k), achieved by the two-branch state that puts the k
    excitations on the leading qubits in one branch and mirrored at the
    trailing end in the other.
    """
    return _dfs_report(config, params, k), make_named_state("odf", config.n, k=k)


def qfi_dfs_max(config: ChainConfig, params: PhysParams) -> tuple[FisherReport, SparseState]:
    """Best decoherence-free QFI over all sectors, reached at k = floor(N/2)."""
    report = _dfs_report(config, params, config.n // 2, "closed-form:dfs-max")
    return report, make_named_state("odf", config.n, k=config.n // 2)


def qfi_noisy_ghz(config: ChainConfig, params: PhysParams) -> FisherReport:
    """QFI of the GHZ probe under collective dephasing at time params.t.

    value = d(t)^2 (gamma t)^2 (sum_i f_i)^2 with the coherence factor
    d(t) of the full N-qubit coherence.
    """
    return _dephased(params, config.n, _fsum(config.f_array), "closed-form:noisy-ghz")


def qfi_noisy_psim(config: ChainConfig, params: PhysParams, m: int) -> FisherReport:
    """QFI of the flipped-block probe under collective dephasing.

    The two branches differ by N - 2m excitations, so the coherence
    decays with weight |N - 2m|:
    value = d_m(t)^2 (gamma t)^2 (sum_i |f_i|)^2.
    This assumes that m counts the qubits with f_i <= 0 (qfi_max_entangled's
    flip); at other m the branch gap is sum_i s_i f_i, s_i = -1 on the m flipped.
    """
    n = config.n
    if not 0 <= m <= n:
        raise OutOfRange(f"m must be in [0, {n}], got {m!r}")
    return _dephased(params, abs(n - 2 * m), _fsum(np.abs(config.f_array)),
                     "closed-form:noisy-psim")


def _dephased(params: PhysParams, weight: int, f_sum: float, path: str) -> FisherReport:
    """d^2 (gamma t)^2 f_sum^2, d the coherence factor of a J_z weight at time params.t."""
    d = _noise.coherence_factor(_noise.NoiseModel.from_params(params), params.t, weight)
    return FisherReport(d * d * _gt2(params) * f_sum * f_sum, path)


def qfi_product_steady(config: ChainConfig, params: PhysParams) -> FisherReport:
    """QFI of the dephasing steady state of the product probe |+>^n.

    The infinite-time twirl keeps only the excitation-sector-diagonal
    blocks; the surviving information is the profile variance:
    value = (gamma t)^2 sum_i (f_i - mean(f))^2, independent of x0 for
    the linear profile.  It reads the chain's spread, as qfi_dicke does.
    """
    return FisherReport(_gt2(params) * config.spread, "closed-form:product-steady")


def qfi_dicke(config: ChainConfig, params: PhysParams, k: int) -> FisherReport:
    """QFI of the symmetric Dicke probe with k excitations.

    value = (gamma t)^2 4k(N-k) / (N(N-1)) sum_i (f_i - mean(f))^2.
    The state lives in one excitation sector, so only the centred profile
    enters, and a chain far from x0 does not cancel.  Dicke states live
    in a decoherence-free sector, so this is also their steady-state and
    noisy value.
    """
    n = config.n
    if not 0 <= k <= n:
        raise OutOfRange(f"k must be in [0, {n}], got {k!r}")
    if n == 1:
        # single qubit: both sectors are one-dimensional, no phase info
        return FisherReport(0.0, "closed-form:dicke")
    return FisherReport(_dicke(_gt2(params), n, k, config.spread), "closed-form:dicke")


def _dicke(gt2: float, n: int, k: int, spread: float) -> float:
    """(gamma t)^2 4k(N-k) / (N(N-1)) times the spread sum_i (f_i - mean(f))^2, N >= 2."""
    return gt2 * 4.0 * k * (n - k) / (n * (n - 1)) * spread
