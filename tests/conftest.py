"""Shared helpers: dense Kronecker-product oracles and random generators.

The oracles rebuild every operator as an explicit dense matrix and take
derivatives by central finite differences, deliberately sharing no code
path with the package internals, so agreement between the two is an
actual check and not a tautology.

Conventions under test: qubit 1 is the leftmost bitstring character and
the most significant dense index; sigma_z |0> = +|0>.
"""

import math
import os
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, settings
from scipy.linalg import expm

import gradqfi
from gradqfi import PhysParams, SparseState, SpectralState, core, make_chain, measurement, qfi

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


def cli_env():
    """Environment for a `python -m gradqfi` child, whatever its working directory.

    The directory holding the `gradqfi` package this process imported goes
    first on PYTHONPATH as an absolute path; every other entry is kept.  A
    relative entry such as `src` would otherwise resolve against the child's
    `cwd` and the child would not find the package.
    """
    env = dict(os.environ)
    root = str(Path(gradqfi.__file__).resolve().parent.parent)
    rest = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join([root, *rest])
    return env


SZ = np.diag([1.0, -1.0])
SX = np.array([[0.0, 1.0], [1.0, 0.0]])
ID2 = np.eye(2)


def kron_site(n, i, op):
    """`op` acting on qubit i (1-based, leftmost factor first)."""
    out = np.array([[1.0]])
    for j in range(1, n + 1):
        out = np.kron(out, op if j == i else ID2)
    return out


def dense_hg(config):
    """H_G = (1/2) sum_i f_i sigma_z^(i) as a dense 2^n matrix."""
    n = config.n
    out = np.zeros((1 << n, 1 << n))
    for i, fx in enumerate(config.f_values, start=1):
        out = out + 0.5 * fx * kron_site(n, i, SZ)
    return out


def dense_jz(n):
    out = np.zeros((1 << n, 1 << n))
    for i in range(1, n + 1):
        out = out + 0.5 * kron_site(n, i, SZ)
    return out


def dense_parity_x(n):
    out = np.array([[1.0]])
    for _ in range(n):
        out = np.kron(out, SX)
    return out


def dense_unitary(config, params, grad=None):
    """exp(-i t (gamma B0 J_z + gamma G H_G)) via scipy's expm."""
    g = params.grad if grad is None else grad
    h = params.gamma * params.b0 * dense_jz(config.n) + params.gamma * g * dense_hg(config)
    return expm(-1j * params.t * h)


def to_dense(vec):
    out = np.zeros(1 << vec.n_qubits, dtype=np.complex128)
    for bits, amp in vec.terms:
        out[int(bits, 2)] = amp
    return out


def dense_rho(state):
    """Dense density matrix of a SparseState or SpectralState."""
    if isinstance(state, SparseState):
        v = to_dense(state)
        return np.outer(v, v.conj())
    out = np.zeros((1 << state.n_qubits,) * 2, dtype=np.complex128)
    for w, vec in state.eigenpairs:
        v = to_dense(vec)
        out += w * np.outer(v, v.conj())
    return out


def oracle_qfi(state, config, params, delta=1e-6, gap=1e-11):
    """Brute-force QFI: dense evolution, finite-difference d rho / dG.

    Accuracy is limited by the central difference (~delta^2 relative for
    O(1) profile values), so compare at 1e-7..1e-6 relative, not tighter.
    """
    rho0 = dense_rho(state)

    def rho_at(g):
        u = dense_unitary(config, params, grad=g)
        return u @ rho0 @ u.conj().T

    g = params.grad
    drho = (rho_at(g + delta) - rho_at(g - delta)) / (2.0 * delta)
    w, v = np.linalg.eigh(rho_at(g))
    m = v.conj().T @ drho @ v
    wmax = float(w.max())
    total = 0.0
    for a in range(len(w)):
        for b in range(len(w)):
            s = w[a] + w[b]
            if s > gap * wmax:
                total += 2.0 * abs(m[a, b]) ** 2 / s
    return total


def oracle_qfi_pure(state, config, params):
    """4 (gamma t)^2 Var(H_G) from the dense diagonal of the Kronecker H_G."""
    v = to_dense(state)
    lam = np.diag(dense_hg(config)).copy()
    p = np.abs(v) ** 2
    mean = float(p @ lam)
    mean_sq = float(p @ (lam * lam))
    gt = params.gamma * params.t
    return 4.0 * gt * gt * (mean_sq - mean * mean)


def oracle_parity(state, config, params):
    """tr(X^n U rho U^dagger) via dense matrices."""
    u = dense_unitary(config, params)
    rho = u @ dense_rho(state) @ u.conj().T
    return float(np.trace(dense_parity_x(state.n_qubits) @ rho).real)


def reference_evolution_terms(rows, config, params):
    """Phase and lambda of each bitstring, one Python float at a time.

    Per qubit in chain order, each row adds excited * turn_i to its phase
    and excited * (f_i - c) to its lambda accumulator (excited = 0.0 or
    1.0); the totals are then subtracted from the half sums, as in
    core._evolution_terms.  Returns two float64 arrays over rows.
    """
    n = config.n
    gbt = params.gamma * params.b0 * params.t
    ggt = params.gamma * params.grad * params.t
    c = math.fsum(config.f_values) / n
    centred = [fx - c for fx in config.f_values]
    turns = [math.remainder(gbt + ggt * fx, 4.0 * math.pi) for fx in config.f_values]
    phases, lams = [], []
    for bits in rows:
        phase = lam = 0.0
        for ch, turn, g in zip(bits, turns, centred):
            excited = 1.0 if ch == "1" else 0.0
            phase += excited * turn
            lam += excited * g
        phases.append(0.5 * math.fsum(turns) - phase)
        lams.append(0.5 * math.fsum(centred) - lam + c * (0.5 * n - bits.count("1")))
    return np.array(phases), np.array(lams)


def reference_full_support_terms(n, config, params):
    """Phase and lambda of all 2^n rows, row I spelling I in binary (qubit 1 the most
    significant bit), by the per-qubit loop over whole columns: qubit i adds its turn
    and f_i - c to the rows whose bit i is set, in chain order from +0.0, the rule
    reference_evolution_terms applies one row at a time."""
    gbt = params.gamma * params.b0 * params.t
    ggt = params.gamma * params.grad * params.t
    c = math.fsum(config.f_values) / n
    centred = [fx - c for fx in config.f_values]
    turns = [math.remainder(gbt + ggt * fx, 4.0 * math.pi) for fx in config.f_values]
    index = np.arange(1 << n)
    phase, lam, count = np.zeros((3, 1 << n))
    for i in range(n):
        excited = (index >> (n - 1 - i)) & 1 == 1
        phase[excited] += turns[i]
        lam[excited] += centred[i]
        count += excited
    return (0.5 * math.fsum(turns) - phase,
            0.5 * math.fsum(centred) - lam + c * (0.5 * n - count))


def reference_phased(amps, phase):
    """amps times cos(phase) - i sin(phase), each product written out as CPython's
    complex product rounds it."""
    re, im = np.cos(phase), -np.sin(phase)
    out = np.empty(len(amps), dtype=np.complex128)
    out.real = amps.real * re - amps.imag * im
    out.imag = amps.real * im + amps.imag * re
    return out


def reference_complement_pairing(bits):
    """The rows of a bit matrix whose complement is a row too, ascending, and the index of
    that complement, by a dict of the rows spelled as strings."""
    rows = ["".join("01"[b] for b in row) for row in bits.tolist()]
    where = {row: j for j, row in enumerate(rows)}
    flip = str.maketrans("01", "10")
    pairs = [(i, where[row.translate(flip)]) for i, row in enumerate(rows)
             if row.translate(flip) in where]
    paired, at = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    return paired.copy(), at.copy()


def reference_named_state(name, n, k=None, m=None, theta=0.0):
    """(bitstring, amplitude) terms of a named probe, spelled out as strings, sorted."""
    half = 1.0 / math.sqrt(2.0)
    if name == "ghz":
        terms = [("0" * n, half), ("1" * n, half)]
    elif name == "ghz-theta":
        terms = [("0" * n, half), ("1" * n, complex(math.cos(theta), math.sin(theta)) * half)]
    elif name == "product":
        terms = [(format(i, f"0{n}b"), 2.0 ** (-0.5 * n)) for i in range(1 << n)]
    elif name == "odf":
        branches = {"1" * k + "0" * (n - k), "0" * (n - k) + "1" * k}
        terms = [(bits, half if len(branches) == 2 else 1.0) for bits in branches]
    elif name == "dicke":
        strings = [format(i, f"0{n}b") for i in range(1 << n)]
        weight_k = [bits for bits in strings if bits.count("1") == k]
        terms = [(bits, 1.0 / math.sqrt(math.comb(n, k))) for bits in weight_k]
    else:  # psi-m
        terms = [("1" * m + "0" * (n - m), half), ("0" * m + "1" * (n - m), half)]
    return tuple(sorted((bits, complex(amp)) for bits, amp in terms))


def reference_sweep_fig5(ns, length, case, gamma_t):
    """fig5 rows (or the exception) by the public per-n path, one chain each.

    For each n: generate_placement of the equidistant chain, then qfi_noisy_ghz
    without noise (delta_e = 0, so d = 1.0: the GHZ closed form) and
    qfi_max_separable (case "a"), or qfi_dfs_max,
    qfi_dicke at k = n/2 and k = 1 and qfi_product_steady (case "b"),
    validated in the same order as the sweep: a value that is not finite
    (a NaN one, which FisherReport itself refuses, included) raises
    NumericOverflow naming its column and n.
    """
    ns = sorted(set(int(n) for n in ns))
    if not ns:
        raise gradqfi.OutOfRange("n_range must contain at least one qubit count")
    if ns[0] < 2:
        raise gradqfi.OutOfRange(f"n_range values must be >= 2, got {ns[0]}")
    params = PhysParams(gamma=gamma_t, t=1.0)

    def value(report):
        try:
            return report().value
        except gradqfi.OutOfRange as exc:
            if str(exc) != "Fisher information must be >= 0, got nan":
                raise
            return math.nan

    rows = []
    for n in ns:
        config = gradqfi.generate_placement(gradqfi.PlacementSpec("equidistant", n, 0.0, length))
        if case == "a":
            names = ("ghz", "product")
            values = (
                value(lambda: gradqfi.qfi_noisy_ghz(config, params)),
                value(lambda: gradqfi.qfi_max_separable(config, params)),
            )
        else:
            names = ("odf-half", "dicke-half", "w", "steady-product")
            values = (
                value(lambda: gradqfi.qfi_dfs_max(config, params)[0]),
                value(lambda: gradqfi.qfi_dicke(config, params, n // 2)),
                value(lambda: gradqfi.qfi_dicke(config, params, 1)),
                value(lambda: gradqfi.qfi_product_steady(config, params)),
            )
        for name, v in zip(names, values):
            if not math.isfinite(v):
                raise gradqfi.NumericOverflow(f"the {name} value overflows float64 at n = {n}")
        rows.append((float(n), *values))
    return rows


def reference_char_function(seed, n_traj, t, model, gamma_prime, n_qubits, chunk=8192):
    """noise._char_function with every Box-Muller normal drawn: trajectory i's
    four uniforms become four normals by pairing columns (0, 1) and (2, 3), and
    normals 0, 2 and 3 drive the exact Ornstein-Uhlenbeck step."""
    tau = model.tau_c
    sig2 = model.delta_e * model.delta_e
    s = t / tau
    em1, em2 = math.expm1(-s), math.expm1(-2.0 * s)
    a = math.sqrt(-sig2 * em2)
    b = sig2 * tau * em1 * em1 / a if a > 0.0 else 0.0
    c = math.sqrt(max(sig2 * tau * tau * (2.0 * s + 4.0 * em1 - em2) - b * b, 0.0))
    acc = np.zeros(n_qubits + 1, dtype=np.complex128)
    for lo in range(0, n_traj, chunk):
        hi = min(lo + chunk, n_traj)
        bitgen = np.random.Philox(key=seed)
        bitgen.advance(lo)
        u = np.random.Generator(bitgen).random((hi - lo, 4), dtype=np.float64)
        z = np.empty_like(u)
        radius = np.sqrt(-2.0 * np.log1p(-u[:, 0::2]))
        angle = (2.0 * math.pi) * u[:, 1::2]
        z[:, 0::2] = radius * np.cos(angle)
        z[:, 1::2] = radius * np.sin(angle)
        y = -tau * em1 * (model.delta_e * z[:, 0]) + b * z[:, 2] + c * z[:, 3]
        base = np.exp(-1j * (gamma_prime * y))
        cur = np.ones(hi - lo, dtype=np.complex128)
        for dk in range(n_qubits + 1):
            acc[dk] += cur.sum()
            if dk < n_qubits:
                cur *= base
    return acc / n_traj


# ----------------------------------------------------------------------
# per-eigenvector oracles: a mixed state as a list of (weight, SparseState)
# pairs, each eigenvector on its own rows, built, evolved and read out one
# eigenvector at a time
# ----------------------------------------------------------------------


def reference_unit_state(n, bits, col):
    """The amplitudes col over the ascending rows bits, with entries at or below
    the drop threshold dropped and the rest renormalized to a unit vector."""
    mask = np.abs(col) > core._AMP_DROP
    col = col[mask]
    return SparseState(n, bits[mask], col / math.sqrt(float(np.vdot(col, col).real)))


def reference_normalized(pairs):
    total = math.fsum(w for w, _ in pairs)
    return [(w / total, vec) for w, vec in pairs]


def reference_sector_form(n, bits, amps, decay):
    """sum_kl decay[l - k] sqrt(p_k p_l) |e_k><e_l| on the sector vectors e_k of a pure
    vector: (its rows with |amplitude|^2 > 0, each row's sector index, its entry of
    e_k, the r x r matrix M)."""
    nonzero = amps.real**2 + amps.imag**2 != 0
    bits, amps = bits[nonzero], amps[nonzero]
    k = core._excitations(bits)
    mass = np.bincount(k, weights=amps.real**2 + amps.imag**2, minlength=n + 1)
    occupied = np.flatnonzero(mass)
    root = np.sqrt(mass[occupied])
    gap = occupied[None, :] - occupied[:, None]
    factor = np.asarray(decay)[np.abs(gap)]
    m = np.where(gap >= 0, factor, np.conj(factor)) * np.outer(root, root)
    scale = np.zeros(n + 1)
    scale[occupied] = 1.0 / root
    unit = amps * scale[k]
    sector = np.zeros(n + 1, dtype=np.intp)
    sector[occupied] = np.arange(len(occupied))
    return bits, sector[k], unit, m


def reference_kept_spectrum(m):
    """m's eigenvalues above core._WEIGHT_DROP, heaviest first, with eigenvector columns."""
    w, u = np.linalg.eigh(m)
    keep = np.flatnonzero(w > core._WEIGHT_DROP)[::-1]
    return w[keep], u[:, keep]


def reference_form_pairs(n, form):
    """Eigenpairs of a sector form, one SparseState each: eigenvector c of M spread as
    U[sector, c] * unit, its small entries dropped and the rest renormalized."""
    bits, sector, unit, m = form
    w, u = reference_kept_spectrum(m)
    vectors = (reference_unit_state(n, bits, u[sector, c] * unit) for c in range(len(w)))
    return reference_normalized(list(zip(w.tolist(), vectors)))


def reference_sector_pairs(n, bits, amps, decay):
    """Eigenpairs of sum_kl decay[l - k] sqrt(p_k p_l) |e_k><e_l|, one SparseState each."""
    return reference_form_pairs(n, reference_sector_form(n, bits, amps, decay))


def reference_channel_form(state, model, t):
    decay = [gradqfi.coherence_factor(model, t, dk) for dk in range(state.n_qubits + 1)]
    return reference_sector_form(state.n_qubits, state.bits, state.amps, decay)


def reference_twirl_form(form):
    """The sector projection of a sector form: M without its off-diagonal entries."""
    bits, sector, unit, m = form
    return bits, sector, unit, np.where(np.eye(len(m), dtype=bool), m, 0.0)


def reference_evolve_form(form, config, params):
    """A sector form evolved: each row's entry phased, M kept."""
    bits, sector, unit, m = form
    phase, _ = core._evolution_terms(bits, config, params)
    return bits, sector, core._cmul(unit, np.cos(phase), -np.sin(phase)), m


def reference_form_parity(form, config, params):
    """Parity value and gradient of a sector form, row by row in ascending order in
    Python complex arithmetic: rho'_{I, comp I} = (e'_I M[k_I, k_comp I]) conj(e'_comp I),
    each complex product written out as CPython rounds it."""
    def times(x, re, im):
        return complex(x.real * re - x.imag * im, x.real * im + x.imag * re)

    bits, sector, unit, m = reference_evolve_form(form, config, params)
    _, lam = core._evolution_terms(bits, config, params)
    gt = params.gamma * params.t
    q, m = unit.tolist(), m.astype(complex).tolist()
    rows = ["".join("01"[b] for b in row) for row in bits.tolist()]
    where = {row: j for j, row in enumerate(rows)}
    flip = str.maketrans("01", "10")
    value = grad = 0.0
    for i, row in enumerate(rows):
        j = where.get(row.translate(flip))
        if j is not None:
            coef = m[sector[i]][sector[j]]
            term = 0j + times(times(q[i], coef.real, coef.imag), q[j].real, -q[j].imag)
            value += term.real
            grad += term.real * 0.0 - term.imag * ((-2.0 * gt) * float(lam[i]))
    return value, grad


def reference_form_jx(form, config, params):
    """J_x probabilities and derivatives of a sector form, one sector column at a time:
    column g evolved and scattered into X_g, and -i gamma t (lambda - kappa_g) times it
    into Y_g, with kappa_g lambda on the sector's first row; each transformed on its own.
    Then p = Re sum_gh m_gh X_g conj X_h and dp = 2 Re sum_gh m_gh Y_g conj X_h + gamma t
    sum_gh (kappa_g - kappa_h) Im(m_gh X_g conj X_h), each sum over h written as the
    readout writes it."""
    bits, sector, unit, m = reference_evolve_form(form, config, params)
    _, lam = core._evolution_terms(bits, config, params)
    n, gt = config.n, params.gamma * params.t
    index = bits @ (1 << np.arange(n - 1, -1, -1))
    columns = []
    kappa = np.zeros(len(m))
    for g in range(len(m)):
        rows = np.flatnonzero(sector == g)
        kappa[g] = lam[rows[0]]
        x, y = np.zeros((2, 1 << n), dtype=np.complex128)
        x[index[rows]] = unit[rows]
        y[index[rows]] = core._cmul(unit[rows], 0.0, -gt * (lam[rows] - kappa[g]))
        columns.append((measurement._walsh_hadamard(x), measurement._walsh_hadamard(y)))
    x, y = (np.stack(part, axis=1) for part in zip(*columns))  # (index, column)
    z, w = x @ m, x @ ((kappa[:, None] - kappa) * m)
    p = (z.real * x.real + z.imag * x.imag).sum(axis=1)
    dp = 2.0 * (z.conj() * y).real.sum(axis=1) + gt * (w * x.conj()).imag.sum(axis=1)
    counts = measurement._basis_excitations(n)
    probs = np.bincount(counts, weights=p, minlength=n + 1)
    derivs = np.bincount(counts, weights=dp, minlength=n + 1)
    # a probability below 0 is read as 0, as OutcomeDistribution reads it
    return [((0.0 if p < 0.0 else float(p)).hex(), float(d).hex()) for p, d in zip(probs, derivs)]


def reference_channel_pairs(state, model, t):
    return reference_form_pairs(state.n_qubits, reference_channel_form(state, model, t))


def reference_first_appearance_support(vectors):
    """Union of the rows of (bits, amps) vectors in order of first appearance, and
    V[a, j], vector a's amplitude on union row j."""
    bits = np.concatenate([b for b, _ in vectors])
    keys = core._keys(bits)
    support, first = np.unique(keys, return_index=True)
    where = np.searchsorted(support, keys)
    kept = np.argsort(first)
    column = np.empty(len(support), dtype=np.intp)
    column[kept] = np.arange(len(kept))
    row = np.repeat(np.arange(len(vectors)), [len(amps) for _, amps in vectors])
    v = np.zeros((len(vectors), len(kept)), dtype=np.complex128)
    v[row, column[where]] = np.concatenate([amps for _, amps in vectors])
    return bits[first[kept]], v


def reference_twirl_pairs(n, pairs):
    """The sector projection of sum_a w_a |a><a|: each sector's parts of the
    eigenvectors on their joint rows, re-sorted, thin QR, then R W R^dagger."""
    if len(pairs) == 1:
        vec = pairs[0][1]
        return reference_sector_pairs(n, vec.bits, vec.amps, [1.0] + [0.0] * n)
    sectors = {}
    for weight, vec in pairs:
        k = core._excitations(vec.bits)
        for sector in np.flatnonzero(np.bincount(k)).tolist():
            rows = k == sector
            sectors.setdefault(sector, []).append((weight, vec.bits[rows], vec.amps[rows]))
    out = []
    for sector in sorted(sectors):
        comps = sectors[sector]
        bits, v = reference_first_appearance_support([(b, a) for _, b, a in comps])
        order = np.argsort(core._keys(bits))
        q, r = np.linalg.qr(v[:, order].T)
        weights = np.array([weight for weight, _, _ in comps])
        w, u = reference_kept_spectrum((r * weights) @ r.conj().T)
        vectors = (reference_unit_state(n, bits[order], q @ u[:, c]) for c in range(len(w)))
        out += zip(w.tolist(), vectors)
    return reference_normalized(out)


def reference_mc_form(state, config, params, ens):
    """The trajectory average's sector form from reference_char_function."""
    evolved = gradqfi.evolve(state, config, params)
    char = [1.0] * (state.n_qubits + 1)
    if params.t != 0.0 and params.delta_e != 0.0 and params.gamma_prime != 0.0:
        model = gradqfi.NoiseModel.from_params(params)
        char = reference_char_function(ens.seed, ens.n_traj, params.t, model,
                                       params.gamma_prime, state.n_qubits)
    return reference_sector_form(state.n_qubits, evolved.bits, evolved.amps, char)


def reference_mc_pairs(state, config, params, ens):
    """The trajectory average's eigenpairs from reference_char_function."""
    return reference_form_pairs(state.n_qubits, reference_mc_form(state, config, params, ens))


def reference_evolve_pairs(pairs, config, params):
    out = []
    for w, vec in pairs:
        phase, _ = core._evolution_terms(vec.bits, config, params)
        out.append((w, SparseState(vec.n_qubits, vec.bits,
                                   core._cmul(vec.amps, np.cos(phase), -np.sin(phase)))))
    return out


def reference_parity(pairs, config, params):
    """Parity value and gradient, each eigenvector evolved and paired on its own rows by
    reference_complement_pairing."""
    gt = params.gamma * params.t
    value = grad = 0.0
    for weight, vec in pairs:
        phase, lam = core._evolution_terms(vec.bits, config, params)
        amps = core._cmul(vec.amps, np.cos(phase), -np.sin(phase))
        paired, at = reference_complement_pairing(vec.bits)
        partner, amps = amps[at], amps[paired]
        term = core._cmul(amps, partner.real, -partner.imag)
        dterm = term.real * 0.0 - term.imag * ((-2.0 * gt) * lam[paired])
        value += weight * qfi._seq_sum(term.real)
        grad += weight * qfi._seq_sum(dterm)
    return value, grad


def reference_jx(pairs, config, params):
    """J_x probabilities and derivatives, each eigenvector scattered on its own rows."""
    n = config.n
    gt = params.gamma * params.t
    counts = measurement._basis_excitations(n)
    probs = np.zeros(n + 1)
    derivs = np.zeros(n + 1)
    place = 1 << np.arange(n - 1, -1, -1)
    for weight, vec in pairs:
        phase, lam = core._evolution_terms(vec.bits, config, params)
        amps = core._cmul(vec.amps, np.cos(phase), -np.sin(phase))
        idx = vec.bits @ place
        dense, ddense = np.zeros((2, 1 << n), dtype=np.complex128)
        dense[idx] = amps
        ddense[idx] = core._cmul(amps, 0.0, -gt * (lam - lam[0]))
        x_amp = measurement._walsh_hadamard(dense)
        x_damp = measurement._walsh_hadamard(ddense)
        p = x_amp.real**2 + x_amp.imag**2
        dp = 2.0 * (x_amp.conj() * x_damp).real
        probs += weight * np.bincount(counts, weights=p, minlength=n + 1)
        derivs += weight * np.bincount(counts, weights=dp, minlength=n + 1)
    # a probability below 0 is read as 0, as OutcomeDistribution reads it
    return [((0.0 if p < 0.0 else float(p)).hex(), float(d).hex()) for p, d in zip(probs, derivs)]


def random_chain(rng, n, spread=1.0):
    positions = rng.uniform(-spread, spread, size=n)
    x0 = float(rng.uniform(-0.5 * spread, 0.5 * spread))
    return make_chain(positions, x0=x0)


def random_params(rng, **overrides):
    base = dict(
        gamma=float(rng.uniform(0.5, 2.0)),
        b0=float(rng.uniform(-1.0, 1.0)),
        grad=float(rng.uniform(-1.0, 1.0)),
        t=float(rng.uniform(0.5, 2.0)),
        gamma_prime=float(rng.uniform(0.5, 2.0)),
        delta_e=float(rng.uniform(0.5, 1.5)),
        tau_c=float(rng.uniform(0.5, 2.0)),
    )
    base.update(overrides)
    return PhysParams(**base)


def random_sparse(rng, n, size=None):
    dim = 1 << n
    if size is None:
        size = int(rng.integers(1, min(dim, 8) + 1))
    idx = rng.choice(dim, size=size, replace=False)
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    amps = amps / np.linalg.norm(amps)
    terms = tuple(
        (format(int(i), f"0{n}b"), complex(a)) for i, a in zip(idx, amps)
    )
    return SparseState.from_terms(n, terms)


def random_mixture(rng, n, rank):
    """Random SpectralState: Haar-ish orthonormal vectors, Dirichlet weights."""
    dim = 1 << n
    mat = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    q, _ = np.linalg.qr(mat)
    weights = rng.dirichlet(np.ones(rank))
    weights = weights / weights.sum()
    pairs = []
    for r in range(rank):
        col = q[:, r]
        terms = tuple(
            (format(i, f"0{n}b"), complex(col[i]))
            for i in range(dim)
            if abs(col[i]) > 0.0
        )
        pairs.append((float(weights[r]), SparseState.from_terms(n, terms)))
    return SpectralState(n, tuple(pairs))


# coherence factors from mild to far below the smallest eigen-weight gap float64 resolves
COHERENCES = (1e-2, 1e-6, 1e-9, 1e-12, 1e-15, 1e-20, 1e-30, 1e-40, 1e-60, 1e-100)


def params_with_coherence(d, weight, **params):
    """PhysParams (gamma_prime = tau_c = 1) whose delta_e makes the coherence factor of a
    J_z weight at time t (default 1) about d: exp(-w^2 delta_e^2 (e^-t + t - 1)) = d."""
    t = params.setdefault("t", 1.0)
    delta_e = math.sqrt(-math.log(d) / (weight * weight * (math.expm1(-t) + t)))
    return PhysParams(gamma_prime=1.0, tau_c=1.0, delta_e=delta_e, **params)


def rel_dev(a, b, floor=1e-300):
    return abs(a - b) / max(abs(a), abs(b), floor)
