"""Reference values for the benchmark, derived independently of gradqfi.

Nothing here imports the package.  Every formula is written from the
physics (qubit i sits at f_i = x_i - x0, qubits ordered by ascending f,
sigma_z|0> = +|0>, lambda(bits) = 1/2 sum_i f_i (1 - 2 b_i)) and sums with
math.fsum.  Values that a uniform shift of f cannot change (single
excitation-sector states, the steady state) are computed on centred f, so
the reference keeps its accuracy for chains far from x0 where the package
loses digits (ROADMAP item 4).
"""

from __future__ import annotations

import cmath
import math


def profile(positions, x0):
    """f_i = x_i - x0, sorted ascending (the package's qubit order)."""
    return sorted(float(x) - float(x0) for x in positions)


def centred(f):
    mean = math.fsum(f) / len(f)
    return [v - mean for v in f]


def bits_lambda(f, bits):
    """Eigenvalue of H_G = 1/2 sum f_i sigma_z^(i) on a basis bitstring."""
    return 0.5 * math.fsum(v if b == "0" else -v for v, b in zip(f, bits))


def two_branch_qfi(gt, f, a, b):
    """(a + b)/sqrt(2) with a != b: 4 Var(H_G) = (lambda_a - lambda_b)^2."""
    if a == b:
        return 0.0
    gap = bits_lambda(f, a) - bits_lambda(f, b)
    return gt * gt * gap * gap


def product_qfi(gt, f):
    """|+>^n: independent qubits, each contributes f_i^2."""
    return gt * gt * math.fsum(v * v for v in f)


def ghz_qfi(gt, f):
    return two_branch_qfi(gt, f, "0" * len(f), "1" * len(f))


def max_entangled_qfi(gt, f):
    s = math.fsum(abs(v) for v in f)
    return gt * gt * s * s


def odf_qfi(gt, f, k):
    n = len(f)
    return two_branch_qfi(gt, f, "1" * k + "0" * (n - k), "0" * (n - k) + "1" * k)


def psim_qfi(gt, f, m):
    n = len(f)
    return two_branch_qfi(gt, f, "1" * m + "0" * (n - m), "0" * m + "1" * (n - m))


def dicke_qfi(gt, f, k):
    """Uniform k-subset: Var(sum_S f) = k(n-k)/(n(n-1)) sum (f - mean)^2."""
    n = len(f)
    if n == 1:
        return 0.0
    spread = math.fsum(v * v for v in centred(f))
    return 4.0 * gt * gt * k * (n - k) / (n * (n - 1)) * spread


def steady_product_qfi(gt, f):
    """Twirled |+>^n: sector k holds the Dicke state with weight C(n,k)/2^n."""
    n = len(f)
    return math.fsum(math.comb(n, k) / 2**n * dicke_qfi(gt, f, k) for k in range(n + 1))


def correlation_integral(delta_e, tau_c, t):
    """Variance of the integrated OU offset: 2 (de tc)^2 (e^{-s} + s - 1)."""
    s = t / tau_c
    return 2.0 * (delta_e * tau_c) ** 2 * (math.expm1(-s) + s)


def coherence(gamma_prime, delta_e, tau_c, t, weight):
    """Gaussian phase average exp(-(gamma' w)^2 C(t) / 2)."""
    w = gamma_prime * weight
    return math.exp(-0.5 * w * w * correlation_integral(delta_e, tau_c, t))


def dephased_ghz_qfi(gt, f, gamma_prime, delta_e, tau_c, t):
    d = coherence(gamma_prime, delta_e, tau_c, t, len(f))
    return d * d * ghz_qfi(gt, f)


def coherence_band(gamma_prime, delta_e, tau_c, t, weight, n_traj, sigmas=3.0):
    """sigmas standard errors of the mean of cos(w dphi) over n_traj draws."""
    d = coherence(gamma_prime, delta_e, tau_c, t, weight)
    d2 = coherence(gamma_prime, delta_e, tau_c, t, 2 * weight)
    var = max(0.5 * (1.0 + d2) - d * d, 0.0)
    return sigmas * math.sqrt(var / n_traj) + 1e-12


def phase(f, bits, gamma, b0, grad, t):
    """Evolution phase of a basis state: gamma t (B0 Jz + G H_G)."""
    n = len(f)
    jz = 0.5 * n - bits.count("1")
    return gamma * t * (b0 * jz + grad * bits_lambda(f, bits))


def evolved_amplitude(f, bits, amp, gamma, b0, grad, t):
    return amp * cmath.exp(-1j * phase(f, bits, gamma, b0, grad, t))


def parity_cfi(value, slope):
    """Two-outcome parity CFI: p = (1 +- v)/2, dp = +-v'/2."""
    return slope * slope / (1.0 - value * value)


def product_parity(f, gamma, b0, grad, t):
    """<X^n> and d/dG on |+>^n: each qubit gives cos(theta_i)."""
    theta = [gamma * t * (b0 + grad * v) for v in f]
    cos = [math.cos(x) for x in theta]
    value = math.prod(cos)
    slope = -math.fsum(
        gamma * t * v * math.sin(x) * math.prod(c for j, c in enumerate(cos) if j != i)
        for i, (v, x) in enumerate(zip(f, theta))
    )
    return value, slope


def dicke_parity(f, k, gamma, grad, t):
    """<X^n> and d/dG on the weight-k Dicke state.

    X^n maps weight k to weight n - k, so only k = n/2 has a signal:
    <X^n> = Re sum_S exp(-2i g lambda_S) / C(n, k) over k-subsets S, with
    g = gamma G t.  On centred f the sum is exp(0) e_k(z), z_i =
    exp(2i g f_i), an elementary symmetric polynomial; a forward-mode
    derivative carries d/dG through the recursion.
    """
    n = len(f)
    if 2 * k != n:
        return 0.0, 0.0
    g = gamma * grad * t
    e = [1.0 + 0j] + [0j] * k
    de = [0j] * (k + 1)
    for v in centred(f):
        z = cmath.exp(2j * g * v)
        dz = 2j * gamma * t * v * z
        for j in range(k, 0, -1):
            de[j] += dz * e[j - 1] + z * de[j - 1]
            e[j] += z * e[j - 1]
    count = math.comb(n, k)
    return e[k].real / count, de[k].real / count


def ghz_jx_cfi(f, gamma, b0, grad, t):
    """J_x CFI of the evolved GHZ state, grouped by the number of |-> factors.

    <s_x|psi> = 2^{-n/2} (a0 + (-1)^k a1), so p_k = C(n,k) 2^-n (1 + (-1)^k
    cos D) with D = phase(1^n) - phase(0^n), dD/dG = -gamma t sum f.
    """
    n = len(f)
    gap = phase(f, "1" * n, gamma, b0, grad, t) - phase(f, "0" * n, gamma, b0, grad, t)
    dgap = -gamma * t * math.fsum(f)
    total = []
    for k in range(n + 1):
        w = math.comb(n, k) / 2.0**n
        sign = 1.0 if k % 2 == 0 else -1.0
        p = w * (1.0 + sign * math.cos(gap))
        dp = -w * sign * math.sin(gap) * dgap
        if p < 1e-15:
            if abs(dp) >= 1e-12:
                return math.inf
            continue
        total.append(dp * dp / p)
    return math.fsum(total)


def equidistant(n, length):
    return [length * i / (n - 1) for i in range(n)]


def pair_sum(f, k):
    n = len(f)
    return math.fsum(f[i] - f[n - 1 - i] for i in range(min(k, n - k)))


def fig4_row(n, length, k):
    """DFS QFI at excitation k for half-half, tanh, equidistant, tan (gamma t = 1)."""
    half = [0.0] * (n // 2) + [length] * (n - n // 2)
    tanh = sorted(0.5 * length * (1 + math.tanh(math.pi * (2 * i / n - 1))) for i in range(1, n + 1))
    tan = sorted(0.5 * length * (1 + math.tan(0.25 * math.pi * (2 * i / n - 1))) for i in range(1, n + 1))
    return [pair_sum(x, k) ** 2 for x in (half, tanh, equidistant(n, length), tan)]


def fig5a_row(n, length):
    f = equidistant(n, length)
    return [ghz_qfi(1.0, f), product_qfi(1.0, f)]


def fig5b_row(n, length):
    f = equidistant(n, length)
    return [pair_sum(f, n // 2) ** 2, dicke_qfi(1.0, f, n // 2), dicke_qfi(1.0, f, 1),
            math.fsum(v * v for v in centred(f))]


def fig3_value(t, n=50, length=1.0, gamma_prime=2.0 * math.pi * 50.0):
    f = equidistant(n, length)
    return coherence(gamma_prime, 1.0, 1.0, t, n) * math.fsum(f) ** 2 * t * t


# Equidistant column of the paper's summary table at n = 4, L = 3, gamma t = 1.
TABLE1_EQUIDISTANT = {"ghz": 36.0, "product": 14.0, "odf-half": 16.0, "steady-product": 5.0}

