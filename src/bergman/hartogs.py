"""Berezin-transform blow-up machinery on the Hartogs triangle.

The L^2 counterexample rests on the monomial basis z1^n z2^m (m >= 0,
n + m >= -1) and the radial symbols g(w) = |w1|^(-2+2 eps), whose transform
has the closed form

    B g(z) = (1 - |z1|^2)^2 * sum_k (k+1)^2/(k+eps) |z1|^(2k),

depending on |z1| only.  The ratio ||B g||_2 / ||g||_2 grows like
eps^(-1/2), so no operator-norm bound can hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domains import hartogs_triangle, kernel_diag, kernel_values, require_inside
from .errors import (
    EpsilonOutOfRange,
    InadmissibleIndex,
    TruncationInsufficient,
)

_HARTOGS = hartogs_triangle()

# ||(1 - |z1|^2)^2||_{L^2} on the triangle; the squared integral is pi^2/30.
NORM_BULGE = math.pi / math.sqrt(30.0)


def admissible(n: int, m: int) -> bool:
    """Whether z1^n z2^m is square integrable on the triangle."""
    return m >= 0 and n + m >= -1


def basis_coefficient(n: int, m: int) -> float:
    """Reciprocal squared norm of the basis monomial z1^n z2^m."""
    if not admissible(n, m):
        raise InadmissibleIndex(f"(n, m) = ({n}, {m}) needs m >= 0 and n + m >= -1")
    return (m + 1) * (n + m + 2) / math.pi ** 2


def basis_indices(truncation: int) -> list[tuple[int, int]]:
    """Admissible (n, m) ordered by k = n + m + 1, then m, both capped at ``truncation``."""
    return [(k - m - 1, m) for k in range(truncation + 1) for m in range(truncation + 1)]


def basis_values(indices, z) -> np.ndarray:
    """Orthonormal basis functions sqrt(basis_coefficient) z1^n z2^m at one point."""
    z1, z2 = complex(z[0]), complex(z[1])
    out = np.empty(len(indices), dtype=complex)
    for i, (n, m) in enumerate(indices):
        out[i] = math.sqrt(basis_coefficient(n, m)) * z1 ** n * z2 ** m
    return out


def kernel_series(w, z, truncation: int = 90) -> complex:
    """Truncated monomial expansion of the kernel K(w, z).

    Sums basis_coefficient (w1 conj(z1))^n (w2 conj(z2))^m over k = n+m+1 and m, both up
    to ``truncation``; converges geometrically for |w1 z1| < 1 and
    |w2 z2| < |w1 z1|.
    """
    x = complex(w[0]) * complex(z[0]).conjugate()
    y = complex(w[1]) * complex(z[1]).conjugate()
    ks = np.arange(truncation + 1)
    ms = np.arange(truncation + 1)
    K, M = np.meshgrid(ks, ms, indexing="ij")
    N = K - M - 1
    coef = (M + 1) * (K + 1) / math.pi ** 2  # basis_coefficient with n + m + 2 = k + 1
    terms = coef * np.power(x, N) * np.power(y, M)
    return complex(np.sum(terms))


# ---------------------------------------------------------------------------
# the symbol family blowup_symbol
# ---------------------------------------------------------------------------

def _check_eps(eps: float, open_right: bool = False) -> float:
    eps = float(eps)
    hi_ok = eps < 1.0 if open_right else eps <= 1.0
    if not (eps > 0.0 and hi_ok):
        bracket = "(0, 1)" if open_right else "(0, 1]"
        raise EpsilonOutOfRange(f"eps must lie in {bracket}; the norm diverges at eps <= 0")
    return eps


def blowup_symbol(eps: float, w) -> float:
    """The symbol |w1|^(-2 + 2 eps) at a point of the triangle."""
    return float(blowup_symbol_values(eps, np.array([require_inside(_HARTOGS, w)]))[0])


def blowup_symbol_values(eps: float, nodes: np.ndarray) -> np.ndarray:
    eps = _check_eps(eps)
    W = np.asarray(nodes)
    return np.abs(W[:, 0]) ** (2.0 * eps - 2.0)


def blowup_symbol_norm(eps: float) -> float:
    """Closed-form L^2 norm of blowup_symbol: pi / sqrt(2 eps)."""
    eps = _check_eps(eps)
    return math.pi / math.sqrt(2.0 * eps)


# ---------------------------------------------------------------------------
# closed-form Berezin transform of blowup_symbol
# ---------------------------------------------------------------------------

def _blowup_series_tail(x: float, k_max: int) -> float:
    """Upper bound for sum_{k > k_max} (k+1)^2 x^k / (k + eps), any eps > 0."""
    q = k_max + 2
    one = 1.0 - x
    return x ** (k_max + 1) * (q * q / one + 2.0 * q * x / one ** 2 + x * (1.0 + x) / one ** 3)


def berezin_blowup_closed(eps: float, z, truncation: int | None = None) -> float:
    """Closed-form transform of the blow-up symbol; depends on z only through |z1|.

    ``truncation`` caps the series; when omitted it is chosen so the bounded
    tail stays below 1e-10 of the partial sum.  Arguments with |z1| > 0.999
    are refused since the geometric tail control degenerates there.
    """
    eps = _check_eps(eps)
    zp = require_inside(_HARTOGS, z)
    x = abs(zp[0]) ** 2
    if abs(zp[0]) > 0.999:
        raise TruncationInsufficient("refusing |z1| > 0.999; series tail control degenerates")
    if truncation is None:
        truncation = 64
        while _blowup_series_tail(x, truncation) > 1e-10 / eps and truncation < 4_000_000:
            truncation *= 2
    k = np.arange(truncation + 1, dtype=float)
    partial = float(np.sum((k + 1.0) ** 2 / (k + eps) * x ** k))
    tail = _blowup_series_tail(x, truncation)
    if tail > 1e-10 * partial:
        raise TruncationInsufficient(
            f"tail bound {tail:.3e} exceeds 1e-10 of the partial sum at truncation {truncation}")
    return (1.0 - x) ** 2 * partial


def berezin_blowup_by_quadrature(eps: float, z, radial_n: int = 160,
                               s_n: int = 120, angular_n: int = 128) -> float:
    """Transform of the blow-up symbol by direct numerical integration.

    Working in the coordinates w1 = r e^{i th}, w2 = w1 s e^{i ph}, the
    integrand factors and the radial direction is integrated in the graded
    variable u = r^(2 eps), which absorbs the r^(2 eps - 1) singularity at the
    origin exactly.  Independent of the series closed form above.
    """
    eps = _check_eps(eps)
    zp = require_inside(_HARTOGS, z)
    z1, z2 = zp
    diag = _HARTOGS.diag_at(zp)
    th = 2.0 * np.pi * np.arange(angular_n) / angular_n
    wth = 2.0 * np.pi / angular_n
    phase = np.exp(1j * th)

    xg, wg = np.polynomial.legendre.leggauss(radial_n)
    u = np.concatenate([0.425 * (xg + 1.0), 0.85 + 0.075 * (xg + 1.0)])
    wu = np.concatenate([0.425 * wg, 0.075 * wg])
    r = u ** (1.0 / (2.0 * eps))
    outer = np.abs(1.0 - r[:, None] * phase[None, :] * np.conj(z1)) ** 4
    i_outer = float(np.sum(wu[:, None] * wth / outer))

    sg, wsg = np.polynomial.legendre.leggauss(s_n)
    s = 0.5 * (sg + 1.0)
    ws = 0.5 * wsg
    inner = np.abs(np.conj(z1) - s[:, None] * phase[None, :] * np.conj(z2)) ** 4
    i_inner = float(np.sum((s * ws)[:, None] * wth / inner))

    return abs(z1) ** 2 / (2.0 * eps * np.pi ** 4 * diag) * i_outer * i_inner


def diagonal_identity_check(z, tol: float = 1e-12) -> bool:
    """Verify 1 / (pi^2 |z1|^2 K(z,z)) = (1 - |z2/z1|^2)^2 (1 - |z1|^2)^2 at z.

    Near the singular edge |z2| -> |z1| the displayed right-hand product
    cancels in 1 - |z2/z1|^2, so the tolerance widens by the forward rounding
    error of that subtraction; away from the edge it stays at ``tol``.
    """
    zp = require_inside(_HARTOGS, z)
    r1 = abs(zp[0])
    t2 = abs(zp[1] / zp[0]) ** 2
    lhs = 1.0 / (math.pi ** 2 * r1 ** 2 * _HARTOGS.diag_at(zp))
    rhs = (1.0 - t2) ** 2 * (1.0 - r1 ** 2) ** 2
    eps = np.finfo(float).eps
    eff = max(tol, 8.0 * eps / max(1.0 - t2, eps))
    return abs(lhs - rhs) <= eff * max(abs(lhs), abs(rhs))


# ---------------------------------------------------------------------------
# the L^2 norm of the transformed symbol and the blow-up table
# ---------------------------------------------------------------------------

def _phi_series(x: np.ndarray, eps: float) -> np.ndarray:
    """Phi(x) = sum_{k>=0} x^k / (k + eps) for x in [0, 1), vectorized.

    Moderate x uses the direct series; x near 1 uses the resummation
    Phi = 1/eps - log(1-x) - eps * sum_{k>=1} x^k / (k (k+eps)), whose series
    converges absolutely up to x = 1.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    lo = x < 0.95
    if np.any(lo):
        xs = x[lo]
        kmax = 60 if xs.size == 0 else max(60, int(40.0 / -math.log(max(xs.max(), 1e-12))) + 2)
        k = np.arange(kmax, dtype=float)
        out[lo] = np.sum(xs[None, :] ** k[:, None] / (k + eps)[:, None], axis=0)
    if np.any(~lo):
        xs = x[~lo]
        k = np.arange(1, 100_001, dtype=float)
        denom = (k * (k + eps))[:, None]
        corr = np.empty_like(xs)
        for i0 in range(0, len(xs), 64):
            blk = xs[i0:i0 + 64]
            corr[i0:i0 + 64] = np.sum(blk[None, :] ** k[:, None] / denom, axis=0)
        out[~lo] = 1.0 / eps - np.log1p(-xs) - eps * corr
    return out


def _bf_profile(x: np.ndarray, eps: float) -> np.ndarray:
    """The transformed symbol as a function of x = |z1|^2, in resummed form."""
    one = 1.0 - x
    return 1.0 + (1.0 - eps) * one + (1.0 - eps) ** 2 * one ** 2 * _phi_series(x, eps)


def bblowup_symbol_l2_norm(eps: float, radial_n: int = 160) -> float:
    """L^2 norm of the transformed blow-up symbol via the radial reduction.

    The profile depends on |z1| alone and each z2 fiber contributes
    pi |z1|^2, so the squared norm is pi^2 * int_0^1 x * profile(x)^2 dx.
    """
    eps = _check_eps(eps, open_right=True)
    xg, wg = np.polynomial.legendre.leggauss(radial_n)
    panels = [(0.0, 0.9, 1.0, None), (0.9, 0.999, 1.0, None), (0.999, 1.0, 3.0, "hi")]
    total = 0.0
    for lo, hi, grading, toward in panels:
        if toward is None:
            x = 0.5 * (hi - lo) * (xg + 1.0) + lo
            w = 0.5 * (hi - lo) * wg
        else:
            s = 0.5 * (xg + 1.0)
            x = hi - (hi - lo) * (1.0 - s) ** grading
            w = (hi - lo) * grading * (1.0 - s) ** (grading - 1.0) * 0.5 * wg
        prof = _bf_profile(x, eps)
        total += float(np.sum(w * x * prof * prof))
    return math.pi * math.sqrt(total)


@dataclass(frozen=True)
class BlowupRow:
    eps: float
    norm_f: float
    lower_bound_Bf: float
    ratio_lower: float
    ratio_quadrature: float


@dataclass(frozen=True)
class BlowupTable:
    rows: list[BlowupRow]
    slope: float

    def to_csv(self) -> str:
        lines = ["eps,norm_f,lower_bound_Bf,ratio_lower,ratio_quadrature"]
        for r in self.rows:
            lines.append(",".join(format(v, ".12g") for v in
                                  (r.eps, r.norm_f, r.lower_bound_Bf,
                                   r.ratio_lower, r.ratio_quadrature)))
        return "\n".join(lines) + "\n"


def blowup_table(eps_list, radial_n: int = 160) -> BlowupTable:
    """Blow-up of the transform-to-symbol norm ratio against the bound 1/sqrt(15 eps).

    Each row pairs the closed-form norm of blowup_symbol with the analytic lower
    bound (1/eps) ||(1-|z1|^2)^2||_2 and the quadrature value of the actual
    ratio.  The fitted log-log slope across the list is reported alongside.
    """
    rows = []
    for eps in eps_list:
        eps = _check_eps(eps, open_right=True)
        nf = blowup_symbol_norm(eps)
        lower = NORM_BULGE / eps
        ratio_q = bblowup_symbol_l2_norm(eps, radial_n) / nf
        rows.append(BlowupRow(eps, nf, lower, lower / nf, ratio_q))
    if len(rows) >= 2:
        slope = float(np.polyfit(np.log([r.eps for r in rows]),
                                 np.log([r.ratio_quadrature for r in rows]), 1)[0])
    else:
        slope = math.nan
    return BlowupTable(rows, slope)


# ---------------------------------------------------------------------------
# weak non-convergence of the normalized kernels along (1/j, 0)
# ---------------------------------------------------------------------------

def weak_pairing(j: int) -> float:
    """|<1/w1, k_z>| at z = (1/j, 0), from the kernel diagonal; equals pi (1 - 1/j^2)."""
    if j < 2:
        raise ValueError("j must be >= 2")
    z = (1.0 / j + 0j, 0j)
    return 1.0 / (abs(z[0]) * math.sqrt(kernel_diag(_HARTOGS, z)))


def weak_pairing_by_quadrature(j: int, rule) -> float:
    """The same pairing evaluated as an honest integral against a rule."""
    if j < 2:
        raise ValueError("j must be >= 2")
    z = (1.0 / j + 0j, 0j)
    root = math.sqrt(kernel_diag(_HARTOGS, z))
    kz = kernel_values(_HARTOGS, z, rule.nodes)
    integrand = np.conj(kz) / (rule.nodes[:, 0] * root)
    return abs(complex(np.sum(rule.weights * integrand)))
