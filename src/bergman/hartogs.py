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
from dataclasses import astuple, dataclass, fields

import numpy as np

from .domains import hartogs_triangle, kernel_diag, require_inside
from .errors import (
    EpsilonOutOfRange,
    InadmissibleIndex,
    InvalidResolution,
    NonFiniteValue,
)
from .quadrature import _angles, _gauss, _graded_panel, gauss_legendre
from .transforms import bergman_project

_HARTOGS = hartogs_triangle()

# ||(1 - |z1|^2)^2||_{L^2} on the triangle; the squared integral is pi^2/30.
NORM_BULGE = math.pi / math.sqrt(30.0)


def admissible(n, m):
    """Whether z1^n z2^m is square integrable on the triangle, elementwise over index arrays."""
    return (m >= 0) & (n + m >= -1)


def basis_coefficient(n, m):
    """Reciprocal squared norm of the basis monomial z1^n z2^m, elementwise over index arrays."""
    if not np.all(admissible(n, m)):
        raise InadmissibleIndex(f"(n, m) = ({n}, {m}) needs m >= 0 and n + m >= -1")
    return (m + 1) * (n + m + 2) / math.pi ** 2


def kernel_series(w, z, truncation: int = 90) -> complex:
    """Truncated monomial expansion of the kernel K(w, z).

    Sums basis_coefficient (w1 conj(z1))^n (w2 conj(z2))^m over k = n+m+1 and m, both up
    to ``truncation``; converges geometrically for |w1 z1| < 1 and
    |w2 z2| < |w1 z1|.
    """
    x = complex(w[0]) * complex(z[0]).conjugate()
    y = complex(w[1]) * complex(z[1]).conjugate()
    K, M = np.indices((truncation + 1, truncation + 1))
    N = K - M - 1
    terms = basis_coefficient(N, M) * np.power(x, N) * np.power(y, M)
    return complex(np.sum(terms))


# ---------------------------------------------------------------------------
# the symbol family |w1|^(-2 + 2 eps)
# ---------------------------------------------------------------------------

def _check_eps(eps: float, open_right: bool = False) -> float:
    eps = float(eps)
    hi_ok = eps < 1.0 if open_right else eps <= 1.0
    if not (eps > 0.0 and hi_ok):
        bracket = "(0, 1)" if open_right else "(0, 1]"
        raise EpsilonOutOfRange(f"eps must lie in {bracket}; the norm diverges at eps <= 0")
    return eps


def blowup_symbol_values(eps: float, nodes: np.ndarray) -> np.ndarray:
    """The symbol |w1|^(-2 + 2 eps) at each row of an (N, 2) array of points."""
    eps = _check_eps(eps)
    W = np.asarray(nodes)
    return np.abs(W[:, 0]) ** (2.0 * eps - 2.0)


def blowup_symbol_norm(eps: float) -> float:
    """Closed-form L^2 norm of the blow-up symbol: pi / sqrt(2 eps)."""
    eps = _check_eps(eps)
    return math.pi / math.sqrt(2.0 * eps)


# ---------------------------------------------------------------------------
# closed-form Berezin transform of the blow-up symbol
# ---------------------------------------------------------------------------

def berezin_blowup_closed(eps: float, z) -> float:
    """Closed-form transform of the blow-up symbol; depends on z only through |z1|.

    The series (1 - x)^2 sum_k (k+1)^2 x^k / (k + eps) at x = |z1|^2, in the
    resummed form of ``_bf_profile``, which holds up to the edge |z1| -> 1.
    """
    eps = _check_eps(eps)
    zp = require_inside(_HARTOGS, z)
    return float(_bf_profile(np.array([1.0 - abs(zp[0]) ** 2]), eps)[0])


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
    if angular_n < 1:
        raise InvalidResolution(f"angular_n must be >= 1, got {angular_n}")
    diag = kernel_diag(_HARTOGS, zp)
    th, wth = _angles(angular_n)
    phase = np.exp(1j * th)

    xg, wg = gauss_legendre(radial_n)
    u = np.concatenate([0.425 * (xg + 1.0), 0.85 + 0.075 * (xg + 1.0)])
    wu = np.concatenate([0.425 * wg, 0.075 * wg])
    r = u ** (1.0 / (2.0 * eps))
    outer = np.abs(1.0 - r[:, None] * phase[None, :] * np.conj(z1)) ** 4
    i_outer = float(np.sum(wu[:, None] * wth / outer))

    s, ws = _gauss(s_n, 0.0, 1.0)
    inner = np.abs(np.conj(z1) - s[:, None] * phase[None, :] * np.conj(z2)) ** 4
    i_inner = float(np.sum((s * ws)[:, None] * wth / inner))

    return abs(z1) ** 2 / (2.0 * eps * np.pi ** 4 * diag) * i_outer * i_inner


# ---------------------------------------------------------------------------
# the L^2 norm of the transformed symbol and the blow-up table
# ---------------------------------------------------------------------------

PHI_SPLIT = 0.5  # Phi is summed directly below x = PHI_SPLIT, by DLMF 15.8.10 from there on
PHI_TERMS = 60  # terms of either series
_K = np.arange(PHI_TERMS, dtype=float)
# the digamma gaps recur down from k = _PSI_TOP, where the 4 terms of DLMF 5.11.2
# leave a relative error below 1e-19
_PSI_TOP = PHI_TERMS + 15
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30)  # B_2, B_4, B_6, B_8


def _psi_gaps(eps: float) -> np.ndarray:
    """psi(k + 1) - psi(k + eps) for k < PHI_TERMS, free of cancellation.

    With h = 1 - eps, psi(x + 1) = psi(x) + 1/x gives the gap at k as the gap
    at T = _PSI_TOP plus h sum_{k<=m<T} 1 / ((m + eps)(m + 1)), a sum of
    positive terms taken from the small end.  The gap at T comes from the
    asymptotic series (DLMF 5.11.2) with a = T + 1, b = T + eps and
    L = ln(b/a) = log1p(-h/a):

        psi(a) - psi(b) = -L + h/(2ab) - sum_n B_2n/(2n) b^-2n expm1(2n L).

    Every term carries the factor h itself, so no two nearly equal numbers
    are subtracted, even as eps -> 1.
    """
    h = 1.0 - eps
    a, b = _PSI_TOP + 1.0, _PSI_TOP + eps
    L = math.log1p(-h / a)
    top = -L + h / (2.0 * a * b) - sum(B / (2 * n) * b ** (-2 * n) * math.expm1(2 * n * L)
                                       for n, B in enumerate(_BERNOULLI, 1))
    m = np.arange(_PSI_TOP - 1, -1, -1, dtype=float)
    return np.cumsum(np.concatenate([[top], h / ((m + eps) * (m + 1.0))]))[::-1][:PHI_TERMS]


def _phi_series(t: np.ndarray, eps: float) -> np.ndarray:
    """Phi(x) = sum_{k>=0} x^k / (k + eps) = 2F1(1, eps; 1 + eps; x) / eps at x = 1 - t.

    Taking t in (0, 1] rather than x keeps the distance to the pole x = 1
    exact for nodes crowding it (and 1 - t is exact where x is needed).
    Below x = PHI_SPLIT the power series is summed directly; from there on,
    the logarithmic case c - a - b = 0 of the expansion about x = 1 (DLMF
    15.8.10 with a = 1, b = eps, c = 1 + eps):

        Phi(x) = sum_k (eps)_k / k! [psi(k+1) - psi(k+eps) - ln t] t^k,

    with the digamma gaps from ``_psi_gaps``, its terms summed from the smallest.
    Both series have positive terms with ratios at most 1/2, so PHI_TERMS
    terms leave a tail below 2^-59 of the sum.  A general ``hyp2f1`` is not
    used: a common library one returns 1.15e17 at eps = 0.01, x = 1 - 1e-14,
    where Phi is 132.2.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    direct = t > 1.0 - PHI_SPLIT
    # each branch builds its coefficients only when it has points
    if np.any(direct):
        x = 1.0 - t[direct]
        out[direct] = np.sum(x[None, :] ** _K[:, None] / (_K + eps)[:, None], axis=0)
    if not np.all(direct):
        near = t[~direct]
        # (eps)_k / k! = prod_{j<k} (j + eps) / (j + 1)
        rising = np.cumprod(np.concatenate([[1.0], (_K[:-1] + eps) / _K[1:]]))
        terms = (rising[:, None] * (_psi_gaps(eps)[:, None] - np.log(near)[None, :])
                 * near[None, :] ** _K[:, None])
        out[~direct] = np.sum(terms[::-1], axis=0)  # smallest terms first
    return out


def _bf_profile(t: np.ndarray, eps: float) -> np.ndarray:
    """The transformed symbol as a function of t = 1 - |z1|^2, in resummed form."""
    return 1.0 + (1.0 - eps) * t + (1.0 - eps) ** 2 * t ** 2 * _phi_series(t, eps)


# panels (t_lo, t_hi, grading toward t = 0) of the radial integral in t = 1 - |z1|^2
L2_PANELS = ((0.1, 1.0, 1.0), (0.001, 0.1, 1.0), (0.0, 0.001, 3.0))


def bblowup_symbol_l2_norm(eps: float, radial_n: int = 160) -> float:
    """L^2 norm of the transformed blow-up symbol via the radial reduction.

    The profile depends on |z1| alone and each z2 fiber contributes
    pi |z1|^2, so the squared norm is pi^2 * int_0^1 x * profile(x)^2 dx,
    integrated in t = 1 - x over L2_PANELS with ``radial_n`` Gauss nodes each.
    """
    eps = _check_eps(eps, open_right=True)
    total = 0.0
    with np.errstate(over="ignore"):  # an overflow is refused below
        for lo, hi, grading in L2_PANELS:
            t, w = _graded_panel(radial_n, lo, hi, grading, "lo")
            prof = _bf_profile(t, eps)
            total += float(np.sum(w * (1.0 - t) * prof * prof))
    norm = math.pi * math.sqrt(total)
    if not math.isfinite(norm):
        raise NonFiniteValue(f"the transformed symbol's L^2 norm overflows at eps = {eps!r}")
    return norm


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
        lines = [",".join(f.name for f in fields(BlowupRow))]
        lines += [",".join(format(v, ".12g") for v in astuple(r)) for r in self.rows]
        return "\n".join(lines) + "\n"


def blowup_table(eps_list, radial_n: int = 160) -> BlowupTable:
    """Blow-up of the transform-to-symbol norm ratio against the bound 1/sqrt(15 eps).

    Each row pairs the closed-form norm of the blow-up symbol with the analytic lower
    bound (1/eps) ||(1-|z1|^2)^2||_2 and the quadrature value of the actual
    ratio.  The fitted log-log slope across the list is reported alongside.
    """
    rows = []
    for eps in eps_list:
        eps = _check_eps(eps, open_right=True)
        nf = blowup_symbol_norm(eps)
        lower = NORM_BULGE / eps
        # the norm overflows, and raises, at eps below ~1e-154, before any other entry can
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
    """The same pairing as an honest integral against a rule: |P[1/w1](z)| / sqrt(K(z,z))."""
    if j < 2:
        raise ValueError("j must be >= 2")
    z = (1.0 / j + 0j, 0j)
    projected = bergman_project(_HARTOGS, lambda w: 1.0 / w[:, 0], z, rule)
    return abs(projected) / math.sqrt(kernel_diag(_HARTOGS, z))
