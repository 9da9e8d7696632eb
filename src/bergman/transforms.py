"""The Berezin transform, its adjoint, and the Bergman projections.

Everything here is a quadrature evaluation of an integral against the kernel
machinery in :mod:`bergman.domains`; operators on the Bergman space are
represented by their matrices in an explicit orthonormal basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from . import hartogs as _hartogs
from .domains import DomainSpec, domain_by_name, inside_points, require_inside
from .errors import NonFiniteSymbol, TruncationInsufficient, UnsupportedKind
from .quadrature import GridFunction, QuadratureRule, _kernel_sums, compensated_sum


@dataclass(frozen=True)
class OperatorSymbol:
    """A symbol phi with its declared integrability class.

    ``kind`` is "bounded" or "p-integrable"; the callable receives an (N,)
    complex array on one-dimensional domains and an (N, dim) array otherwise.
    """

    fn: Callable
    kind: str = "bounded"
    p: Optional[float] = None
    name: str = ""


Symbol = Union[OperatorSymbol, Callable]


def bounded(fn: Callable, name: str = "") -> OperatorSymbol:
    return OperatorSymbol(fn, "bounded", None, name)


def p_integrable(fn: Callable, p: float, name: str = "") -> OperatorSymbol:
    return OperatorSymbol(fn, "p-integrable", p, name)


def _eval_nodes(rule: QuadratureRule) -> np.ndarray:
    return rule.nodes[:, 0] if rule.dim == 1 else rule.nodes


def symbol_values(phi: Symbol, rule: QuadratureRule) -> np.ndarray:
    if isinstance(phi, GridFunction):
        vals = phi.values_on(rule)
    elif isinstance(phi, np.ndarray):
        vals = phi
    else:
        fn = phi.fn if isinstance(phi, OperatorSymbol) else phi
        vals = np.asarray(fn(_eval_nodes(rule)))
    if vals.shape != (len(rule),):
        raise NonFiniteSymbol("symbol must produce one value per node")
    if not np.all(np.isfinite(vals)):
        raise NonFiniteSymbol("symbol is not finite at some quadrature node")
    return vals


def _csum(values: np.ndarray) -> complex:
    if np.iscomplexobj(values):
        return complex(compensated_sum(values.real), compensated_sum(values.imag))
    return complex(compensated_sum(values), 0.0)


def berezin(domain: DomainSpec, phi: Symbol, z, rule: QuadratureRule):
    """B phi(z) = int phi(w) |k_z(w)|^2 dV(w) by quadrature on ``rule``.

    ``z`` is one point (the result is a complex) or an (M, dim) array of
    points (the result is an (M,) complex array); the same holds for the
    adjoint and both projections.
    """
    Z, single = inside_points(domain, z)
    diag = domain.positive_diag(Z)
    vals = symbol_values(phi, rule)
    w = rule.weights
    sums = _kernel_sums(domain, rule, Z,
                        lambda k, s, r: w[s] * (np.abs(k) ** 2 / diag[r, None]) * vals[s])
    return complex(sums[0]) if single else sums


def berezin_adjoint(domain: DomainSpec, psi: Symbol, z, rule: QuadratureRule):
    """Adjoint transform K(z,z) int |k_z(w)|^2 psi(w) / K(w,w) dV(w).

    This is the multiplication-conjugated form of the Berezin transform; on
    the disc it sends the constant 1 to 1/3 at the origin, witnessing that
    the transform is not self-adjoint.
    """
    Z, single = inside_points(domain, z)
    domain.positive_diag(Z)  # validates the running positivity assumption at z
    vals = symbol_values(psi, rule)
    w = rule.weights
    sums = _kernel_sums(domain, rule, Z, lambda k, s, r: (
        w[s] * np.abs(k) ** 2 * vals[s] / domain.diag(rule.nodes[s])))
    return complex(sums[0]) if single else sums


def absolute_projection(domain: DomainSpec, f: Symbol, z, rule: QuadratureRule):
    """P+ f(z) = int |K(z, w)| |f(w)| dV(w); the symbol enters through |f|; real valued."""
    Z, single = inside_points(domain, z)
    vals = np.abs(symbol_values(f, rule))
    w = rule.weights
    sums = _kernel_sums(domain, rule, Z, lambda k, s, r: w[s] * np.abs(k) * vals[s]).real
    return float(sums[0]) if single else sums


def bergman_project(domain: DomainSpec, f: Symbol, z, rule: QuadratureRule):
    """P f(z) = int K(z, w) f(w) dV(w); the identity on sampled holomorphic functions."""
    Z, single = inside_points(domain, z)
    vals = symbol_values(f, rule)
    w = rule.weights
    sums = _kernel_sums(domain, rule, Z, lambda k, s, r: w[s] * np.conj(k) * vals[s])
    return complex(sums[0]) if single else sums


def pairing(rule: QuadratureRule, f_values: np.ndarray, g_values: np.ndarray) -> complex:
    """Discrete L^2 pairing <f, g> = sum w_j f_j conj(g_j)."""
    return _csum(rule.weights * np.asarray(f_values) * np.conj(g_values))


def pointwise_domination(domain: DomainSpec, phi: Symbol, z, C: float,
                         rule: QuadratureRule) -> bool:
    """Whether |B phi(z)| <= C * P+|phi|(z) up to symmetric quadrature slack."""
    lhs = abs(berezin(domain, phi, z, rule))
    rhs = C * absolute_projection(domain, phi, z, rule)
    slack = 1e-8 + 1e-6 * max(lhs, rhs)
    return lhs <= rhs + slack


# ---------------------------------------------------------------------------
# operators in an explicit orthonormal basis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BasisOperator:
    """Matrix entries T[m][n] = <T e_n, e_m> in a truncated orthonormal basis.

    ``basis`` is "disc" (monomials z^n, n <= truncation) or "hartogs"
    (bi-indexed monomials ordered by k = n+m+1 then m, both capped at
    truncation).  ``matrix`` may be None for the identity operator.
    """

    basis: str
    truncation: int
    matrix: Optional[np.ndarray] = None

    def __post_init__(self):
        k = len(basis_indices(self.basis, self.truncation))
        if self.matrix is not None:
            m = np.asarray(self.matrix, dtype=complex)
            if m.shape != (k, k):
                raise ValueError(f"matrix must be {k} x {k} for this basis")
            if not np.all(np.isfinite(m)):
                raise ValueError("matrix entries must be finite")
            object.__setattr__(self, "matrix", m)


def identity_operator(basis: str, truncation: int) -> BasisOperator:
    return BasisOperator(basis, truncation, None)


def diagonal_operator(basis: str, truncation: int, diag) -> BasisOperator:
    k = len(basis_indices(basis, truncation))
    return BasisOperator(basis, truncation, np.diag(np.asarray(diag, dtype=complex)[:k]))


def basis_indices(basis: str, truncation: int):
    if basis == "disc":
        return list(range(truncation + 1))
    if basis == "hartogs":
        return _hartogs.basis_indices(truncation)
    raise UnsupportedKind(f"unknown basis {basis!r}")


def basis_at(basis: str, truncation: int, z) -> np.ndarray:
    """Values e_n(z) of the orthonormal basis at one point."""
    if basis == "disc":
        z0 = complex(z[0]) if not np.isscalar(z) else complex(z)
        n = np.arange(truncation + 1)
        return np.sqrt((n + 1) / math.pi) * z0 ** n
    if basis == "hartogs":
        return _hartogs.basis_values(_hartogs.basis_indices(truncation), z)
    raise UnsupportedKind(f"unknown basis {basis!r}")


def berezin_of_operator(op: BasisOperator, z) -> complex:
    """Berezin transform <T k_z, k_z> of a basis-truncated operator.

    With u_n(z) = conj(e_n(z)) / sqrt(K(z,z)) this is the quadratic form
    sum_{m,n} T[m][n] u_n(z) conj(u_m(z)).  The captured mass sum |u_n|^2
    must be within 1e-8 of 1, else the truncation cannot represent k_z at z.
    """
    domain = domain_by_name(op.basis)
    zp = require_inside(domain, z)
    diag = domain.diag_at(zp)
    u = np.conj(basis_at(op.basis, op.truncation, zp)) / math.sqrt(diag)
    gap = 1.0 - float(np.sum(np.abs(u) ** 2))
    if gap > 1e-8:
        raise TruncationInsufficient(
            f"basis truncation {op.truncation} misses {gap:.2e} of the normalized kernel at {zp}")
    if op.matrix is None:
        return complex(np.sum(np.abs(u) ** 2))
    return complex(np.vdot(u, op.matrix @ u))


def toeplitz_matrix(domain: DomainSpec, phi: Symbol, rule: QuadratureRule,
                    truncation: int) -> BasisOperator:
    """Matrix of the Toeplitz operator f -> P(phi f) in the disc basis."""
    if domain.kind != "disc":
        raise UnsupportedKind("Toeplitz matrices are assembled on the disc basis only")
    vals = symbol_values(phi, rule)
    n = np.arange(truncation + 1)
    E = np.sqrt((n + 1) / math.pi)[None, :] * rule.nodes[:, 0][:, None] ** n[None, :]
    T = np.conj(E).T @ (E * (rule.weights * vals)[:, None])
    return BasisOperator("disc", truncation, T)
