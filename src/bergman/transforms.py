"""The Berezin transform, its adjoint, and the Bergman projections.

Everything here is a quadrature evaluation of an integral against the kernel
machinery in :mod:`bergman.domains`.  A symbol is a callable of the rule's
nodes, an ndarray of one value per node, or a GridFunction.
"""

from __future__ import annotations

from typing import Callable, Union

import numpy as np

from .domains import DomainSpec, inside_points
from .errors import NonFiniteSymbol
from .quadrature import GridFunction, QuadratureRule, _kernel_sums, compensated_sum

Symbol = Union[Callable, np.ndarray, GridFunction]


def _eval_nodes(rule: QuadratureRule) -> np.ndarray:
    return rule.nodes[:, 0] if rule.dim == 1 else rule.nodes


def symbol_values(phi: Symbol, rule: QuadratureRule) -> np.ndarray:
    if isinstance(phi, GridFunction):
        vals = phi.values_on(rule)
    elif isinstance(phi, np.ndarray):
        vals = phi
    else:
        vals = np.asarray(phi(_eval_nodes(rule)))
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
