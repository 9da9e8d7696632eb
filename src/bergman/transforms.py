"""The Berezin transform, its adjoint, and the Bergman projections.

Everything here is a quadrature evaluation of an integral against the kernel
machinery in :mod:`bergman.domains`.  A symbol is a callable of the rule's
nodes, an ndarray of one value per node, or a GridFunction, read by
``quadrature.evaluate_on_rule`` with its error contract: ValueError for a
wrong length or another rule's GridFunction, NonFiniteValue for NaN or
infinity, TypeError for anything else.  A rule built for another domain
raises ValueError too (``quadrature._points_on_rule``).
"""

from __future__ import annotations

from typing import Callable, Union

import numpy as np

from .domains import DomainSpec, disc
from .quadrature import (GridFunction, QuadratureRule, _csum, _kernel_sums, _points_on_rule,
                         evaluate_on_rule)

Symbol = Union[Callable, np.ndarray, GridFunction]

_DISC = disc()


def _times(block: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """block * vals, written into ``block`` unless ``vals`` is complex."""
    return block * vals if np.iscomplexobj(vals) else np.multiply(block, vals, out=block)


def _berezin_sums(domain: DomainSpec, Z: np.ndarray, rule: QuadratureRule, vals=None):
    """Per point of Z, sum_j w_j |K(w_j, z)|^2 / K(z, z) phi_j with phi_j = ``vals``, or 1."""
    diag = domain.positive_diag(Z)
    w = rule.weights

    def summand(k2, s, r):  # each step in place on the |K|^2 block
        np.divide(k2, diag[r, None], out=k2)
        np.multiply(k2, w[s], out=k2)
        return k2 if vals is None else _times(k2, vals[s])
    return _kernel_sums(domain.kernel_abs2, rule, Z, summand)


def berezin(domain: DomainSpec, phi: Symbol, z, rule: QuadratureRule):
    """B phi(z) = int phi(w) |k_z(w)|^2 dV(w) by quadrature on ``rule``.

    ``z`` is one point (the result is a complex) or an (M, dim) array of
    points (the result is an (M,) complex array); the same holds for the
    adjoint and both projections.
    """
    Z, single = _points_on_rule(domain, z, rule)
    sums = _berezin_sums(domain, Z, rule, evaluate_on_rule(rule, phi))
    return complex(sums[0]) if single else sums


def unit_mass(domain: DomainSpec, z, rule: QuadratureRule):
    """||k_z||^2 = B1(z) = int |K(w,z)|^2 / K(z,z) dV(w) on ``rule``, real valued.

    ``z`` follows the one-point/(M, dim) convention of ``berezin``.  On a rule
    built with ``factors``, the weights, |K|^2 and K(z, z) are products over
    the factors in the coordinates ``domain.factor_points``, so the same
    quadrature sum is the product of the disc B1 on each factor rule:
    O(M sum n_i) work instead of O(M prod n_i).  Other rules take the blocked
    pass of ``berezin``.
    """
    Z, single = _points_on_rule(domain, z, rule)
    if rule.factors:
        P = domain.factor_points(Z)
        masses = 1.0
        for i, factor in enumerate(rule.factors):
            masses = masses * _berezin_sums(_DISC, P[:, i:i + 1], factor).real
    else:
        masses = _berezin_sums(domain, Z, rule).real
    return float(masses[0]) if single else masses


def berezin_adjoint(domain: DomainSpec, psi: Symbol, z, rule: QuadratureRule):
    """Adjoint transform K(z,z) int |k_z(w)|^2 psi(w) / K(w,w) dV(w).

    This is the multiplication-conjugated form of the Berezin transform; on
    the disc it sends the constant 1 to 1/3 at the origin, witnessing that
    the transform is not self-adjoint.
    """
    Z, single = _points_on_rule(domain, z, rule)
    domain.positive_diag(Z)  # validates the running positivity assumption at z
    vals = evaluate_on_rule(rule, psi)
    w = rule.weights

    def summand(k2, s, r):
        k2 = _times(np.multiply(k2, w[s], out=k2), vals[s])
        return np.divide(k2, domain.diag(rule.nodes[s]), out=k2)
    sums = _kernel_sums(domain.kernel_abs2, rule, Z, summand)
    return complex(sums[0]) if single else sums


def absolute_projection(domain: DomainSpec, f: Symbol, z, rule: QuadratureRule):
    """P+ f(z) = int |K(z, w)| |f(w)| dV(w); the symbol enters through |f|; real valued."""
    Z, single = _points_on_rule(domain, z, rule)
    vals = np.abs(evaluate_on_rule(rule, f))
    w = rule.weights

    def summand(k2, s, r):  # |K| as the root of |K|^2
        np.sqrt(k2, out=k2)
        np.multiply(k2, w[s], out=k2)
        return np.multiply(k2, vals[s], out=k2)
    sums = _kernel_sums(domain.kernel_abs2, rule, Z, summand).real
    return float(sums[0]) if single else sums


def bergman_project(domain: DomainSpec, f: Symbol, z, rule: QuadratureRule):
    """P f(z) = int K(z, w) f(w) dV(w); the identity on sampled holomorphic functions."""
    Z, single = _points_on_rule(domain, z, rule)
    vals = evaluate_on_rule(rule, f)
    w = rule.weights
    sums = _kernel_sums(domain.kernel, rule, Z, lambda k, s, r: w[s] * np.conj(k) * vals[s])
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
