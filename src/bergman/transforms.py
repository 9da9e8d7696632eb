"""The Berezin transform, its adjoint, and the Bergman projections.

Each operator is one weighted kernel sum over the rule's nodes w_j, evaluated in
blocks by ``quadrature._kernel_sums``: a kernel form F(w_j, z) (|K|^2, ``_modulus``
|K| or conj K) times one coefficient per node (the weight times the symbol's value,
over K(w_j, w_j) for the adjoint), then a 1/K(z, z) scale for the Berezin transform.
A symbol is a callable of the nodes, an ndarray of one value per node, or a
GridFunction, read by ``quadrature.evaluate_on_rule``: ValueError for a wrong
length or another rule's GridFunction, NonFiniteValue for NaN or infinity,
TypeError for anything else, and ValueError for a rule of another domain too.
"""

from __future__ import annotations

import functools
import inspect
from typing import Callable, Union

import numpy as np

from .domains import DomainSpec, disc
from .quadrature import (GridFunction, QuadratureRule, _csum, _kernel_sums, _points_on_rule,
                         evaluate_on_rule)

Symbol = Union[Callable, np.ndarray, GridFunction]


def _on_points(op):
    """The operators' front door: ``z`` is one point (the result is a Python number) or an
    (M, dim) array of points inside ``domain`` (an (M,) array), on a rule built for it."""
    signature = inspect.signature(op)
    @functools.wraps(op)
    def front(*args, **kwargs):
        call = signature.bind(*args, **kwargs).arguments
        Z, single = _points_on_rule(call["domain"], call["z"], call["rule"])
        sums = op(**call | {"z": Z})
        return sums[0].item() if single else sums
    return front


def _modulus(domain: DomainSpec):
    """The kernel form |K|, the root of ``domain.kernel_abs2`` taken in its own storage."""
    def modulus(a, b):
        k2 = domain.kernel_abs2(a, b)
        return np.sqrt(k2, out=k2)
    return modulus


def _per_diag(domain: DomainSpec, Z: np.ndarray, rule: QuadratureRule, coef: np.ndarray):
    """sum_j coef_j |K(w_j, z)|^2 / K(z, z) per point z of Z, divided after summing."""
    diag = domain.positive_diag(Z)
    sums = _kernel_sums(domain.kernel_abs2, rule, Z, coef)
    sums.real /= diag
    sums.imag /= diag
    return sums


@_on_points
def berezin(domain: DomainSpec, phi: Symbol, z, rule: QuadratureRule):
    """B phi(z) = int phi(w) |k_z(w)|^2 dV(w) by quadrature on ``rule``; ``z`` is one point
    (the result is a complex) or an (M, dim) array of points (an (M,) complex array)."""
    return _per_diag(domain, z, rule, rule.weights * evaluate_on_rule(rule, phi))


@_on_points
def unit_mass(domain: DomainSpec, z, rule: QuadratureRule):
    """||k_z||^2 = B1(z) = int |K(w,z)|^2 / K(z,z) dV(w) on ``rule``, real valued.

    On a rule built with ``factors``, the weights, |K|^2 and K(z, z) are
    products over the factors in the coordinates ``domain.factor_points``, so
    the same quadrature sum is the product of the disc B1 on each factor rule:
    O(M sum n_i) work instead of O(M prod n_i).  Other rules take the blocked
    pass of ``berezin``.
    """
    if not rule.factors:
        return _per_diag(domain, z, rule, rule.weights).real
    P = domain.factor_points(z)
    return np.prod([_per_diag(disc(), P[:, i:i + 1], factor, factor.weights).real
                    for i, factor in enumerate(rule.factors)], axis=0)


@_on_points
def berezin_adjoint(domain: DomainSpec, psi: Symbol, z, rule: QuadratureRule):
    """Adjoint transform K(z,z) int |k_z(w)|^2 psi(w) / K(w,w) dV(w).

    This is the multiplication-conjugated form of the Berezin transform; on
    the disc it sends the constant 1 to 1/3 at the origin, witnessing that
    the transform is not self-adjoint.  K(w, w) is evaluated once per rule
    (``QuadratureRule.node_diag``).
    """
    domain.positive_diag(z)  # validates the running positivity assumption at z
    vals = evaluate_on_rule(rule, psi)
    coef = rule.weights / rule.node_diag  # times psi in place: no further whole-rule array
    coef = np.multiply(coef, vals, out=None if np.iscomplexobj(vals) else coef)
    return _kernel_sums(domain.kernel_abs2, rule, z, coef)


@_on_points
def absolute_projection(domain: DomainSpec, f: Symbol, z, rule: QuadratureRule):
    """P+ f(z) = int |K(z, w)| |f(w)| dV(w); the symbol enters through |f|; real valued."""
    coef = rule.weights * np.abs(evaluate_on_rule(rule, f))
    return _kernel_sums(_modulus(domain), rule, z, coef).real


@_on_points
def bergman_project(domain: DomainSpec, f: Symbol, z, rule: QuadratureRule):
    """P f(z) = int K(z, w) f(w) dV(w); the identity on sampled holomorphic functions."""
    def conj_kernel(a, b):  # K(z, w) as conj K(w, z): the two differ in the last bit on most kinds
        k = domain.kernel(a, b)
        return np.conj(k, out=k)
    return _kernel_sums(conj_kernel, rule, z, rule.weights * evaluate_on_rule(rule, f))


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
