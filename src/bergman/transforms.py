"""The Berezin transform, its adjoint, and the Bergman projections.

Each operator is one weighted kernel sum over the rule's nodes w_j, evaluated in
blocks by ``quadrature._kernel_sums``: a kernel form F(w_j, z) (|K|^2, ``_modulus``
|K| or conj K) times one coefficient per node (the weight times the symbol's value,
over K(w_j, w_j) for the adjoint), then a 1/K(z, z) scale for the Berezin transform.
Each sum keeps the summation contract of ``quadrature.compensated_sum`` (an exact fsum
of the np.sum of each 1,024 summands), so a value does not depend on the number of
points or threads.  On a product rule the form reads the rule's open mesh, one array
per coordinate, so its one-coordinate terms are formed once per slab or angle.  The
coefficients are formed one kernel block of at most 32,768 nodes at a time inside that
pass, from the block's weights and, for a callable symbol alone, its nodes, which
``QuadratureRule.rows`` writes from the block's own mesh (or slices from the whole nodes
once they are formed), so no whole-rule node, symbol or coefficient array is made (the
adjoint's node diagonal aside), and B1 forms no nodes.  A symbol is a callable of the
nodes or an ndarray of one value per node, read block by block by
``quadrature.evaluate_on_rule``, so a callable receives node blocks and must act row by
row: ValueError for a wrong length, NonFiniteValue for NaN or infinity in any block,
TypeError for anything else, and ValueError for a rule of another domain too.
``pairing`` reads its two value arrays the same way.
"""

from __future__ import annotations

import functools
import inspect
from typing import Callable, Union

import numpy as np

from .domains import DomainSpec, disc
from .quadrature import QuadratureRule, _csum, _kernel_sums, _points_on_rule, evaluate_on_rule

Symbol = Union[Callable, np.ndarray]


def _on_points(op):
    """The operators' front door: ``z`` is one point (the result is a Python number) or an
    (M, dim) array of points inside ``domain`` (an (M,) array), on a rule built for it.  Every
    operator takes (domain, ..., z, rule); a call giving them all by position binds nothing."""
    signature = inspect.signature(op)
    @functools.wraps(op)
    def front(*args, **kwargs):
        if kwargs or len(args) != len(signature.parameters):
            args = signature.bind(*args, **kwargs).args
        Z, single = _points_on_rule(args[0], args[-2], args[-1])
        sums = op(*args[:-2], Z, args[-1])
        return sums[0].item() if single else sums
    return front


def _modulus(domain: DomainSpec):
    """The kernel form |K|, the root of ``domain.kernel_abs2`` taken in its own storage."""
    def modulus(a, b):
        k2 = domain.kernel_abs2(a, b)
        return np.sqrt(k2, out=k2)
    return modulus


def _weighted(rule: QuadratureRule, f: Symbol, read=lambda values: values):
    """The coefficients of ``_kernel_sums``: a block's rows, weights and mesh to
    w_j read(f(w_j)) there."""
    return lambda rows, weights, block: weights * read(evaluate_on_rule(rule, f, rows, block))


def _unit(rows, weights, block):
    """The coefficients of B1 for ``_kernel_sums``: the weights, which need no nodes."""
    return weights


def _per_diag(domain: DomainSpec, Z: np.ndarray, rule: QuadratureRule, coef):
    """sum_j c_j |K(w_j, z)|^2 / K(z, z) per point z of Z, divided after summing; ``coef``
    maps the rows, weights and mesh of a block to their c_j, as in ``_kernel_sums``."""
    diag = domain.positive_diag(Z)
    sums = _kernel_sums(domain.kernel_abs2, rule, Z, coef)
    sums.real /= diag
    sums.imag /= diag
    return sums


@_on_points
def berezin(domain: DomainSpec, phi: Symbol, z, rule: QuadratureRule):
    """B phi(z) = int phi(w) |k_z(w)|^2 dV(w) by quadrature on ``rule``; ``z`` is one point
    (the result is a complex) or an (M, dim) array of points (an (M,) complex array)."""
    return _per_diag(domain, z, rule, _weighted(rule, phi))


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
        return _per_diag(domain, z, rule, _unit).real
    P = domain.factor_points(z)
    return np.prod([_per_diag(disc(), P[:, i:i + 1], factor, _unit).real
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
    diag = rule.node_diag  # formed here, not by the first of several pooled chunks

    def coef(rows, weights, block):
        vals = evaluate_on_rule(rule, psi, rows, block)
        c = weights / diag[rows]  # times psi in place where psi is real
        return np.multiply(c, vals, out=None if np.iscomplexobj(vals) else c)
    return _kernel_sums(domain.kernel_abs2, rule, z, coef)


@_on_points
def absolute_projection(domain: DomainSpec, f: Symbol, z, rule: QuadratureRule):
    """P+ f(z) = int |K(z, w)| |f(w)| dV(w); the symbol enters through |f|; real valued."""
    return _kernel_sums(_modulus(domain), rule, z, _weighted(rule, f, np.abs)).real


@_on_points
def bergman_project(domain: DomainSpec, f: Symbol, z, rule: QuadratureRule):
    """P f(z) = int K(z, w) f(w) dV(w); the identity on sampled holomorphic functions."""
    def conj_kernel(a, b):  # K(z, w) as conj K(w, z): the two differ in the last bit on most kinds
        k = domain.kernel(a, b)
        return np.conj(k, out=k)
    return _kernel_sums(conj_kernel, rule, z, _weighted(rule, f))


def pairing(rule: QuadratureRule, f_values: np.ndarray, g_values: np.ndarray) -> complex:
    """Discrete L^2 pairing <f, g> = sum w_j f_j conj(g_j) of two arrays of one value per
    node, each read by ``evaluate_on_rule`` (ValueError, NonFiniteValue)."""
    f, g = (evaluate_on_rule(rule, v) for v in (f_values, g_values))
    return _csum(rule.weights * f * np.conj(g))


def pointwise_domination(domain: DomainSpec, phi: Symbol, z, C: float,
                         rule: QuadratureRule) -> bool:
    """Whether |B phi(z)| <= C * P+|phi|(z) up to symmetric quadrature slack."""
    lhs = abs(berezin(domain, phi, z, rule))
    rhs = C * absolute_projection(domain, phi, z, rule)
    slack = 1e-8 + 1e-6 * max(lhs, rhs)
    return lhs <= rhs + slack
