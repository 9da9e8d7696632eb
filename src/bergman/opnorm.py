"""Discrete L^p operator norms for the Berezin transform and P+.

A pointwise Nystrom matrix of a kernel with boundary-concentrating
singularities only estimates the operator norm on grids it actually resolves;
its naive 2-norm diverges as unresolved deep nodes enter (single-node spikes
carry weight w_i K(z_i, z_i) -> infinity).  For rotation-invariant domains the
transform splits into angular Fourier sectors, so the meaningful discrete
L^2 norm is computed on the radial sector matrices, where boundary depth
1e-14 is reachable and the sector 0 norm dominates.

For p outside {2, infinity} matrix p-norms are NP-hard in general; this
module reports certified lower bounds (dual-ascent power scheme plus a
radial-power witness sweep) and labels them as such.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import jsonfmt
from .domains import (
    DomainSpec,
    disc,
    kernel_diag,
    kernel_diag_values,
    kernel_values,
)
from .errors import EmptyFamily, NonpositiveDiagonal, UnsupportedKind
from .quadrature import QuadratureRule, tail_exponent_classify


@dataclass(frozen=True)
class OperatorMatrix:
    """Kernel samples A[i][j] with column quadrature data.

    The discrete action is (A phi)(z_i) = sum_j A[i][j] w_j phi(w_j).  Row
    nodes may differ from the column nodes (an interior evaluation grid keeps
    every row resolvable by the column rule).
    """

    entries: np.ndarray
    row_nodes: np.ndarray
    col_nodes: np.ndarray
    col_weights: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.entries.shape != (self.row_nodes.shape[0], self.col_nodes.shape[0]):
            raise ValueError("entry shape does not match the node sets")
        if not np.all(np.isfinite(self.entries)):
            raise ValueError("matrix entries must be finite")

    @property
    def is_square(self) -> bool:
        return self.entries.shape[0] == self.entries.shape[1]

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self.entries @ (self.col_weights * np.asarray(values))

    def row_sums(self) -> np.ndarray:
        return self.entries @ self.col_weights


def discretize_berezin(domain: DomainSpec, rule: QuadratureRule,
                       row_nodes: Optional[np.ndarray] = None) -> OperatorMatrix:
    """A[i][j] = |K(w_j, z_i)|^2 / K(z_i, z_i) on the rule's nodes.

    With ``row_nodes`` unset the matrix is square on the rule itself; pass an
    interior subset when row sums must reproduce B1 = 1 at quadrature accuracy.
    """
    rows = rule.nodes if row_nodes is None else np.asarray(row_nodes)
    if rows.ndim == 1:
        rows = rows[:, None]
    diag = kernel_diag_values(domain, rows)
    if np.any(diag <= 0.0) or not np.all(np.isfinite(diag)):
        raise NonpositiveDiagonal("K(z, z) must be positive at every row node")
    out = np.empty((rows.shape[0], len(rule)))
    for i, zrow in enumerate(rows):
        out[i] = np.abs(kernel_values(domain, tuple(zrow), rule.nodes)) ** 2 / diag[i]
    meta = {"domain": str(domain), "kind": "berezin", "reduction": "pointwise",
            "rule_shape": rule.meta.shape, "rows": rows.shape[0], "cols": len(rule)}
    return OperatorMatrix(out, rows, rule.nodes, rule.weights, meta)


def _log_radial_grid(n: int, depth: float):
    """Gauss nodes in tau = -log(1 - u); returns (u, eta=1-u, du weights)."""
    x, w = np.polynomial.legendre.leggauss(n)
    tau = 0.5 * depth * (x + 1.0)
    eta = np.exp(-tau)
    return 1.0 - eta, eta, eta * (0.5 * depth * w)


def _berezin_sector_kernel(x, eta_x, u, eta_u, sector: int):
    X, U = np.meshgrid(x, u, indexing="ij")
    EX, EU = np.meshgrid(eta_x, eta_u, indexing="ij")
    one_minus_xu = EX + EU - EX * EU  # 1 - xu without cancellation
    g = (1.0 + X * U) / one_minus_xu ** 3
    if sector:
        g = (X * U) ** (sector / 2.0) * (g + sector / one_minus_xu ** 2)
    return EX ** 2 * g


def discretize_berezin_radial(radial_n: int = 200, depth: float = 34.0,
                              sector: int = 0) -> OperatorMatrix:
    """Angular-sector reduction of the disc Berezin transform.

    Nodes are radii on a log-graded grid reaching boundary distance
    exp(-depth); entries are the exact angular average of the kernel in the
    given rotation sector.  Sector norms decrease with the sector index, so
    sector 0 carries the operator norm.
    """
    u, eta, du = _log_radial_grid(radial_n, depth)
    entries = _berezin_sector_kernel(u, eta, u, eta, sector) / math.pi
    nodes = np.sqrt(u).astype(complex)[:, None]
    meta = {"domain": "disc(1)", "kind": "berezin", "reduction": "radial-sector",
            "sector": sector, "radial_n": radial_n, "depth": depth,
            "rows": radial_n, "cols": radial_n}
    w = math.pi * du
    m = OperatorMatrix(entries, nodes, nodes, w, meta)
    return m


def discretize_absolute_radial(radial_n: int = 160, depth: float = 30.0,
                               sector: int = 0) -> OperatorMatrix:
    """Angular-sector reduction of the disc absolute projection P+."""
    u, eta, du = _log_radial_grid(radial_n, depth)
    X, U = np.meshgrid(u, u, indexing="ij")
    EX, EU = np.meshgrid(eta, eta, indexing="ij")
    one_minus_xu = EX + EU - EX * EU
    entries = (X * U) ** (sector / 2.0) / one_minus_xu / math.pi
    nodes = np.sqrt(u).astype(complex)[:, None]
    meta = {"domain": "disc(1)", "kind": "absolute", "reduction": "radial-sector",
            "sector": sector, "radial_n": radial_n, "depth": depth,
            "rows": radial_n, "cols": radial_n}
    return OperatorMatrix(entries, nodes, nodes, math.pi * du, meta)


# ---------------------------------------------------------------------------
# norm estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormEstimate:
    value: float
    p: float
    method: str
    bound_kind: str
    resolution: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return jsonfmt.dumps({
            "value": float(self.value),
            "p": float(self.p),
            "method": self.method,
            "bound_kind": self.bound_kind,
            "resolution": self.resolution,
        })

    @staticmethod
    def from_json(text: str) -> "NormEstimate":
        d = json.loads(text)
        return NormEstimate(float(d["value"]), jsonfmt.parse_p(d["p"]),
                            d["method"], d["bound_kind"], d["resolution"])


def _weighted_pnorm(w, values, p):
    v = np.abs(np.asarray(values))
    if math.isinf(p):
        return float(np.max(v))
    return float(np.sum(w * v ** p) ** (1.0 / p))


def _dual_ascent_pnorm(M: np.ndarray, p: float, x0: np.ndarray,
                       tol: float = 1e-10, max_iter: int = 300):
    """Power scheme for the induced p-norm of an unweighted matrix.

    Produces a monotone sequence of lower bounds; for entrywise nonnegative M
    and a positive start it converges to a stationary ratio.
    """
    q = p / (p - 1.0)
    x = np.abs(x0)
    x /= np.linalg.norm(x, ord=p)
    best = 0.0
    converged = False
    iters = 0
    for iters in range(1, max_iter + 1):
        y = M @ x
        gamma = float(np.linalg.norm(y, ord=p))
        if gamma == 0.0:
            converged = True
            break
        z = M.T @ (np.abs(y) ** (p - 1.0) * np.sign(y))
        stalled = iters > 1 and gamma <= best * (1.0 + tol)
        best = max(best, gamma)
        if stalled or np.linalg.norm(z, ord=q) <= float(z @ x) * (1.0 + 1e-14):
            converged = True
            break
        x = np.abs(z) ** (q - 1.0) * np.sign(z)
        x /= np.linalg.norm(x, ord=p)
    return best, converged, iters


def estimate_norm(A: OperatorMatrix, p: float) -> NormEstimate:
    """Discrete weighted L^p -> L^p norm of the operator matrix.

    p = 2 is the largest singular value of the weight-symmetrized matrix and
    p = infinity the maximal weighted row sum, both exact for the discrete
    operator; other p yield certified lower bounds (dual ascent refined by a
    radial-power witness sweep when column nodes expose radii).
    """
    if not 1.0 < p:
        raise ValueError("p must lie in (1, infinity]")
    w = A.col_weights
    res = dict(A.meta)
    if math.isinf(p):
        # the entries built here are nonnegative, so the row sums are the absolute row sums
        value = float(np.max(A.row_sums()))
        res["converged"] = True
        return NormEstimate(value, p, "max-row-sum", "exact", res)
    if A.entries.shape[0] != A.entries.shape[1]:
        raise ValueError("finite-p estimation needs a square matrix (rows = columns)")
    if p == 2.0:
        root = np.sqrt(w)
        S = root[:, None] * A.entries * root[None, :]
        if S.shape[0] <= 4000:
            value = float(np.linalg.svd(S, compute_uv=False)[0])
            res["converged"] = True
        else:
            value, conv = _power_sigma(S, np.sqrt(w))
            res["converged"] = conv
        return NormEstimate(value, p, "weighted-svd", "approximate", res)

    # weighted induced p-norm via M = W^(1/p) A W^(1/q)
    q = p / (p - 1.0)
    M = w[:, None] ** (1.0 / p) * A.entries * w[None, :] ** (1.0 / q)
    best, converged, iters = _dual_ascent_pnorm(M, p, x0=w.copy())
    method = "p-power-iteration"
    res.update({"converged": converged, "iterations": iters})
    try:
        wit = witness_lower_bound(disc(), p, matrix=A)
        if wit.value > best:
            best = wit.value
            method = "witness-sweep"
            res["witness"] = wit.resolution.get("witness")
    except (UnsupportedKind, EmptyFamily):
        pass
    return NormEstimate(best, p, method, "lower", res)


def _power_sigma(S: np.ndarray, start: np.ndarray, tol: float = 1e-12,
                 max_iter: int = 5000):
    """Largest singular value by power iteration on S^T S."""
    v = start / np.linalg.norm(start)
    sigma = 0.0
    for _ in range(max_iter):
        v_new = S.T @ (S @ v)
        nrm = float(np.linalg.norm(v_new))
        if nrm == 0.0:
            return 0.0, True
        new_sigma = math.sqrt(nrm)
        v = v_new / nrm
        if abs(new_sigma - sigma) <= tol * new_sigma:
            return new_sigma, True
        sigma = new_sigma
    return sigma, False


DEFAULT_WITNESS_POWERS = (0.0, 1.0, 2.0)
DEFAULT_WITNESS_BOUNDARY = (0.0, -0.1, -0.2, -0.25, -0.3, -0.32, -0.333,
                            -0.4, -0.45, -0.48, -0.49, -0.499)


def witness_lower_bound(domain: DomainSpec, p: float, family=None,
                        matrix: Optional[OperatorMatrix] = None,
                        rule: Optional[QuadratureRule] = None) -> NormEstimate:
    """Lower bound for the Berezin p-norm from a concrete witness family.

    The default family is the radial powers |z1|^a (1 - |z|^2)^b; each member
    is screened for membership in L^p by power comparison, and the ratios
    ||B f||_p / ||f||_p are evaluated through the discrete operator, so the
    bound never exceeds the matched discrete norm.  On the Hartogs triangle
    ``family=("hartogs-blowup", eps_list)`` sweeps the symbols |w1|^(-2+2 eps),
    whose L^2 ratios grow without bound as eps shrinks.
    """
    if isinstance(family, tuple) and len(family) == 2 and family[0] == "hartogs-blowup":
        return _blowup_witness(domain, p, family[1])
    if family is None:
        family = [(a, b) for a in DEFAULT_WITNESS_POWERS for b in DEFAULT_WITNESS_BOUNDARY]
    if matrix is None:
        if rule is None:
            raise ValueError("witness sweep needs a matrix or a rule")
        matrix = discretize_berezin(domain, rule)
    family = list(family)
    if not family:
        raise EmptyFamily("no witness parameters supplied")
    if not math.isinf(p) and matrix.entries.shape[0] != matrix.entries.shape[1]:
        raise ValueError("finite-p witness ratios need a square matrix")
    if matrix.meta.get("reduction") == "radial-sector":
        u = np.real(matrix.col_nodes[:, 0]) ** 2
    else:
        u = np.sum(np.abs(matrix.col_nodes) ** 2, axis=1)
    x1 = np.abs(matrix.col_nodes[:, 0])
    w = matrix.col_weights

    best = -math.inf
    best_params = None
    tested = 0
    for a, b in family:
        if math.isinf(p):
            if b < 0 or a < 0:
                continue  # unbounded witnesses are not in L^infinity
        elif not tail_exponent_classify([(p * b, "zero"), (p * a / 2.0, "zero")]):
            continue  # (1-u)^(pb) at the boundary, u^(pa/2) at the origin
        tested += 1
        f = x1 ** a * (1.0 - u) ** b
        ratio = _weighted_pnorm(w, matrix.apply(f), p) / _weighted_pnorm(w, f, p)
        if ratio > best:
            best, best_params = ratio, (a, b)
    if tested == 0:
        raise EmptyFamily(f"no witness in the family lies in L^{p}")
    res = dict(matrix.meta)
    res.update({"witness": best_params, "family_size": tested, "converged": True})
    return NormEstimate(best, p, "witness-sweep", "lower", res)


def _blowup_witness(domain: DomainSpec, p: float, eps_list) -> NormEstimate:
    from . import hartogs as ht

    if domain.kind != "hartogs":
        raise UnsupportedKind("the blowup_symbol family lives on the Hartogs triangle")
    if p != 2.0:
        raise UnsupportedKind("blowup_symbol ratios are computed in L^2 only")
    eps_list = list(eps_list)
    if not eps_list:
        raise EmptyFamily("no eps values supplied")
    best, best_eps = -math.inf, None
    for eps in eps_list:
        ratio = ht.bblowup_symbol_l2_norm(eps) / ht.blowup_symbol_norm(eps)
        if ratio > best:
            best, best_eps = ratio, eps
    return NormEstimate(best, p, "witness-sweep", "lower",
                        {"witness": ("blowup", best_eps), "family_size": len(eps_list),
                         "converged": True, "domain": "hartogs(2)"})


# ---------------------------------------------------------------------------
# property-BR scanning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BRScanReport:
    supremum: float
    argmax: tuple
    divergent: bool
    resolution: dict = field(default_factory=dict)

    def to_json(self) -> str:
        zmax, wmax = self.argmax
        return jsonfmt.dumps({
            "supremum": float(self.supremum),
            "argmax": [[[c.real, c.imag] for c in zmax],
                       [[c.real, c.imag] for c in wmax]],
            "divergent": bool(self.divergent),
            "resolution": self.resolution,
        })


def br_scan(domain: DomainSpec, z_grid=None, w_grid=None) -> BRScanReport:
    """Sampled extrema of |K(w,z)| / K(z,z) with a refinement divergence flag.

    The supremum is scanned over a base grid pair and a refined pair (denser,
    reaching one decade closer to the singular loci); growth by a factor of
    ten or more flags the domain as failing a uniform kernel-ratio bound.
    """
    sups = []
    arg = None
    global_sup = 0.0
    inf_seen = math.inf
    for level in (0, 1):
        zg = z_grid if z_grid is not None else domain.scan_grid(level)
        wg = w_grid if w_grid is not None else domain.scan_grid(level)
        wnodes = np.asarray([list(p) for p in wg], dtype=complex)
        sup = 0.0
        for z in zg:
            ratios = np.abs(kernel_values(domain, z, wnodes)) / kernel_diag(domain, z)
            j = int(np.argmax(ratios))
            inf_seen = min(inf_seen, float(np.min(ratios)))
            sup = max(sup, float(ratios[j]))
            if ratios[j] > global_sup:
                global_sup = float(ratios[j])
                arg = (tuple(z), tuple(wnodes[j]))
        sups.append(sup)
        if z_grid is not None and w_grid is not None:
            break
    sup_base, sup_fine = sups[0], sups[-1]
    divergent = sup_fine >= 10.0 * sup_base
    res = {"levels": len(sups), "sup_base": sup_base, "sup_fine": sup_fine,
           "infimum": inf_seen, "domain": str(domain)}
    return BRScanReport(global_sup, arg, divergent, res)


# ---------------------------------------------------------------------------
# product multiplicativity of P+ norms
# ---------------------------------------------------------------------------

def product_norm_check(p: float, resolution: int = 120,
                       depth: float = 30.0) -> tuple[float, float]:
    """(estimated ||P+|| on the bidisc, squared disc estimate) at matched grids.

    The bidisc operator is the Kronecker product of the factor discretization
    on the tensor radial grid; its norm is estimated iteratively without
    reference to the factor result.
    """
    if not 1.0 < p < math.inf:
        raise ValueError("p must lie in (1, infinity)")
    m = discretize_absolute_radial(radial_n=resolution, depth=depth)
    w = m.col_weights
    if p == 2.0:
        root = np.sqrt(w)
        S = root[:, None] * m.entries * root[None, :]
        disc_val = float(np.linalg.svd(S, compute_uv=False)[0])
        V = np.outer(root, root)
        V /= np.linalg.norm(V)
        sigma = 0.0
        for _ in range(4000):
            Y = S @ V @ S  # (S kron S) acting on vec(V)
            nrm = np.linalg.norm(Y)
            V = Y / nrm
            if abs(nrm - sigma) <= 1e-13 * nrm:
                sigma = nrm
                break
            sigma = nrm
        return sigma, disc_val ** 2
    q = p / (p - 1.0)
    M = w[:, None] ** (1.0 / p) * m.entries * w[None, :] ** (1.0 / q)
    disc_val, _, _ = _dual_ascent_pnorm(M, p, x0=w.copy())

    def big_apply(mat, V):
        return mat @ V @ mat.T

    X = np.outer(w, w)
    X = np.abs(X) / np.linalg.norm(X.ravel(), ord=p)
    best = 0.0
    for _ in range(300):
        Y = big_apply(M, X)
        gamma = np.linalg.norm(Y.ravel(), ord=p)
        Z = big_apply(M.T, np.abs(Y) ** (p - 1.0) * np.sign(Y))
        if gamma <= best * (1.0 + 1e-12):
            break
        best = gamma
        X = np.abs(Z) ** (q - 1.0) * np.sign(Z)
        X /= np.linalg.norm(X.ravel(), ord=p)
    return best, disc_val ** 2
