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
from .domains import DomainSpec, disc, inside_points
from .errors import EmptyFamily, NonFiniteValue
from .quadrature import QuadratureRule, _map, _row_blocks, gauss_legendre, tail_exponent_classify


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
    diag = domain.positive_diag(rows)
    out = np.empty((rows.shape[0], len(rule)))
    def fill(r):  # each row block writes its own rows
        out[r] = np.abs(domain.kernel(rule.nodes[None], rows[r, None])) ** 2 / diag[r, None]
    _map(fill, _row_blocks(rows.shape[0], len(rule)), out.size)
    meta = {"domain": str(domain), "kind": "berezin", "reduction": "pointwise",
            "rule_shape": rule.meta.shape, "rows": rows.shape[0], "cols": len(rule)}
    return OperatorMatrix(out, rows, rule.nodes, rule.weights, meta)


def _log_radial_grid(n: int, depth: float):
    """Gauss nodes in tau = -log(1 - u); returns (u, eta=1-u, du weights)."""
    x, w = gauss_legendre(n)
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


def _dual_ascent_pnorm(apply, apply_t, p: float, x0: np.ndarray,
                       tol: float = 1e-10, max_iter: int = 300):
    """Power scheme for the induced p-norm of an unweighted operator M.

    ``apply`` and ``apply_t`` act as M and its transpose on arrays of x0's
    shape, and norms are taken over all entries.  Produces a monotone sequence
    of lower bounds; for entrywise nonnegative M and a positive start it
    converges to a stationary ratio.
    """
    q = p / (p - 1.0)
    x = np.abs(x0)
    x /= np.linalg.norm(x.ravel(), ord=p)
    best = 0.0
    converged = False
    iters = 0
    for iters in range(1, max_iter + 1):
        y = apply(x)
        gamma = float(np.linalg.norm(y.ravel(), ord=p))
        if gamma == 0.0:
            converged = True
            break
        z = apply_t(np.abs(y) ** (p - 1.0) * np.sign(y))
        stalled = iters > 1 and gamma <= best * (1.0 + tol)
        best = max(best, gamma)
        z_dot_x = float(z.ravel() @ x.ravel())
        if stalled or np.linalg.norm(z.ravel(), ord=q) <= z_dot_x * (1.0 + 1e-14):
            converged = True
            break
        x = np.abs(z) ** (q - 1.0) * np.sign(z)
        x /= np.linalg.norm(x.ravel(), ord=p)
    return best, converged, iters


def _power_sigma(gram, start: np.ndarray, tol: float = 1e-12, max_iter: int = 5000):
    """Largest singular value of S by power iteration on S^T S, given by its action ``gram``."""
    v = start / np.linalg.norm(start.ravel())
    sigma = 0.0
    for _ in range(max_iter):
        v_new = gram(v)
        nrm = float(np.linalg.norm(v_new.ravel()))
        if nrm == 0.0:
            return 0.0, True
        new_sigma = math.sqrt(nrm)
        v = v_new / nrm
        if abs(new_sigma - sigma) <= tol * new_sigma:
            return new_sigma, True
        sigma = new_sigma
    return sigma, False


def _kronecker_norm(factors, p: float) -> NormEstimate:
    """Norm of A1 kron A2 on the tensor grid, from the factors' actions alone.

    An array X on the grid (nodes of A1 by nodes of A2) maps to M1 X M2^T, so
    no (n1 n2)^2 matrix is formed and the product of the factor norms is never
    assumed.  At p = 2 the power iteration runs on (S1 kron S2)^T (S1 kron S2),
    which acts as X -> G1 X G2 with the factor Gram matrices Gi = Si^T Si.
    """
    if len(factors) != 2 or not all(isinstance(f, OperatorMatrix) and f.is_square
                                    for f in factors):
        raise ValueError("a Kronecker operator is a pair of square OperatorMatrix factors")
    if math.isinf(p):
        raise ValueError("Kronecker operators are estimated at finite p only")
    A1, A2 = factors
    w1, w2 = A1.col_weights, A2.col_weights
    n = len(w1) * len(w2)
    res = {"factors": [dict(A1.meta), dict(A2.meta)], "rows": n, "cols": n}
    if p == 2.0:
        r1, r2 = np.sqrt(w1), np.sqrt(w2)
        S1 = r1[:, None] * A1.entries * r1[None, :]
        S2 = r2[:, None] * A2.entries * r2[None, :]
        G1, G2 = S1.T @ S1, S2.T @ S2
        value, res["converged"] = _power_sigma(lambda X: G1 @ X @ G2, np.outer(r1, r2))
        return NormEstimate(value, p, "kronecker-power-iteration", "approximate", res)
    q = p / (p - 1.0)
    M1 = w1[:, None] ** (1.0 / p) * A1.entries * w1[None, :] ** (1.0 / q)
    M2 = w2[:, None] ** (1.0 / p) * A2.entries * w2[None, :] ** (1.0 / q)
    best, res["converged"], res["iterations"] = _dual_ascent_pnorm(
        lambda X: M1 @ X @ M2.T, lambda X: M1.T @ X @ M2, p, np.outer(w1, w2))
    return NormEstimate(best, p, "p-power-iteration", "lower", res)


def estimate_norm(A, p: float) -> NormEstimate:
    """Discrete weighted L^p -> L^p norm of an operator matrix or a Kronecker product.

    ``A`` is an OperatorMatrix, or a pair (A1, A2) of square ones standing for
    A1 kron A2 on the tensor grid with product weights.  For a single matrix,
    p = 2 is the largest singular value of the weight-symmetrized matrix and
    p = infinity the maximal weighted row sum, both exact for the discrete
    operator; other p yield certified lower bounds (dual ascent, refined on
    disc matrices by the radial-power witness sweep).  A Kronecker product is
    estimated by power iteration at p = 2 and dual ascent at other finite p.
    """
    if not 1.0 < p:
        raise ValueError("p must lie in (1, infinity]")
    if isinstance(A, tuple):
        return _kronecker_norm(A, p)
    w = A.col_weights
    res = dict(A.meta)
    if math.isinf(p):
        # the entries built here are nonnegative, so the row sums are the absolute row sums
        value = float(np.max(A.row_sums()))
        res["converged"] = True
        return NormEstimate(value, p, "max-row-sum", "exact", res)
    if not A.is_square:
        raise ValueError("finite-p estimation needs a square matrix (rows = columns)")
    if p == 2.0:
        root = np.sqrt(w)
        S = root[:, None] * A.entries * root[None, :]
        if S.shape[0] <= 4000:
            value = float(np.linalg.svd(S, compute_uv=False)[0])
            res["converged"] = True
        else:
            value, res["converged"] = _power_sigma(lambda v: S.T @ (S @ v), root)
        return NormEstimate(value, p, "weighted-svd", "approximate", res)

    # weighted induced p-norm via M = W^(1/p) A W^(1/q)
    q = p / (p - 1.0)
    M = w[:, None] ** (1.0 / p) * A.entries * w[None, :] ** (1.0 / q)
    best, converged, iters = _dual_ascent_pnorm(lambda x: M @ x, lambda x: M.T @ x, p,
                                                x0=w.copy())
    method = "p-power-iteration"
    res.update({"converged": converged, "iterations": iters})
    # the radial powers (1 - |z|^2)^b are witnesses on the disc only
    if A.meta.get("domain") == str(disc()):
        wit = witness_lower_bound(disc(), p, matrix=A)
        if wit.value > best:
            best = wit.value
            method = "witness-sweep"
            res["witness"] = wit.resolution.get("witness")
    return NormEstimate(best, p, method, "lower", res)


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
    bound never exceeds the matched discrete norm.
    """
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
        if not math.isfinite(ratio):
            raise NonFiniteValue(f"witness (a, b) = ({a}, {b}) gives the ratio {ratio}; "
                                 "its nodes are not in the unit disc")
        if ratio > best:
            best, best_params = ratio, (a, b)
    if tested == 0:
        raise EmptyFamily(f"no witness in the family lies in L^{p}")
    res = dict(matrix.meta)
    res.update({"witness": best_params, "family_size": tested, "converged": True})
    return NormEstimate(best, p, "witness-sweep", "lower", res)


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
        Z, _ = inside_points(domain, np.array(zg, dtype=complex).reshape(len(zg), domain.dim))
        diag = domain.positive_diag(Z)
        sup = 0.0
        for r in _row_blocks(len(Z), len(wnodes)):
            ratios = np.abs(domain.kernel(wnodes[None], Z[r, None])) / diag[r, None]
            # per z its first maximizing w; across z the first largest wins, as in z order
            j = np.argmax(ratios, axis=1)
            row_max = ratios[np.arange(len(j)), j]
            i = int(np.argmax(row_max))
            inf_seen = min(inf_seen, float(np.min(ratios)))
            sup = max(sup, float(row_max[i]))
            if row_max[i] > global_sup:
                global_sup = float(row_max[i])
                arg = (tuple(zg[r.start + i]), tuple(wnodes[j[i]]))
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
    on the tensor radial grid; ``estimate_norm`` iterates on it without
    reference to the factor result.
    """
    if not 1.0 < p < math.inf:
        raise ValueError("p must lie in (1, infinity)")
    m = discretize_absolute_radial(radial_n=resolution, depth=depth)
    return estimate_norm((m, m), p).value, estimate_norm(m, p).value ** 2
