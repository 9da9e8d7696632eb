"""Discrete L^p operator norms for the Berezin transform and P+.

A pointwise Nystrom matrix of a kernel with boundary-concentrating
singularities only estimates the operator norm on grids it actually resolves;
its naive 2-norm diverges as unresolved deep nodes enter (single-node spikes
carry weight w_i K(z_i, z_i) -> infinity).  For rotation-invariant domains the
transform splits into angular Fourier sectors, so the meaningful discrete
L^2 norm is computed on the radial sector matrices, where boundary depth
1e-14 is reachable and the sector 0 norm dominates.

For p outside {2, infinity} matrix p-norms are NP-hard in general; this
module reports certified lower bounds (dual ascent in ``estimate_norm``, a
radial-power witness sweep in ``witness_lower_bound``) labelled as such.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from . import jsonfmt
from .domains import DomainSpec, as_point, inside_points
from .errors import InvalidResolution, NonFiniteValue
from .quadrature import (QuadratureRule, _angles, _kernel_rows, _points_on_rule,
                         gauss_legendre, tail_exponent_classify)
from .transforms import _modulus, _per_diag


class OperatorMatrix:
    """Kernel samples A[i][j] with column quadrature data.

    The discrete action is (A phi)(z_i) = sum_j A[i][j] w_j phi(w_j).  Row
    nodes may differ from the column nodes (an interior evaluation grid keeps
    every row resolvable by the column rule).  The entries must match the node
    sets in shape and be finite, or ValueError.  ``row_sums`` is the weighted
    row sum sum_j A[i][j] w_j; ``discretize_berezin`` returns a matrix that
    computes it without forming the entries.
    """

    def __init__(self, entries: np.ndarray, row_nodes: np.ndarray, col_nodes: np.ndarray,
                 col_weights: np.ndarray, meta: Optional[dict] = None):
        self.row_nodes, self.col_nodes, self.col_weights = row_nodes, col_nodes, col_weights
        self.meta = {} if meta is None else meta
        self.entries = self._checked(entries)

    def _checked(self, entries: np.ndarray) -> np.ndarray:
        if entries.shape != (self.row_nodes.shape[0], self.col_nodes.shape[0]):
            raise ValueError("entry shape does not match the node sets")
        _require_finite(entries)
        return entries

    @property
    def is_square(self) -> bool:
        return self.row_nodes.shape[0] == self.col_nodes.shape[0]

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self.entries @ (self.col_weights * np.asarray(values))

    def row_sums(self) -> np.ndarray:
        return self.entries @ self.col_weights


def _require_finite(values: np.ndarray):
    if not np.all(np.isfinite(values)):
        raise ValueError("matrix entries must be finite")


def _ring_width(domain: DomainSpec, rule: QuadratureRule, rows: np.ndarray) -> Optional[int]:
    """The angular count A of ``rule`` when ``rows`` are whole rotation rings of it, else None.

    On a rotation-invariant domain B1(e^{2 pi i k / A} z) = B1(z) for a rule that the rotation
    by 2 pi / A maps onto itself, so B1 takes one value on each ring.  That is checked from the
    arrays, not read from ``RuleMeta``: the nodes reshape to ``meta.shape`` = (R, A), each ring
    has one weight exactly and its nodes are its first node times e^{2 pi i k / A} to 4 ulps,
    and the rows equal consecutive rings of the rule in rule order.
    """
    shape = rule.meta.shape
    if not (domain.rotation_invariant and len(shape) == 2 and len(rows)
            and rule.nodes.shape == (shape[0] * shape[1], 1) and len(rows) % shape[1] == 0):
        return None
    width = shape[1]
    rings, weights = rule.nodes.reshape(shape), rule.weights.reshape(shape)
    first = rings[:, :1]
    turns = np.exp(1j * _angles(width)[0])
    if not (np.all(weights == weights[:, :1])
            and np.all(np.abs(rings - first * turns) <= 4 * np.finfo(float).eps * np.abs(first))):
        return None
    start = np.flatnonzero(first[:, 0] == rows[0, 0])[:1] * width
    whole = len(start) and np.array_equal(rows[:, 0], rule.nodes[start[0]:start[0] + len(rows), 0])
    return width if whole else None


class _BerezinMatrix(OperatorMatrix):
    """The matrix of ``discretize_berezin``, whose entries are formed on first access.

    Its row sums are B1 at the rows, by the blocked compensated pass of
    ``transforms.unit_mass``: sum_j |K(w_j, z_i)|^2 w_j, divided by K(z_i, z_i)
    after summing, so no row block of the matrix is formed.  Where the rows are whole
    rotation rings of the rule (``_ring_width``), the pass runs at the first row of each
    ring and its value is repeated across the ring.  The entries are nonnegative, so a
    non-finite entry of an evaluated row makes its row sum non-finite, and both raise the
    same ValueError.
    """

    def __init__(self, domain: DomainSpec, rule: QuadratureRule, rows: np.ndarray,
                 diag: np.ndarray, width: Optional[int], meta: dict):
        self.row_nodes, self.col_nodes, self.col_weights = rows, rule.nodes, rule.weights
        self.meta = meta
        self._domain, self._rule, self._diag, self._width = domain, rule, diag, width

    @cached_property
    def entries(self) -> np.ndarray:
        return self._checked(_kernel_rows(self._domain.kernel_abs2, self.row_nodes,
                                          self.col_nodes, self._diag))

    def row_sums(self) -> np.ndarray:
        width = self._width or 1
        sums = _per_diag(self._domain, self.row_nodes[::width], self._rule,
                         self._rule.weights).real
        _require_finite(sums)
        return np.repeat(sums, width)


def discretize_berezin(domain: DomainSpec, rule: QuadratureRule,
                       row_nodes: Optional[np.ndarray] = None) -> OperatorMatrix:
    """A[i][j] = |K(w_j, z_i)|^2 / K(z_i, z_i) on the rule's nodes.

    With ``row_nodes`` unset the matrix is square on the rule itself; pass an
    interior subset when row sums must reproduce B1 = 1 at quadrature accuracy.
    The rows must lie inside ``domain``, and ``rule`` must be built for it;
    both are checked here.  The entries are formed on first access of
    ``entries`` (by ``apply``, ``witness_lower_bound`` or ``estimate_norm`` at
    finite p); ``row_sums``, and so ``estimate_norm`` at p = infinity, reads B1
    at the rows and never forms them: once per ring where the rows are whole
    rotation rings of the rule, and ``meta["rings"]`` counts those rings (None
    where B1 is read at every row).
    """
    rows = rule.nodes if row_nodes is None else np.asarray(row_nodes)
    if rows.ndim == 1:
        rows = rows[:, None]
    rows, _ = _points_on_rule(domain, rows, rule)
    diag = domain.positive_diag(rows)
    width = _ring_width(domain, rule, rows)
    meta = {"domain": str(domain), "kind": "berezin", "reduction": "pointwise",
            "rule_shape": rule.meta.shape, "rows": rows.shape[0], "cols": len(rule),
            "rings": None if width is None else rows.shape[0] // width}
    return _BerezinMatrix(domain, rule, rows, diag, width, meta)


def _radial_matrix(kind: str, kernel, radial_n: int, depth: float, sector: int) -> OperatorMatrix:
    """An angular-sector reduction of a disc operator on a log-graded radial grid.

    The nodes are u = |z|^2 at Gauss nodes in tau = -log(1 - u) on [0, depth],
    so the grid reaches boundary distance exp(-depth).  The entries are
    ``kernel(X, U, EX, D)`` / pi over the (row, column) pairs, where X and U
    are the row and column u, EX = 1 - X, and D = 1 - XU is formed as
    EX + EU - EX EU, free of cancellation.  The weights are pi du.
    """
    if not (math.isfinite(depth) and depth > 0.0):
        raise InvalidResolution(f"depth must be finite and > 0, got {depth!r}")
    x, w = gauss_legendre(radial_n)
    tau = 0.5 * depth * (x + 1.0)
    eta = np.exp(-tau)
    u = 1.0 - eta
    X, U = np.meshgrid(u, u, indexing="ij")
    EX, EU = np.meshgrid(eta, eta, indexing="ij")
    entries = kernel(X, U, EX, EX + EU - EX * EU) / math.pi
    nodes = np.sqrt(u).astype(complex)[:, None]
    meta = {"domain": "disc(1)", "kind": kind, "reduction": "radial-sector",
            "sector": sector, "radial_n": radial_n, "depth": depth,
            "rows": radial_n, "cols": radial_n}
    return OperatorMatrix(entries, nodes, nodes, math.pi * (eta * (0.5 * depth * w)), meta)


# (radial_n, depth) of the sector matrices of B (check 04, `norm` at finite p) and P+ (check 11)
BEREZIN_RADIAL, ABSOLUTE_RADIAL = (200, 34.0), (120, 30.0)


def discretize_berezin_radial(radial_n: int = BEREZIN_RADIAL[0],
                              depth: float = BEREZIN_RADIAL[1], sector: int = 0) -> OperatorMatrix:
    """Angular-sector reduction of the disc Berezin transform.

    Nodes are radii on a log-graded grid reaching boundary distance
    exp(-depth); entries are the exact angular average of the kernel in the
    given rotation sector.  Sector norms decrease with the sector index, so
    sector 0 carries the operator norm.
    """
    def kernel(X, U, EX, D):
        g = (1.0 + X * U) / D ** 3
        if sector:
            g = (X * U) ** (sector / 2.0) * (g + sector / D ** 2)
        return EX ** 2 * g
    return _radial_matrix("berezin", kernel, radial_n, depth, sector)


def discretize_absolute_radial(radial_n: int = ABSOLUTE_RADIAL[0],
                               depth: float = ABSOLUTE_RADIAL[1]) -> OperatorMatrix:
    """Sector-0 reduction of the disc absolute projection P+: the kernel 1 / (1 - XU)."""
    return _radial_matrix("absolute", lambda X, U, EX, D: 1.0 / D, radial_n, depth, 0)


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
        return jsonfmt.dumps(asdict(self))


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


def _scaled(A: OperatorMatrix, p: float) -> np.ndarray:
    """W^(1/p) A W^(1/q), 1/p + 1/q = 1: the discrete operator on L^p as a plain matrix on l^p."""
    w = A.col_weights
    return w[:, None] ** (1.0 / p) * A.entries * w[None, :] ** (1.0 / (p / (p - 1.0)))


def _kronecker_norm(factors, p: float) -> NormEstimate:
    """Norm of A1 kron A2 on the tensor grid, from the factors' actions alone.

    An array X on the grid (nodes of A1 by nodes of A2) maps to M1 X M2^T, so
    no (n1 n2)^2 matrix is formed.  At p = 2 the power iteration runs on (S1 kron S2)^T
    (S1 kron S2), which acts as X -> G1 X G2 with the factor Gram matrices Gi = Si^T Si.  These
    maps keep a rank-one X of rank one, so the start (an outer product of the weights) carries
    seeded noise: the product of the factor norms is not built into the estimate.
    """
    if len(factors) != 2 or not all(isinstance(f, OperatorMatrix) and f.is_square
                                    for f in factors):
        raise ValueError("a Kronecker operator is a pair of square OperatorMatrix factors")
    if math.isinf(p):
        raise ValueError("Kronecker operators are estimated at finite p only")
    A1, A2 = factors
    w1, w2 = A1.col_weights, A2.col_weights
    n = len(w1) * len(w2)
    start = {"seed": 11, "noise": 0.1}  # entrywise factor 1 + noise U, U uniform on [0, 1)
    res = {"factors": [dict(A1.meta), dict(A2.meta)], "rows": n, "cols": n, "start": start}
    jitter = 1.0 + start["noise"] * np.random.default_rng(start["seed"]).random((len(w1), len(w2)))
    M1, M2 = _scaled(A1, p), _scaled(A2, p)
    if p == 2.0:
        G1, G2 = M1.T @ M1, M2.T @ M2
        value, res["converged"] = _power_sigma(lambda X: G1 @ X @ G2,
                                               np.outer(np.sqrt(w1), np.sqrt(w2)) * jitter)
        return NormEstimate(value, p, "kronecker-power-iteration", "approximate", res)
    best, res["converged"], res["iterations"] = _dual_ascent_pnorm(
        lambda X: M1 @ X @ M2.T, lambda X: M1.T @ X @ M2, p, np.outer(w1, w2) * jitter)
    return NormEstimate(best, p, "p-power-iteration", "lower", res)


def estimate_norm(A, p: float) -> NormEstimate:
    """Discrete weighted L^p -> L^p norm of an operator matrix or a Kronecker product.

    ``A`` is an OperatorMatrix, or a pair (A1, A2) of square ones standing for
    A1 kron A2 on the tensor grid with product weights.  For a single matrix,
    p = 2 is the largest singular value of the weight-symmetrized matrix and
    p = infinity the maximal weighted row sum, both exact for the discrete
    operator; other p yield certified lower bounds by dual ascent (on the disc
    matrices it is never below ``witness_lower_bound``).  At p = infinity only
    ``A.row_sums()`` is read, so a ``discretize_berezin`` matrix is never
    formed.  A Kronecker product is estimated by power iteration at p = 2 and
    dual ascent at other finite p.
    """
    if not 1.0 < p:
        raise ValueError("p must lie in (1, infinity]")
    if isinstance(A, tuple):
        return _kronecker_norm(A, p)
    res = dict(A.meta)
    if math.isinf(p):
        # the entries built here are nonnegative, so the row sums are the absolute row sums
        value = float(np.max(A.row_sums()))
        res["converged"] = True
        return NormEstimate(value, p, "max-row-sum", "exact", res)
    if not A.is_square:
        raise ValueError("finite-p estimation needs a square matrix (rows = columns)")
    M = _scaled(A, p)
    if p == 2.0:
        res["converged"] = True
        return NormEstimate(float(np.linalg.svd(M, compute_uv=False)[0]), p, "weighted-svd",
                            "approximate", res)

    # the weighted induced p-norm is the l^p norm of M
    best, res["converged"], res["iterations"] = _dual_ascent_pnorm(
        lambda x: M @ x, lambda x: M.T @ x, p, x0=A.col_weights.copy())
    return NormEstimate(best, p, "p-power-iteration", "lower", res)


# (a, b) of the witnesses |z1|^a (1 - |z|^2)^b
WITNESS_FAMILY = tuple((a, b) for a in (0.0, 1.0, 2.0)
                       for b in (0.0, -0.1, -0.2, -0.25, -0.3, -0.32, -0.333,
                                 -0.4, -0.45, -0.48, -0.49, -0.499))


def witness_lower_bound(matrix: OperatorMatrix, p: float) -> NormEstimate:
    """Lower bound for the p-norm of a disc operator matrix from a concrete witness family.

    The family is the radial powers |z1|^a (1 - |z|^2)^b at the matrix's
    column nodes; each member is screened for membership in L^p by power
    comparison (the constant, a = b = 0, passes at every p), and the ratios
    ||A f||_p / ||f||_p are evaluated through the discrete operator, so the
    bound never exceeds the matched discrete norm.
    """
    if not math.isinf(p) and not matrix.is_square:
        raise ValueError("finite-p witness ratios need a square matrix")
    u = np.sum(np.abs(matrix.col_nodes) ** 2, axis=1)
    x1 = np.abs(matrix.col_nodes[:, 0])
    w = matrix.col_weights

    best = -math.inf
    best_params = None
    tested = 0
    for a, b in WITNESS_FAMILY:
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
        return jsonfmt.dumps(asdict(self))


# ratios within this relative distance of the supremum tie for the argmax
_TIE = 1e-12


def br_scan(domain: DomainSpec) -> BRScanReport:
    """Sampled extrema of |K(w,z)| / K(z,z) with a refinement divergence flag.

    Each of a base grid and a refined one (denser, reaching one decade closer
    to the singular loci) is paired with itself in one ratio array, with |K|
    from ``transforms._modulus``; growth of the supremum by a factor of ten or
    more flags the domain as failing a uniform kernel-ratio bound.  Ratios
    within _TIE relative of the supremum tie, and the reported argmax is the
    first of them by level, then z index, then w index: on symmetric grids
    the exact maximum is decided in the last bit.
    """
    grids = [inside_points(domain, domain.scan_grid(level))[0] for level in (0, 1)]
    levels = [(Z, _kernel_rows(_modulus(domain), Z, Z, domain.positive_diag(Z))) for Z in grids]
    sup_base, sup_fine = sups = [float(np.max(ratios)) for _, ratios in levels]
    cut = max(sups) * (1.0 - _TIE)
    # np.argwhere lists the pairs of the first level reaching the cut z first, then w
    Z, ratios = levels[0] if sup_base >= cut else levels[1]
    i, j = np.argwhere(ratios >= cut)[0]
    arg = (as_point(Z[i], domain.dim), as_point(Z[j], domain.dim))
    res = {"levels": len(levels), "sup_base": sup_base, "sup_fine": sup_fine,
           "infimum": min(float(np.min(ratios)) for _, ratios in levels), "domain": str(domain)}
    return BRScanReport(max(sups), arg, sup_fine >= 10.0 * sup_base, res)


# ---------------------------------------------------------------------------
# product multiplicativity of P+ norms
# ---------------------------------------------------------------------------

def _product_estimates(p: float) -> tuple[NormEstimate, NormEstimate]:
    """The estimates of ||P+|| on the bidisc and on the disc on the ABSOLUTE_RADIAL grid.

    The bidisc operator is the Kronecker product of the factor discretization
    on the tensor radial grid; ``estimate_norm`` iterates on it without
    reference to the factor result.
    """
    m = discretize_absolute_radial()  # estimate_norm refuses p = infinity for the pair
    return estimate_norm((m, m), p), estimate_norm(m, p)


def product_norm_check(p: float) -> tuple[float, float]:
    """(estimated ||P+|| on the bidisc, squared disc estimate) from ``_product_estimates``."""
    bidisc, factor = _product_estimates(p)
    return bidisc.value, factor.value ** 2
