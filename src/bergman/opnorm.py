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
radial-power witness sweep in ``witness_lower_bound``) labelled as such.  On
the nonnegative operators built here dual ascent runs without signs or absolute values.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from . import jsonfmt
from .domains import DomainSpec, as_point, inside_points
from .errors import InvalidResolution, NonFiniteValue
from .quadrature import (QuadratureRule, _angles, _kernel_rows, _points_on_rule,
                         gauss_legendre, tail_exponent_classify)
from .transforms import _modulus, _per_diag, _unit


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
    """The angular count A of ``rule`` when it and ``rows`` are whole rotation orbits, else None.

    On a rotation-invariant domain B1(e^{2 pi i k / A} z) = B1(z) for a rule that the rotation
    by 2 pi / A maps onto itself, so B1 takes one value on each orbit of the rows.  That is
    checked from the arrays, not read from ``RuleMeta``: the nodes reshape to ``meta.shape`` =
    (R, A), each ring has one weight exactly, and the nodes and the rows are each whole orbits
    of the A turns e^{2 pi i k / A}, bit for bit (``_orbit_width``).
    """
    shape = rule.meta.shape
    if not (domain.rotation_invariant and len(shape) == 2 and len(rows)
            and rule.nodes.shape == (shape[0] * shape[1], 1)):
        return None
    width, weights = shape[1], rule.weights.reshape(shape)
    turns = np.exp(1j * _angles(width)[0])[:, None]
    whole = (np.all(weights == weights[:, :1]) and _orbit_width(rule.nodes, turns) == width
             and _orbit_width(rows, turns) == width)
    return width if whole else None


class _BerezinMatrix(OperatorMatrix):
    """The matrix of ``discretize_berezin``, whose entries are formed on first access.

    Its row sums are B1 at the rows, by the blocked compensated pass of
    ``transforms.unit_mass``: sum_j |K(w_j, z_i)|^2 w_j, divided by K(z_i, z_i)
    after summing, so no row block of the matrix is formed.  Where the rule and the
    rows are whole rotation orbits (``_ring_width``), the pass runs at the first row of each
    orbit and its value is repeated across the orbit.  The entries are nonnegative, so a
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
        sums = _per_diag(self._domain, self.row_nodes[::width], self._rule, _unit).real
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
    at the rows and never forms them: once per orbit where the rule and the rows
    are whole rotation orbits (``_ring_width``), and ``meta["rings"]`` counts those
    orbits (None where B1 is read at every row).
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
    EX + EU - EX EU, free of cancellation.  The weights are pi du.  ``radial_n`` must be an
    integer >= 4, the floor of ``build_rule``, and ``sector`` an integer >= 0 (not bools), or
    InvalidResolution.
    """
    for name, n, low in (("radial_n", radial_n, 4), ("sector", sector, 0)):
        if not (isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= low):
            raise InvalidResolution(f"{name} must be an integer >= {low}, got {n!r}")
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


def _pnorm(v: np.ndarray, o: float) -> float:
    """The l^o norm of a nonnegative v over all entries, by the steps of ``np.linalg.norm``."""
    return float(np.add.reduce(v.ravel() ** o) ** (1.0 / o))


def _check_p(p: float) -> None:
    if not 1.0 < p:
        raise ValueError(f"p must lie in (1, infinity], got {p!r}")


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _dual_ascent_pnorm(apply, apply_t, p: float, x0: np.ndarray, nonnegative: bool = False):
    """Power scheme for the induced p-norm of an unweighted operator M (Boyd 1974).

    ``apply`` and ``apply_t`` act as M and its transpose on arrays of x0's
    shape, and norms are taken over all entries.  Produces a monotone sequence
    of lower bounds; for entrywise nonnegative M and a positive start it
    converges to a stationary ratio; it stops when the bound gains at most 1e-10 relative, or
    after 300 iterations.  ``nonnegative`` says M is entrywise >= 0, so every
    iterate is too and the absolute values and signs are skipped, with the same bits.
    An iterate that is not finite (its power |z|^(q-1) overflows for p near 1) raises
    NonFiniteValue, and no floating-point warning escapes.
    """
    q = p / (p - 1.0)
    x = np.abs(x0)
    x /= _pnorm(x, p)
    best = 0.0
    converged = False
    iters = 0
    for iters in range(1, 301):
        y = apply(x)
        y_abs = y if nonnegative else np.abs(y)
        gamma = _pnorm(y_abs, p)
        if gamma == 0.0:
            converged = True
            break
        dual = y_abs ** (p - 1.0)
        z = apply_t(dual if nonnegative else dual * np.sign(y))
        stalled = iters > 1 and gamma <= best * (1.0 + 1e-10)
        best = max(best, gamma)
        z_dot_x = float(z.ravel() @ x.ravel())
        z_abs = z if nonnegative else np.abs(z)
        if stalled or _pnorm(z_abs, q) <= z_dot_x * (1.0 + 1e-14):
            converged = True
            break
        x = z_abs ** (q - 1.0)
        norm = _pnorm(x, p)  # not finite where x is not; at 0 or inf, x / norm is no iterate
        if not 0.0 < norm < math.inf:
            raise NonFiniteValue(f"dual ascent at p = {p!r} reached a non-finite iterate "
                                 f"at iteration {iters}")
        x /= norm
        if not nonnegative:
            x *= np.sign(z)
    return best, converged, iters


def _gram_power_sigma(G1: np.ndarray, G2: np.ndarray, start: np.ndarray):
    """(sigma, converged, squarings): the largest singular value of S1 kron S2 from the Grams
    Gi = Si^T Si, by power iteration on X -> G1 X G2 in steps of 2^k.

    Each pass maps X to P1 X P2 (renormalised) and reads sigma = sqrt ||G1 X G2||, then
    squares each Pi (from Gi, renormalised): pass k reads the plain iteration's step 2^k.  It
    stops when two successive passes agree to 1e-12 relative, or after 12 squarings.
    """
    P1, P2 = (G / (np.linalg.norm(G) or 1.0) for G in (G1, G2))
    X = start / np.linalg.norm(start)
    sigma = 0.0
    for squarings in range(13):
        X = P1 @ X @ P2
        nrm = float(np.linalg.norm(X))
        if nrm == 0.0:
            return 0.0, True, squarings
        X /= nrm
        new_sigma = math.sqrt(float(np.linalg.norm(G1 @ X @ G2)))
        if abs(new_sigma - sigma) <= 1e-12 * new_sigma:
            return new_sigma, True, squarings
        sigma = new_sigma
        P1, P2 = (Q / np.linalg.norm(Q) for Q in (P1 @ P1, P2 @ P2))
    return sigma, False, 12


def _scaled(A: OperatorMatrix, p: float) -> np.ndarray:
    """W^(1/p) A W^(1/q), 1/p + 1/q = 1: the discrete operator on L^p as a plain matrix on l^p."""
    w = A.col_weights
    return w[:, None] ** (1.0 / p) * A.entries * w[None, :] ** (1.0 / (p / (p - 1.0)))


def _kronecker_norm(factors, p: float) -> NormEstimate:
    """Norm of A1 kron A2 on the tensor grid, from the factors' actions alone.

    An array X on the grid (nodes of A1 by nodes of A2) maps to M1 X M2^T, so
    no (n1 n2)^2 matrix is formed.  At p = 2 the power iteration runs on (S1 kron S2)^T
    (S1 kron S2), which acts as X -> G1 X G2 with the factor Gram matrices Gi = Si^T Si, in
    steps of 2^k (``_gram_power_sigma``; ``resolution`` records its ``squarings`` and the
    plain ``iterations`` they stand for).  These maps keep a rank-one X of rank one, so the
    start (an outer product of the weights) carries seeded noise: the product of the factor
    norms is not built into the estimate.
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
        value, res["converged"], res["squarings"] = _gram_power_sigma(
            M1.T @ M1, M2.T @ M2, np.outer(np.sqrt(w1), np.sqrt(w2)) * jitter)
        res["iterations"] = 2 ** (res["squarings"] + 1)
        return NormEstimate(value, p, "kronecker-power-iteration", "approximate", res)
    best, res["converged"], res["iterations"] = _dual_ascent_pnorm(
        lambda X: M1 @ X @ M2.T, lambda X: M1.T @ X @ M2, p, np.outer(w1, w2) * jitter,
        bool((M1 >= 0).all() and (M2 >= 0).all()))
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
    formed.  A Kronecker product is estimated by power iteration, squared to steps
    of 2^k, at p = 2 and dual ascent at other finite p; on an entrywise nonnegative
    scaled matrix dual ascent skips its signs and absolute values.
    """
    _check_p(p)
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
        lambda x: M @ x, lambda x: M.T @ x, p, A.col_weights.copy(), bool((M >= 0).all()))
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
    bound never exceeds the matched discrete norm.  p must lie in (1, infinity] (ValueError).
    """
    _check_p(p)
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


def _orbit_width(Z: np.ndarray, turns: Optional[np.ndarray]) -> int:
    """W = len(turns) when the (M, dim) grid Z is exactly each row of Z[::W] times each of the W
    ``turns`` (``DomainSpec.scan_turns``, or a rule's rotations) in that order, else 1.

    The turns form a group that leaves |K(w, z)| / K(z, z) unchanged when one turn multiplies
    both z and w, so a grid of whole orbits is mapped onto itself by each turn, and the row of
    z = t r against the grid holds the values of the row of r, permuted.  That is checked from
    the arrays, bit for bit, as the grid is built by ``scan_grid``.
    """
    if turns is None or len(Z) % len(turns):
        return 1
    width = len(turns)
    reps = Z[::width]
    whole = np.array_equal(Z.reshape(len(reps), width, Z.shape[1]), reps[:, None, :] * turns)
    return width if whole else 1


def br_scan(domain: DomainSpec) -> BRScanReport:
    """Sampled extrema of |K(w,z)| / K(z,z) with a refinement divergence flag.

    Each of a base grid and a refined one (denser, reaching one decade closer
    to the singular loci) is paired with itself in one ratio array, with |K|
    from ``transforms._modulus``; growth of the supremum by a factor of ten or
    more flags the domain as failing a uniform kernel-ratio bound.  Where a grid
    is whole orbits of the domain's scan turns (``_orbit_width``), the array holds
    only the first point of each orbit against the grid, which has every value of
    the full array up to rounding; ``resolution`` records that width W per level as
    ``orbit`` (1: the full array) and the pairs evaluated as ``pairs``.  Ratios
    within _TIE relative of the supremum tie, and the reported argmax is the
    first of them by level, then z index, then w index: on symmetric grids
    the exact maximum is decided in the last bit.
    """
    levels = []
    for level in (0, 1):
        Z = inside_points(domain, domain.scan_grid(level))[0]
        width = _orbit_width(Z, domain.scan_turns(level))
        rows = Z[::width]
        levels.append((Z, width, _kernel_rows(_modulus(domain), rows, Z,
                                              domain.positive_diag(rows))))
    sup_base, sup_fine = sups = [float(np.max(ratios)) for _, _, ratios in levels]
    cut = max(sups) * (1.0 - _TIE)
    # np.argwhere lists the pairs of the first level reaching the cut z first, then w; row i
    # is the point i W of the grid
    Z, width, ratios = levels[0] if sup_base >= cut else levels[1]
    i, j = np.argwhere(ratios >= cut)[0]
    arg = (as_point(Z[i * width], domain.dim), as_point(Z[j], domain.dim))
    res = {"levels": len(levels), "orbit": [w for _, w, _ in levels],
           "pairs": [r.size for _, _, r in levels], "sup_base": sup_base, "sup_fine": sup_fine,
           "infimum": min(float(np.min(r)) for _, _, r in levels), "domain": str(domain)}
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
