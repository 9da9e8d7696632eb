"""Graded tensor quadrature over the model domains.

Rules combine Gauss-Legendre radial panels (power-graded toward singular
loci) with uniform angular grids, which are spectrally accurate for periodic
integrands.  The Hartogs triangle is parametrized as z2 = z1 * t with |t| < 1,
whose Jacobian |z1|^2 flattens the singular edge |z2| = |z1| onto |t| = 1.

Every rule ``build_rule`` makes is a tensor product and keeps only its 1-D axes and
one coordinate former, the open mesh of a range of slabs of the leading axes: one
complex array per coordinate, which broadcast together to the slab block.
``QuadratureRule.rows`` writes the mesh into the nodes of a contiguous slice of rows
and forms their weights, bit for bit the rows of the whole arrays.  Symbols, integrands
and ``save_rule`` read a rule one chunk of rows at a time through ``rows`` (weights
alone where they read no nodes).  The whole ``nodes`` and ``weights`` are formed on
first access, the nodes written into the kept array whole slabs of about _CHUNK rows at
a time, and kept read-only; from then on ``rows`` slices them, so a caller
making repeated calls on one rule forms no chunk twice.  Patch, loaded and
hand-built rules keep explicit arrays, which ``rows`` slices.  A rule has two or more
nodes, and ``_slices`` gives a one-entry remainder to the slice before it.

Integrands and symbols are read by ``evaluate_on_rule`` alone, one _CHUNK of nodes
at a time, so ``integrate`` and the transforms share one error contract and form no
whole-rule array of values: a callable receives node chunks and must act row by row.
Every sum follows one contract, so results are bit-reproducible whatever the chunk,
block or thread count: the summands are cut in node order into leaves of _LEAF = 1024
(the last leaf alone may be shorter), each leaf is summed by ``np.sum``, and the leaf
sums are added by an exact ``math.fsum``, real and imaginary parts apart.  An operator
is a kernel form F and one coefficient c_j per node, summed as F(w_j, z) c_j for many
points z: F is |K|^2 from ``DomainSpec.kernel_abs2`` for the Berezin transforms, its
root for P+, and conj K for P.  ``_kernel_sums`` walks the rule in spans of whole blocks
of whole leaves (and slabs) of about 2^17 / workers entries, forms each span's
coefficients once per call, and multiplies each block of F by them in place and reduces
it to its leaf sums where it lies, so no (points x span) array is formed.  F reads a
product rule's open mesh as it is, so terms of one coordinate are formed once per slab
or angle and only cross terms once per node.  ``discretize_berezin`` and ``br_scan`` fill
their kernel arrays in row blocks of the same size.  A call of at least 2^21 point-node
entries runs on a thread pool, one thread per core the process may run on (at most its
cgroup's CPU quota), one span a task; the calling thread fsums the leaf sums.
"""

from __future__ import annotations

import cmath
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .domains import DomainSpec, inside_points
from .errors import (
    BorderlineExponent,
    InvalidResolution,
    NonFiniteValue,
    UnsupportedKind,
)


@lru_cache
def gauss_legendre(n: int):
    """The n-point Gauss-Legendre nodes and weights on [-1, 1]: one read-only pair per n."""
    if n < 1:
        raise InvalidResolution(f"Gauss-Legendre order must be >= 1, got {n}")
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss(n: int, lo: float, hi: float):
    x, w = gauss_legendre(n)
    return 0.5 * (hi - lo) * x + 0.5 * (lo + hi), 0.5 * (hi - lo) * w


def _graded_panel(n: int, lo: float, hi: float, grading: float, toward: str):
    """GL panel on [lo, hi] with nodes clustered at one endpoint.

    The parameter map is s -> s^grading, so integer gradings keep polynomial
    integrands polynomial (exactness is preserved).
    """
    s, ws = _gauss(n, 0.0, 1.0)
    span = hi - lo
    if toward == "lo":
        x = lo + span * s ** grading
        w = span * grading * s ** (grading - 1.0) * ws
    else:
        x = hi - span * (1.0 - s) ** grading
        w = span * grading * (1.0 - s) ** (grading - 1.0) * ws
    return x, w


def _radial_line(n: int, origin_grading: float, outer_grading: float):
    """Two panels covering (0, 1): graded toward 0 on [0,1/2], toward 1 on [1/2,1]."""
    xa, wa = _graded_panel(n, 0.0, 0.5, origin_grading, "lo")
    xb, wb = _graded_panel(n, 0.5, 1.0, outer_grading, "hi")
    return np.concatenate([xa, xb]), np.concatenate([wa, wb])


@dataclass(frozen=True)
class RuleMeta:
    domain: str
    dim: int
    radial_n: int
    angular_n: int
    grading: float
    origin_grading: float
    shape: tuple
    region: str = "full"


class QuadratureRule:
    """Nodes (N, dim) and positive weights (N,) discretizing dV on a domain, N >= 2.

    A rule ``build_rule`` makes as a tensor product (the polydisc of any dimension,
    the disc included, the ball in C^2 and the Hartogs triangle) keeps only its 1-D
    axes, and ``rows`` forms the nodes and weights of the rows asked for from them,
    bit for bit the rows of the whole arrays.  The whole ``nodes`` and ``weights``
    are formed together on first access, the nodes into their kept array whole slabs
    of about _CHUNK rows at a time, and kept read-only with the rule; from then on
    ``rows`` slices them.  A rule made from explicit arrays, as
    ``QuadratureRule(nodes, weights, meta)`` (loaded and patch rules too), serves
    ``rows`` by slicing them: (N, meta.dim) and (N,) (else ValueError), finite (NonFiniteValue),
    N >= 2 and weights > 0 (InvalidResolution).  ``len`` and ``dim`` form nothing.

    ``factors`` are the 1-D disc rules a product rule is built from, one per
    coordinate of ``DomainSpec.factor_points``: a polydisc rule is their tensor
    product, and a Hartogs rule the product of the rules in z1 and in z2/z1,
    weighted by the Jacobian |z1|^2.  Other rules, and loaded ones, have none.
    """

    def __init__(self, nodes: np.ndarray, weights: np.ndarray, meta: RuleMeta,
                 factors: tuple = ()):
        self.meta, self.factors, self._axes, self._shape = meta, factors, None, nodes.shape
        if nodes.ndim != 2 or nodes.shape[1:] != (meta.dim,) or weights.shape != nodes.shape[:1]:
            raise ValueError(f"expected nodes (N, {meta.dim}) and weights (N,), "
                             f"got {nodes.shape} and {weights.shape}")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
            raise NonFiniteValue("a rule's nodes and weights must be finite")
        if len(weights) < 2 or not np.all(weights > 0.0):
            raise InvalidResolution(f"a rule needs two or more nodes, all of weight > 0: got "
                                    f"{len(weights)}, least {np.min(weights, initial=np.inf)}")
        self.__dict__["_whole"] = nodes, weights

    @classmethod
    def _of_axes(cls, axes: "_Axes", meta: RuleMeta, factors: tuple = ()) -> "QuadratureRule":
        """The rule whose rows ``axes`` forms."""
        rule = cls.__new__(cls)
        rule.meta, rule.factors, rule._axes, rule._shape = meta, factors, axes, (len(axes), axes.dim)
        return rule

    def __len__(self):
        return self._shape[0]

    def __repr__(self):
        return f"QuadratureRule({self.meta!r}, nodes={len(self)})"

    @property
    def dim(self) -> int:
        return self._shape[1]

    @cached_property
    def _whole(self) -> tuple:
        """The whole nodes and weights; the nodes are written into the array kept whole slabs
        of about _CHUNK rows at a time, so no mesh of the whole rule is formed or kept."""
        axes, n = self._axes, len(self)
        nodes, weights = np.empty((n, self.dim), dtype=complex), axes.weights(0, n)
        step = axes.width * max(1, _CHUNK // axes.width)
        for a in range(0, n, step):
            axes.slab_nodes(a // axes.width, min(a + step, n) // axes.width, out=nodes[a:a + step])
        nodes.flags.writeable = weights.flags.writeable = False
        return nodes, weights

    @property
    def nodes(self) -> np.ndarray:
        return self._whole[0]

    @property
    def weights(self) -> np.ndarray:
        return self._whole[1]

    def rows(self, s: slice = slice(None)) -> tuple:
        """The (R, dim) nodes and (R,) weights of the contiguous slice of rows ``s``;
        ValueError for anything else.  Formed from the axes unless the whole arrays are."""
        if not isinstance(s, slice) or s.step not in (None, 1):
            raise ValueError(f"rows takes a contiguous slice, got {s!r}")
        if "_whole" in self.__dict__:
            return self._whole[0][s], self._whole[1][s]
        start, stop, _ = s.indices(len(self))
        return self._axes.rows(start, max(start, stop))

    def _weights(self, s: slice) -> np.ndarray:
        """The weights of the rows ``s`` (a slice within the rule), forming no nodes."""
        if "_whole" in self.__dict__:
            return self._whole[1][s]
        return self._axes.weights(s.start, s.stop)

    def _mesh(self, start: int, stop: int) -> tuple:
        """Per-coordinate arrays that broadcast to a block holding the rows [start, stop),
        flattened, at the cut returned with them: the open mesh of the two or more slabs
        covering them on a product rule (one-element complex products round in another
        numpy loop), else the columns of the rows, as on a formed rule of one coordinate."""
        if self._axes is None or self.dim == 1 and "_whole" in self.__dict__:
            return list(self._whole[0][start:stop].T), slice(0, stop - start)
        a0, a1, cut = self._axes.cover(start, stop)
        if a1 - a0 == 1:
            a1 = a0 + 2 if a1 * self._axes.width < len(self) else a1
            a0 = a1 - 2
            cut = slice(start - a0 * self._axes.width, stop - a0 * self._axes.width)
        return self._axes.mesh(a0, a1), cut

    @cached_property
    def node_diag(self) -> np.ndarray:
        """K(w_j, w_j) at the nodes on the domain ``meta`` names, formed on first access one
        _CHUNK of rows at a time from ``rows``, so no whole node array is formed, and kept
        read-only with the rule (a disc rule serving the punctured disc: one formula)."""
        domain, n = DomainSpec(self.meta.domain, self.meta.dim), len(self)
        kept = np.empty(n)
        for s in _slices(0, n, _CHUNK):
            kept[s] = domain.diag(self.rows(s)[0])
        kept.flags.writeable = False
        return kept


class _Axes:
    """The rows of a product rule, formed from its 1-D axes a slab at a time.

    Row i is row i % width of slab i // width: a slab is one index of the leading axes,
    and width the number of rows of the trailing axes.  The weights are ``_outer`` of
    ``lead_weights`` (the leading axes' left-associated product, flattened) and the
    ``trailing`` weight axes.  ``mesh(a0, a1)`` is the open mesh of slabs a0..a1-1: one
    complex array per coordinate, which broadcast together to the slab block, a slab the
    first axis and its rows the rest in row order.  It is the one coordinate former: the
    kernel forms read it as it is, so work on one coordinate is done on its own axes, and
    ``rows(start, stop)`` writes it into the rows of the slabs that cover [start, stop)
    and cuts them, the whole arrays' rows bit for bit.
    """

    def __init__(self, dim: int, lead_weights: np.ndarray, trailing: tuple, mesh):
        self.dim, self.lead_weights, self.trailing, self.mesh = dim, lead_weights, trailing, mesh
        self.width = math.prod(len(axis) for axis in trailing)

    def __len__(self):
        return len(self.lead_weights) * self.width

    def cover(self, start: int, stop: int) -> tuple:
        """The slabs a0..a1-1 that cover rows [start, stop), and the cut of those rows from
        their flattened block."""
        a0, a1 = start // self.width, -(-stop // self.width)
        return a0, a1, slice(start - a0 * self.width, stop - a0 * self.width)

    def weights(self, start: int, stop: int) -> np.ndarray:
        a0, a1, cut = self.cover(start, stop)
        return _outer(self.lead_weights[a0:a1], *self.trailing).ravel()[cut]

    def slab_nodes(self, a0: int, a1: int, out=None) -> np.ndarray:
        """The (rows, dim) nodes of slabs a0..a1-1, written into ``out`` when it is given."""
        mesh = self.mesh(a0, a1)
        shape = np.broadcast_shapes(*(c.shape for c in mesh)) + (self.dim,)
        nodes = np.empty(shape, dtype=complex) if out is None else out.reshape(shape, copy=False)
        for i, c in enumerate(mesh):
            nodes[..., i] = c
        return nodes.reshape(-1, self.dim)

    def rows(self, start: int, stop: int) -> tuple:
        a0, a1, cut = self.cover(start, stop)
        return self.slab_nodes(a0, a1)[cut], self.weights(start, stop)


@dataclass(frozen=True)
class GridFunction:
    """Complex samples aligned with a rule's nodes."""

    rule: QuadratureRule
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", vals)
        if len(vals) != len(self.rule):
            raise ValueError("values length does not match the rule")
        if not np.all(np.isfinite(vals)):
            raise NonFiniteValue("grid function has non-finite entries")

    def values_on(self, rule: QuadratureRule) -> np.ndarray:
        """The samples, refused unless they were taken on ``rule`` itself."""
        if self.rule is not rule:
            raise ValueError("grid function belongs to a different rule")
        return self.values


# summands per leaf: every sum is the fsum, in node order, of the np.sum of each leaf
_LEAF = 1024
# nodes per chunk of a rule read at once, and the most one task of ``_kernel_sums`` spans
_CHUNK = 32 * _LEAF
# entries of one evaluated kernel block (M points x block nodes)
_BLOCK = 1 << 17
# the size of call from which the thread pool runs
_BUFFER = 16 * _BLOCK


def _quota_cores(cpu_max: str) -> Optional[int]:
    """ceil(quota / period) from a cgroup v2 ``cpu.max`` line "<quota> <period>"; None for "max"."""
    quota, period = cpu_max.split()
    return None if quota == "max" else -(-int(quota) // int(period))


def _usable_cores() -> int:
    """Cores the process may run on, capped by its cgroup's CPU quota when one is set."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    try:
        with open("/sys/fs/cgroup/cpu.max") as fh:
            quota = _quota_cores(fh.read())
    except (OSError, ValueError):
        return cores
    return cores if quota is None else min(cores, quota)


_CORES = _usable_cores()
_POOL = ThreadPoolExecutor(_CORES) if _CORES > 1 else None


def _leaf_sums(rows: np.ndarray) -> np.ndarray:
    """The (M, L) ``np.sum`` of each _LEAF entries, in order, of the (M, n) real ``rows``:
    L = ceil(n / _LEAF) leaves, the last alone shorter when _LEAF does not divide n."""
    m, n = rows.shape
    full = n // _LEAF
    sums = rows[:, :full * _LEAF].reshape(m, full, _LEAF).sum(axis=2)
    if n == full * _LEAF:
        return sums
    return np.concatenate([sums, rows[:, full * _LEAF:].sum(axis=1, keepdims=True)], axis=1)


def compensated_sum(values: np.ndarray) -> float:
    """The summation contract: an exact fsum of the ``np.sum`` of each _LEAF values, in order."""
    return math.fsum(_leaf_sums(np.asarray(values, dtype=float)[None])[0])


def _slices(start: int, stop: int, step: int) -> list:
    """[start, stop) cut in order every ``step`` entries; a one-entry remainder of a longer
    range joins the slice before it."""
    starts = list(range(start, stop, step))
    if len(starts) > 1 and stop - starts[-1] == 1 < step:
        del starts[-1]
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [stop])]


def _workers(entries: int) -> int:
    """Threads sharing a call of ``entries`` point-node entries: _CORES from _BUFFER on, else 1."""
    return _CORES if _POOL is not None and entries >= _BUFFER else 1


def _map(fn, items: list, entries: int) -> list:
    """``[fn(item) for item in items]`` in item order, pooled for 2+ items if _workers(entries) > 1.

    A pooled call that raises cancels its tasks not yet started and waits for the running
    ones, so none outlives it; the exception is the first failed item's.
    """
    if len(items) < 2 or _workers(entries) < 2:
        return [fn(item) for item in items]
    futures = [_POOL.submit(fn, item) for item in items]
    try:
        return [future.result() for future in futures]
    except BaseException:
        for future in futures:
            future.cancel()
        wait(futures)
        raise


def _kernel_rows(pair, Z: np.ndarray, W: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """The (M, N) array pair(W_j, Z_i) / scale_i of a real kernel form over the (M, dim) points
    Z and (N, dim) nodes W, in row blocks of about _BLOCK / workers entries through ``_map``."""
    out = np.empty((len(Z), len(W)))
    def fill(r):  # each row block writes its own rows
        np.divide(pair(W[None], Z[r, None]), scale[r, None], out=out[r])
    rows = _slices(0, len(Z), max(1, _BLOCK // _workers(out.size) // max(1, len(W))))
    _map(fill, rows, out.size)
    return out


def _kernel_sums(pair, rule: QuadratureRule, Z: np.ndarray, coef) -> np.ndarray:
    """Per row z_m of the (M, dim) points Z, the sum over the nodes w_j of
    pair(w_j, z_m) * c_j by the summation contract (``compensated_sum``), real and
    imaginary parts apart.  ``pair`` is a kernel form such as ``DomainSpec.kernel`` or
    ``kernel_abs2`` that returns a new array; each block of it is multiplied by its
    coefficients in place, unless a complex c meets a real block.  ``coef(rows, weights)``
    maps the slice of rows of one span of nodes, with their weights from the rule, to their
    c_j; it forms nodes only where it reads them.

    Blocks are whole leaves, whole slabs too where one point's block of them fits in
    _BLOCK / workers entries, of about that many entries per point group (groups shrinking
    to fit) and two or more nodes.  One task of ``_map`` is one span of whole blocks, of at
    most min(_CHUNK, ceil(N / workers)) nodes or one block, so even a rule of one chunk
    splits across the workers.  Each block hands the form ``rule._mesh`` as it is, with
    the group's points shaped (m, 1, ..., dim).  The task forms its coefficients after its
    first kernel block, so that block's temporaries never meet their forming, cuts each
    block's rows out of the covering slabs, reduces them to their leaf sums, and returns
    the span's (M, leaves) sums; the caller fsums each point's leaf sums in node order.
    No whole-rule node or coefficient array and no (points, span) array is formed.
    Returns an (M,) complex array; real summands give zero imaginary parts.
    """
    n, workers = len(rule), _workers(len(Z) * len(rule))
    limit, entries = min(_CHUNK, -(-n // workers)), max(1, _BLOCK // workers)
    # blocks of whole leaves that are whole slabs where one point's block of them fits
    step = _LEAF if rule._axes is None else math.lcm(rule._axes.width, _LEAF)
    if step > min(limit, entries):
        step = _LEAF  # the slabs covering a block are cut
    width = max(2, step, min(entries // max(1, len(Z)), limit) // step * step)  # block nodes
    groups = _slices(0, len(Z), max(1, entries // width))

    def span_sums(s):
        part = None
        sums = np.zeros((len(Z), -(-(s.stop - s.start) // _LEAF)), dtype=complex)
        for b in _slices(s.start, s.stop, width):
            mesh, cut = rule._mesh(b.start, b.stop)
            # every coordinate of a mesh has the block's axes
            points = Z.reshape((len(Z),) + (1,) * mesh[0].ndim + (rule.dim,))
            at = slice(b.start - s.start, b.stop - s.start)
            leaves = slice(at.start // _LEAF, -(-at.stop // _LEAF))
            for r in groups:
                block = pair(mesh, points[r]).reshape(r.stop - r.start, -1)[:, cut]
                if part is None:
                    part = coef(s, rule._weights(s))
                c = part[at]
                block = (block * c if np.iscomplexobj(c) and not np.iscomplexobj(block)
                         else np.multiply(block, c, out=block))
                sums.real[r, leaves] = _leaf_sums(block.real)
                if np.iscomplexobj(block):
                    sums.imag[r, leaves] = _leaf_sums(block.imag)
        return sums

    parts = _map(span_sums, _slices(0, n, width * max(1, limit // width)), len(Z) * n)
    leaves = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
    return np.array([complex(math.fsum(re), math.fsum(im))  # fsum reads lists fastest
                     for re, im in zip(leaves.real.tolist(), leaves.imag.tolist())], dtype=complex)


def _points_on_rule(domain: DomainSpec, z, rule: QuadratureRule) -> tuple[np.ndarray, bool]:
    """``inside_points(domain, z)`` for an operator on ``rule``: ValueError unless ``rule`` was
    built for ``domain``, or is a disc rule on the punctured disc (a null set apart)."""
    m = rule.meta
    if m.dim != domain.dim or (m.domain != domain.kind
                               and (m.domain, domain.kind) != ("disc", "punctured-disc")):
        raise ValueError(f"a rule built for {m.domain}({m.dim}) cannot serve {domain}")
    return inside_points(domain, z)


def evaluate_on_rule(rule: QuadratureRule, f, rows=slice(None)) -> np.ndarray:
    """The values of ``f`` at the rule's nodes ``rows`` (all of them by default; a contiguous
    slice): the one reading of an integrand or symbol.  Only a callable's nodes
    are formed, from ``rule.rows``.

    ``f`` is a GridFunction sampled on ``rule`` itself, an ndarray of one value
    per node of the rule, or a callable of the (R, dim) nodes ((R,) on a
    one-dimensional rule).  The operators and ``integrate`` read one chunk of
    nodes at a time, so a callable must act row by row.  Raises ValueError
    unless there is exactly one value per node (a GridFunction of another rule
    included), NonFiniteValue on NaN or infinity, and TypeError for any other
    kind of object.
    """
    if isinstance(f, GridFunction):
        f = f.values_on(rule)
    if isinstance(f, np.ndarray):
        if f.shape != (len(rule),):
            raise ValueError(f"expected one value per node, shape ({len(rule)},), got {f.shape}")
        vals = f[rows]
    elif callable(f):
        nodes = rule.rows(rows)[0]
        vals = np.asarray(f(nodes[:, 0] if rule.dim == 1 else nodes))
        if vals.shape != (len(nodes),):
            raise ValueError(f"expected one value per node read, shape ({len(nodes)},), "
                             f"got {vals.shape}")
    else:
        raise TypeError(f"cannot evaluate an object of type {type(f)!r} on a rule")
    # a sum is not finite where a value is not (nor where finite values overflow it)
    if not np.isfinite(vals.sum()) and not np.all(np.isfinite(vals)):
        raise NonFiniteValue("values are not finite at some quadrature node")
    return vals


def _csum(values: np.ndarray) -> complex:
    """``compensated_sum`` of real and imaginary parts apart, as a complex."""
    if np.iscomplexobj(values):
        return complex(compensated_sum(values.real), compensated_sum(values.imag))
    return complex(compensated_sum(values), 0.0)


def integrate(rule: QuadratureRule, f) -> complex:
    """Sum w_j f(node_j) by the summation contract (``compensated_sum``), real and
    imaginary parts apart.

    ``f`` is read one _CHUNK of nodes at a time, and each chunk's w f is reduced to its
    leaf sums and dropped: ``compensated_sum`` of the whole summand array, bit for bit.
    """
    re, im = [], []
    for s in _slices(0, len(rule), _CHUNK):
        terms = (rule._weights(s) * evaluate_on_rule(rule, f, s))[None]
        re.extend(_leaf_sums(terms.real)[0])
        if np.iscomplexobj(terms):
            im.extend(_leaf_sums(terms.imag)[0])
    return complex(math.fsum(re), math.fsum(im))


# ---------------------------------------------------------------------------
# rule construction
# ---------------------------------------------------------------------------

GRADING = 2.0  # of build_rule toward the outer boundaries when the caller gives none


def _check_counts(radial_n, angular_n) -> None:
    if not all(isinstance(n, numbers.Integral) and n >= 4 for n in (radial_n, angular_n)):
        raise InvalidResolution(f"radial_n and angular_n must be integers >= 4, "
                                f"got {radial_n!r} and {angular_n!r}")


def build_rule(domain: DomainSpec, radial_n: int, angular_n: int,
               grading: float = GRADING, origin_grading: Optional[float] = None) -> QuadratureRule:
    """Tensor rule in polar/toroidal coordinates for a model domain.

    ``grading`` controls clustering toward outer boundaries and the Hartogs
    edge; ``origin_grading`` (default: the domain's ``default_origin_grading``,
    3 on the Hartogs triangle, else ``grading``) controls clustering toward
    r = 0 where integrands such as negative powers of |w1| concentrate.
    """
    _check_counts(radial_n, angular_n)
    if not all(math.isfinite(g) and g >= 1.0 for g in (grading, origin_grading) if g is not None):
        raise InvalidResolution(f"grading exponents must be finite and >= 1, "
                                f"got {grading!r} and {origin_grading!r}")
    builder = _RULE_BUILDERS.get(domain.kind)
    if builder is None:
        raise UnsupportedKind(f"no quadrature rule for domain kind {domain.kind!r}")
    if origin_grading is None:
        origin_grading = domain.default_origin_grading or grading
    return builder(domain, radial_n, angular_n, grading, origin_grading)


def _angles(n: int):
    return 2.0 * np.pi * np.arange(n) / n, 2.0 * np.pi / n


def _polar_axes(x, wx, angular_n: int) -> _Axes:
    """The disc rule x e^{i th} with weights x wx dth: radii x (weights wx) times equispaced
    angles, one radius a slab."""
    th, wth = _angles(angular_n)
    phase = np.exp(1j * th)
    return _Axes(1, x * wx, (np.full(angular_n, wth),),
                 lambda a0, a1: (x[a0:a1, None] * phase[None, :],))


def _outer(*factors) -> np.ndarray:
    """The outer product of 1-D factors, left-associated: ((f0 x f1) x f2) x ..."""
    out = factors[0]
    for f in factors[1:]:
        out = np.multiply.outer(out, f)
    return out


def _polydisc_rule(domain, radial_n, angular_n, grading, origin_grading):
    """Tensor power of the polar disc rule; the disc is the case dim = 1.  A slab is one
    node of each of the first dim - 1 factors, its rows the nodes of the last factor: in the
    mesh the leading coordinates have shape (slabs, 1) and the last one (1, n)."""
    dim = domain.dim
    polar = _polar_axes(*_radial_line(radial_n, origin_grading, grading), angular_n)
    factor = QuadratureRule._of_axes(polar, RuleMeta("disc", 1, radial_n, angular_n, grading,
                                                     origin_grading, (2 * radial_n, angular_n)))
    meta = RuleMeta(domain.kind, dim, radial_n, angular_n, grading, origin_grading,
                    factor.meta.shape * dim)
    if dim == 1:
        return QuadratureRule._of_axes(polar, meta, (factor,))
    z, w = factor.rows()
    z, n = z[:, 0], len(z)
    lead = np.empty((n,) * (dim - 1) + (dim - 1,), dtype=complex)
    for i in range(dim - 1):
        lead[..., i] = z.reshape((n,) + (1,) * (dim - 2 - i))
    lead = lead.reshape(-1, dim - 1)
    axes = _Axes(dim, _outer(*(w,) * (dim - 1)).ravel(), (w,),
                 lambda a0, a1: (*lead[a0:a1, :, None].transpose(1, 0, 2), z[None, :]))
    return QuadratureRule._of_axes(axes, meta, (factor,) * dim)


def _ball2_rule(domain, radial_n, angular_n, grading, origin_grading):
    if domain.dim != 2:
        raise UnsupportedKind("ball rules are implemented for dimension 2")
    # z1 = rho cos(a) e^{i t1}, z2 = rho sin(a) e^{i t2};
    # dV = rho^3 cos(a) sin(a) drho da dt1 dt2
    rho, wrho = _radial_line(radial_n, origin_grading, grading)
    alpha_n = max(8, radial_n // 2 + 4)
    al, wal = _gauss(alpha_n, 0.0, math.pi / 2)
    th, wth = _angles(angular_n)
    phase = np.exp(1j * th)
    c1, c2 = (rho[:, None] * np.cos(al)).ravel(), (rho[:, None] * np.sin(al)).ravel()

    def mesh(a0, a1):  # (rho, alpha) pairs times each angle: (slabs, A, 1) and (slabs, 1, A)
        return c1[a0:a1, None, None] * phase[:, None], c2[a0:a1, None, None] * phase
    wth = np.full(angular_n, wth)
    axes = _Axes(2, _outer(rho ** 3 * wrho, np.cos(al) * np.sin(al) * wal).ravel(), (wth, wth),
                 mesh)
    meta = RuleMeta("ball", 2, radial_n, angular_n, grading, origin_grading,
                    (2 * radial_n, alpha_n, angular_n, angular_n))
    return QuadratureRule._of_axes(axes, meta)


def _hartogs_rule(domain, radial_n, angular_n, grading, origin_grading):
    """A slab is one node z1 of the rule in z1, its rows z1 with each node t of the rule in
    z2/z1: in the mesh z1 has shape (slabs, 1) and z2 = t z1 shape (slabs, len(t))."""
    # z1 = r e^{i t1}, z2 = z1 * s e^{i t2}; dV = r^3 s dr dt1 ds dt2 = |z1|^2 dA(z1) dA(z2/z1)
    r, wr = _radial_line(radial_n, origin_grading, grading)
    s, ws = _radial_line(radial_n, 1.0, grading)  # ungraded on [0, 1/2]
    shape = (2 * radial_n, angular_n)
    f1 = QuadratureRule._of_axes(_polar_axes(r, wr, angular_n), RuleMeta(
        "disc", 1, radial_n, angular_n, grading, origin_grading, shape))
    f2 = QuadratureRule._of_axes(_polar_axes(s, ws, angular_n), RuleMeta(
        "disc", 1, radial_n, angular_n, grading, 1.0, shape))
    z1, t = f1.rows()[0][:, 0], f2.rows()[0][:, 0]

    def mesh(a0, a1):
        # t * z1, not z1 * t: the complex product rounds differently with its operands swapped
        return z1[a0:a1, None], np.multiply(t, z1[a0:a1, None])
    # the factor weights r wr dt1 and s ws dt2 times the Jacobian r^2, rounded as r^3 wr
    wth = np.full(angular_n, _angles(angular_n)[1])
    axes = _Axes(2, _outer(r ** 3 * wr, wth).ravel(), (s * ws, wth), mesh)
    meta = RuleMeta("hartogs", 2, radial_n, angular_n, grading, origin_grading, shape * 2)
    return QuadratureRule._of_axes(axes, meta, (f1, f2))


_RULE_BUILDERS = {"disc": _polydisc_rule, "punctured-disc": _polydisc_rule, "polydisc": _polydisc_rule,
                  "ball": _ball2_rule, "hartogs": _hartogs_rule}


def disc_patch_rule(center: complex, radius: float, radial_n: int = 24,
                    angular_n: int = 32) -> QuadratureRule:
    """Polar rule over the disc {|z - center| < radius} inside the unit disc.

    Suitable for compactly supported symbols; weights sum to the patch area.
    """
    _check_counts(radial_n, angular_n)
    c = complex(center)
    if not (cmath.isfinite(c) and radius > 0.0):
        raise InvalidResolution(f"patch needs a finite centre and a radius > 0, got {c!r}, {radius!r}")
    if abs(c) + radius >= 1.0:
        raise InvalidResolution("patch must stay inside the unit disc")
    meta = RuleMeta("disc", 1, radial_n, angular_n, 1.0, 1.0,
                    (radial_n, angular_n), region=f"patch({c:.3f},{radius:.3f})")
    polar = _polar_axes(*_gauss(radial_n, 0.0, radius), angular_n)
    nodes, weights = polar.rows(0, len(polar))
    return QuadratureRule(c + nodes, weights, meta)


# ---------------------------------------------------------------------------
# power-comparison tail classification
# ---------------------------------------------------------------------------

def tail_exponent_classify(exponents) -> bool:
    """Classify power integrals by comparison: int_0 r^a dr needs a > -1,
    int^inf r^a dr needs a < -1.

    ``exponents`` is an iterable of (exponent, limit) pairs, with limit in
    {"zero", "infinity"}.  Returns True when every tail converges.  Exponents
    within 1e-9 of -1 raise BorderlineExponent.
    """
    verdict = True
    for expo, limit in exponents:
        e = float(expo)
        if e == -1.0:
            # exactly the harmonic borderline: divergent at either end
            verdict = False
            continue
        if abs(e + 1.0) < 1e-9:
            raise BorderlineExponent(f"exponent {e} is within 1e-9 of -1")
        if limit == "zero":
            verdict &= e > -1.0
        elif limit == "infinity":
            verdict &= e < -1.0
        else:
            raise ValueError(f"limit must be 'zero' or 'infinity', got {limit!r}")
    return verdict


# ---------------------------------------------------------------------------
# columnar serialization (little-endian float64 records)
# ---------------------------------------------------------------------------

_MAGIC = b"bergman-rule v1"


def save_rule(rule: QuadratureRule, path: str) -> None:
    """One text header line, then N records (Re z_1, Im z_1, ..., Re z_dim, Im z_dim, w),
    written one _CHUNK of rows at a time from ``rule.rows``."""
    m = rule.meta
    header = (f"{_MAGIC.decode()} kind={m.domain} dim={m.dim} n={len(rule)} "
              f"radial_n={m.radial_n} angular_n={m.angular_n} "
              f"grading={m.grading!r} origin_grading={m.origin_grading!r} "
              f"shape={','.join(map(str, m.shape))} region={m.region}\n")
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for s in _slices(0, len(rule), _CHUNK):
            nodes, weights = rule.rows(s)
            records = np.empty((len(weights), 2 * rule.dim + 1), dtype="<f8")
            records[:, 0:-1:2] = nodes.real
            records[:, 1:-1:2] = nodes.imag
            records[:, -1] = weights
            fh.write(records.tobytes())


def load_rule(path: str) -> QuadratureRule:
    """The rule ``save_rule`` wrote to ``path``; ValueError for a file no built rule could write."""
    with open(path, "rb") as fh:
        header = fh.readline().decode()
        if not header.startswith(_MAGIC.decode()):
            raise ValueError(f"{path} is not a serialized rule")
        try:
            fields = dict(tok.split("=", 1) for tok in header.strip().split()[2:])
            # files written before the shape was recorded load with shape ()
            meta = RuleMeta(fields["kind"], int(fields["dim"]), int(fields["radial_n"]),
                            int(fields["angular_n"]), float(fields["grading"]),
                            float(fields["origin_grading"]),
                            tuple(int(s) for s in fields.get("shape", "").split(",") if s),
                            fields.get("region", "full"))
            DomainSpec(meta.domain, meta.dim)  # refuses an unknown kind or a dimension it lacks
            data = np.frombuffer(fh.read(), dtype="<f8").reshape(int(fields["n"]), 2 * meta.dim + 1)
        except (KeyError, ValueError, UnsupportedKind) as exc:
            raise ValueError(f"{path} is not a valid rule file: {exc!r}") from None
    nodes = (data[:, 0:2 * meta.dim:2] + 1j * data[:, 1:2 * meta.dim:2]).astype(complex)
    try:
        return QuadratureRule(nodes, np.ascontiguousarray(data[:, -1]), meta)
    except (InvalidResolution, NonFiniteValue) as exc:
        raise ValueError(f"{path} is not a valid rule file: {exc}") from None
