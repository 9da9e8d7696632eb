"""Graded tensor quadrature over the model domains.

Rules combine Gauss-Legendre radial panels (power-graded toward singular
loci) with uniform angular grids, which are spectrally accurate for periodic
integrands.  The Hartogs triangle is parametrized as z2 = z1 * t with |t| < 1,
whose Jacobian |z1|^2 flattens the singular edge |z2| = |z1| onto |t| = 1.

Integrands and symbols are read by ``evaluate_on_rule`` alone, so
``integrate`` and the transforms share one error contract.  Sums are
accumulated in a fixed node order with compensated summation, so
results are bit-reproducible: numpy's pairwise sum of each 65536-node chunk,
then an exact fsum of the chunk sums.  An operator is a kernel form F and one
coefficient c_j per node, summed as F(w_j, z) c_j for many points z: F is |K|^2
from ``DomainSpec.kernel_abs2`` for the Berezin transforms, its root for P+, and
conj K for P, evaluated in node blocks of about 2^17 entries, each multiplied by
its coefficients in place.  A chunk is reduced from its one block where one block
spans it (on a rule of one chunk the points are grouped so that one does) and
gathered from its blocks into a buffer otherwise, so the blocked sum reproduces
``compensated_sum`` of the same summands chunk for chunk, bit for bit, whatever
the number of points.  ``discretize_berezin`` and ``br_scan`` fill their kernel
arrays in row blocks of the same size.  A call of at
least 2^21 point-node entries runs on a thread pool, one thread per core the process
may run on (at most its cgroup's CPU quota); its threads split one serial pass's block
and buffer sizes, and the calling thread fsums the chunk sums in chunk order.
"""

from __future__ import annotations

import cmath
import math
import mmap
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
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


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes (N, dim) and positive weights (N,) discretizing dV on a domain.

    ``factors`` are the 1-D disc rules a product rule is built from, one per
    coordinate of ``DomainSpec.factor_points``: a polydisc rule is their tensor
    product, and a Hartogs rule the product of the rules in z1 and in z2/z1,
    weighted by the Jacobian |z1|^2.  Other rules, and loaded ones, have none.
    """

    nodes: np.ndarray
    weights: np.ndarray
    meta: RuleMeta
    factors: tuple = ()

    def __post_init__(self):
        if len(self.weights) != self.nodes.shape[0]:
            raise ValueError("weights and nodes disagree in length")

    def __len__(self):
        return self.nodes.shape[0]

    def __repr__(self):
        return f"QuadratureRule({self.meta!r}, nodes={len(self)})"

    @property
    def dim(self) -> int:
        return self.nodes.shape[1]

    @cached_property
    def node_diag(self) -> np.ndarray:
        """K(w_j, w_j) at the nodes on the domain ``meta`` names, formed on first access and kept
        read-only with the rule (a disc rule serving the punctured disc: one formula).

        It is kept in its own anonymous page mapping: placed in the allocator's heap, the
        long-lived array split the space that later calls' transient whole-rule arrays reuse,
        and cost the point-queries benchmark about 2 MB of peak RSS beyond its own 4.2 MB.
        """
        diag = DomainSpec(self.meta.domain, self.meta.dim).diag(self.nodes)
        kept = np.frombuffer(mmap.mmap(-1, max(1, diag.nbytes)), dtype=float, count=diag.size)
        np.copyto(kept, diag)
        kept.flags.writeable = False
        return kept


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


# nodes per pairwise-summed chunk of compensated_sum
_CHUNK = 65536
# entries of one evaluated kernel block (M points x block nodes)
_BLOCK = 1 << 17
# entries of the (points x chunk) buffer that gathers a chunk spanned by several blocks;
# also the size of call from which the thread pool runs
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


def compensated_sum(values: np.ndarray) -> float:
    """Deterministic compensated sum: pairwise chunks, then exact fsum of partials."""
    v = np.asarray(values, dtype=float)
    partials = [float(np.sum(v[i:i + _CHUNK])) for i in range(0, len(v), _CHUNK)]
    return math.fsum(partials)


def _slices(start: int, stop: int, step: int) -> list:
    return [slice(i, min(i + step, stop)) for i in range(start, stop, step)]


def _workers(entries: int) -> int:
    """Threads sharing a call of ``entries`` point-node entries: _CORES from _BUFFER on, else 1."""
    return _CORES if _POOL is not None and entries >= _BUFFER else 1


def _map(fn, items: list, entries: int) -> list:
    """``[fn(item) for item in items]`` in item order, pooled for 2+ items if _workers(entries) > 1."""
    return list((_POOL.map if len(items) > 1 and _workers(entries) > 1 else map)(fn, items))


def _kernel_rows(pair, Z: np.ndarray, W: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """The (M, N) array pair(W_j, Z_i) / scale_i of a real kernel form over the (M, dim) points
    Z and (N, dim) nodes W, in row blocks of about _BLOCK / workers entries through ``_map``."""
    out = np.empty((len(Z), len(W)))
    def fill(r):  # each row block writes its own rows
        np.divide(pair(W[None], Z[r, None]), scale[r, None], out=out[r])
    rows = _slices(0, len(Z), max(1, _BLOCK // _workers(out.size) // max(1, len(W))))
    _map(fill, rows, out.size)
    return out


def _kernel_sums(pair, rule: QuadratureRule, Z: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Per row z_m of the (M, dim) points Z, the compensated sum over the nodes w_j
    of pair(w_j, z_m) * coef[j].  ``pair`` is a kernel form such as ``DomainSpec.kernel``
    or ``kernel_abs2`` that returns a new array; each block of it is multiplied by its
    coefficients in place, unless a complex ``coef`` meets a real block.

    Each (point group, _CHUNK nodes) pair is one task of ``_map``, evaluated in node
    blocks of about _BLOCK / workers entries.  A chunk filled by one block is reduced
    along the block's rows; the blocks of any other chunk are first gathered into a
    (points, chunk) buffer of at most _BUFFER / workers entries.  On a rule of one
    chunk the points are grouped so that one block spans it.  Fsumming the chunk sums
    in chunk order makes each sum equal ``compensated_sum`` of that point's full
    summand array, bit for bit.  Returns an (M,) complex array; real summands give
    zero imaginary parts.
    """
    n, workers = len(rule), _workers(len(Z) * len(rule))
    span = _BLOCK if n <= _CHUNK else _BUFFER  # entries of one group over one chunk
    groups = _slices(0, len(Z), max(1, span // workers // max(1, min(n, _CHUNK))))
    chunks = range(0, n, _CHUNK)

    def chunk_sums(item):
        r, c = item
        stop = min(c + _CHUNK, n)
        step = max(1, min(_CHUNK, _BLOCK // workers // (r.stop - r.start)))
        buf = None
        for s in _slices(c, stop, step):
            # a lone node goes in twice: one-entry blocks take a numpy loop differing in the last bit
            idx = s if s.stop - s.start > 1 else [s.start, s.start]
            block = pair(rule.nodes[None, idx], Z[r, None])
            block = (block * coef[idx] if np.iscomplexobj(coef) and not np.iscomplexobj(block)
                     else np.multiply(block, coef[idx], out=block))
            if step >= stop - c:  # the chunk's one block: reduced where it lies
                buf = block[:, :stop - c]
            else:
                if buf is None:
                    buf = np.empty((r.stop - r.start, stop - c), block.dtype)
                buf[:, s.start - c:s.stop - c] = block[:, :s.stop - s.start]
        return np.sum(buf.real, axis=1), np.sum(buf.imag, axis=1) if np.iscomplexobj(buf) else None

    parts = _map(chunk_sums, [(r, c) for r in groups for c in chunks], len(Z) * n)
    sums = np.zeros(len(Z), dtype=complex)
    for i, r in enumerate(groups if n else ()):
        re, im = zip(*parts[i * len(chunks):(i + 1) * len(chunks)])
        sums.real[r] = [math.fsum(col) for col in zip(*re)]
        if im[0] is not None:
            sums.imag[r] = [math.fsum(col) for col in zip(*im)]
    return sums


def _points_on_rule(domain: DomainSpec, z, rule: QuadratureRule) -> tuple[np.ndarray, bool]:
    """``inside_points(domain, z)`` for an operator on ``rule``: ValueError unless ``rule`` was
    built for ``domain``, or is a disc rule on the punctured disc (a null set apart)."""
    m = rule.meta
    if m.dim != domain.dim or (m.domain != domain.kind
                               and (m.domain, domain.kind) != ("disc", "punctured-disc")):
        raise ValueError(f"a rule built for {m.domain}({m.dim}) cannot serve {domain}")
    return inside_points(domain, z)


def evaluate_on_rule(rule: QuadratureRule, f) -> np.ndarray:
    """The values of ``f`` at the rule's nodes: the one reading of an integrand or symbol.

    ``f`` is a GridFunction sampled on ``rule`` itself, an ndarray of one value
    per node, or a callable of the (N, dim) nodes ((N,) on a one-dimensional
    rule).  Raises ValueError unless there is exactly one value per node (a
    GridFunction of another rule included), NonFiniteValue on NaN or infinity,
    and TypeError for any other kind of object.
    """
    if isinstance(f, GridFunction):
        vals = f.values_on(rule)
    elif isinstance(f, np.ndarray):
        vals = f
    elif callable(f):
        vals = np.asarray(f(rule.nodes[:, 0] if rule.dim == 1 else rule.nodes))
    else:
        raise TypeError(f"cannot evaluate an object of type {type(f)!r} on a rule")
    if vals.shape != (len(rule),):
        raise ValueError(f"expected one value per node, shape ({len(rule)},), got {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise NonFiniteValue("values are not finite at some quadrature node")
    return vals


def _csum(values: np.ndarray) -> complex:
    """``compensated_sum`` of real and imaginary parts apart, as a complex."""
    if np.iscomplexobj(values):
        return complex(compensated_sum(values.real), compensated_sum(values.imag))
    return complex(compensated_sum(values), 0.0)


def integrate(rule: QuadratureRule, f) -> complex:
    """Sum w_j f(node_j) in fixed order with compensated summation."""
    return _csum(rule.weights * evaluate_on_rule(rule, f))


# ---------------------------------------------------------------------------
# rule construction
# ---------------------------------------------------------------------------

GRADING = 2.0  # of build_rule toward the outer boundaries when the caller gives none


def build_rule(domain: DomainSpec, radial_n: int, angular_n: int,
               grading: float = GRADING, origin_grading: Optional[float] = None) -> QuadratureRule:
    """Tensor rule in polar/toroidal coordinates for a model domain.

    ``grading`` controls clustering toward outer boundaries and the Hartogs
    edge; ``origin_grading`` (default: the domain's ``default_origin_grading``,
    3 on the Hartogs triangle, else ``grading``) controls clustering toward
    r = 0 where integrands such as negative powers of |w1| concentrate.
    """
    if not all(isinstance(n, numbers.Integral) and n >= 4 for n in (radial_n, angular_n)):
        raise InvalidResolution(f"radial_n and angular_n must be integers >= 4, "
                                f"got {radial_n!r} and {angular_n!r}")
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


def _polar_rule(x, wx, angular_n: int, meta: RuleMeta) -> QuadratureRule:
    """The disc rule x e^{i th} with weights x wx dth: radii x (weights wx) times equispaced angles."""
    th, wth = _angles(angular_n)
    z = (x[:, None] * np.exp(1j * th)[None, :]).ravel()
    w = ((x * wx)[:, None] * np.full(angular_n, wth)[None, :]).ravel()
    return QuadratureRule(z[:, None], w, meta)


def _outer(*factors) -> np.ndarray:
    """The outer product of 1-D factors, left-associated: ((f0 x f1) x f2) x ..."""
    out = factors[0]
    for f in factors[1:]:
        out = np.multiply.outer(out, f)
    return out


def _polydisc_rule(domain, radial_n, angular_n, grading, origin_grading):
    """Tensor power of the polar disc rule; the disc is the case dim = 1."""
    dim = domain.dim
    factor = _polar_rule(*_radial_line(radial_n, origin_grading, grading), angular_n,
                         RuleMeta("disc", 1, radial_n, angular_n, grading, origin_grading,
                                  (2 * radial_n, angular_n)))
    z, n = factor.nodes[:, 0], len(factor)
    nodes = np.empty((n,) * dim + (dim,), dtype=complex)
    for i in range(dim):
        nodes[..., i] = z.reshape((n,) + (1,) * (dim - 1 - i))
    weights = _outer(*(factor.weights,) * dim)
    meta = RuleMeta(domain.kind, dim, radial_n, angular_n, grading, origin_grading,
                    factor.meta.shape * dim)
    return QuadratureRule(nodes.reshape(-1, dim), weights.ravel(), meta, (factor,) * dim)


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
    # written in place: one (N, 2) array, no broadcast copies of the coordinates
    nodes = np.empty((len(rho), alpha_n, angular_n, angular_n, 2), dtype=complex)
    nodes[..., 0] = (rho[:, None] * np.cos(al))[:, :, None, None] * phase[:, None]
    nodes[..., 1] = (rho[:, None] * np.sin(al))[:, :, None, None] * phase
    wth = np.full(angular_n, wth)
    w = _outer(rho ** 3 * wrho, np.cos(al) * np.sin(al) * wal, wth, wth).ravel()
    meta = RuleMeta("ball", 2, radial_n, angular_n, grading, origin_grading,
                    (2 * radial_n, alpha_n, angular_n, angular_n))
    return QuadratureRule(nodes.reshape(-1, 2), w, meta)


def _hartogs_rule(domain, radial_n, angular_n, grading, origin_grading):
    # z1 = r e^{i t1}, z2 = z1 * s e^{i t2}; dV = r^3 s dr dt1 ds dt2 = |z1|^2 dA(z1) dA(z2/z1)
    r, wr = _radial_line(radial_n, origin_grading, grading)
    s, ws = _radial_line(radial_n, 1.0, grading)  # ungraded on [0, 1/2]
    shape = (2 * radial_n, angular_n)
    f1 = _polar_rule(r, wr, angular_n,
                     RuleMeta("disc", 1, radial_n, angular_n, grading, origin_grading, shape))
    f2 = _polar_rule(s, ws, angular_n,
                     RuleMeta("disc", 1, radial_n, angular_n, grading, 1.0, shape))
    # written in place: one (N, 2) array, no raveled coordinate copies
    nodes = np.empty((len(f1), len(f2), 2), dtype=complex)
    nodes[..., 0] = f1.nodes
    # t * z1, not z1 * t: the complex product rounds differently with its operands swapped
    np.multiply(f2.nodes[:, 0], f1.nodes, out=nodes[..., 1])
    # the factor weights r wr dt1 and s ws dt2 times the Jacobian r^2, rounded as r^3 wr
    wth = np.full(angular_n, _angles(angular_n)[1])
    w = _outer(r ** 3 * wr, wth, s * ws, wth).ravel()
    meta = RuleMeta("hartogs", 2, radial_n, angular_n, grading, origin_grading, shape * 2)
    return QuadratureRule(nodes.reshape(-1, 2), w, meta, (f1, f2))


_RULE_BUILDERS = {"disc": _polydisc_rule, "punctured-disc": _polydisc_rule, "polydisc": _polydisc_rule,
                  "ball": _ball2_rule, "hartogs": _hartogs_rule}


def disc_patch_rule(center: complex, radius: float, radial_n: int = 24,
                    angular_n: int = 32) -> QuadratureRule:
    """Polar rule over the disc {|z - center| < radius} inside the unit disc.

    Suitable for compactly supported symbols; weights sum to the patch area.
    """
    c = complex(center)
    if not (cmath.isfinite(c) and radius > 0.0):
        raise InvalidResolution(f"patch needs a finite centre and a radius > 0, got {c!r}, {radius!r}")
    if abs(c) + radius >= 1.0:
        raise InvalidResolution("patch must stay inside the unit disc")
    meta = RuleMeta("disc", 1, radial_n, angular_n, 1.0, 1.0,
                    (radial_n, angular_n), region=f"patch({c:.3f},{radius:.3f})")
    polar = _polar_rule(*_gauss(radial_n, 0.0, radius), angular_n, meta)
    return QuadratureRule(c + polar.nodes, polar.weights, meta)


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
    """One text header line, then N records (Re z_1, Im z_1, ..., Re z_dim, Im z_dim, w)."""
    m = rule.meta
    header = (f"{_MAGIC.decode()} kind={m.domain} dim={m.dim} n={len(rule)} "
              f"radial_n={m.radial_n} angular_n={m.angular_n} "
              f"grading={m.grading!r} origin_grading={m.origin_grading!r} "
              f"shape={','.join(map(str, m.shape))} region={m.region}\n")
    records = np.empty((len(rule), 2 * rule.dim + 1), dtype="<f8")
    records[:, 0:-1:2] = rule.nodes.real
    records[:, 1:-1:2] = rule.nodes.imag
    records[:, -1] = rule.weights
    with open(path, "wb") as fh:
        fh.write(header.encode())
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
    if not (np.all(np.isfinite(data)) and np.all(data[:, -1] > 0.0)):
        raise ValueError(f"{path} has a non-finite node or weight, or a weight <= 0")
    nodes = (data[:, 0:2 * meta.dim:2] + 1j * data[:, 1:2 * meta.dim:2]).astype(complex)
    return QuadratureRule(nodes, np.ascontiguousarray(data[:, -1]), meta)
