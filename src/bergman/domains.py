"""Model domains in C^n and their Bergman kernels.

Closed-form kernels on the unit disc, the unit ball, polydiscs, the upper half
plane, the punctured disc and the Hartogs triangle: each kind declares K once,
and one evaluator derives K and |K|^2 from it; the one-point ``kernel``,
``kernel_ratio`` and ``normalized_kernel`` use ``kernel_values`` and
``kernel_diag``.  A Reinhardt profile (a rotation-invariant domain in C^2
described in modulus space, with declared radial asymptotics) classifies and
measures the square-integrable monomials.

All integrals use unnormalized Lebesgue volume, so the disc kernel carries the
1/pi factor explicitly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    NonpositiveDiagonal,
    PointOutsideDomain,
    UndeclaredAsymptotics,
    UnresolvedIntegral,
    UnsupportedKind,
)

# Relative slack used by all strict membership inequalities.  Points this close
# to the boundary would put kernel denominators inside their rounding noise.
BOUNDARY_MARGIN = 1e-12

CPoint = tuple[complex, ...]


def as_point(z, dim: int) -> CPoint:
    """Coerce a scalar / sequence into a tuple of ``dim`` complex coordinates."""
    if np.isscalar(z) or isinstance(z, complex):
        coords = (complex(z),)
    else:
        coords = tuple(complex(c) for c in z)
    if len(coords) != dim:
        raise ValueError(f"expected a point in C^{dim}, got {len(coords)} coordinates")
    return coords


@dataclass(frozen=True)
class ReinhardtProfile:
    """Rotation-invariant domain described in modulus space.

    The region is {0 <= r1 < r1_max, 0 <= r2 < bound(r1)} in C^2.
    ``exponent_at_zero`` / ``exponent_at_inf`` declare the power-law behavior
    of ``bound`` as r1 -> 0 and r1 -> infinity; the latter is required
    whenever r1_max is infinite.  ``allows_negative[i]`` states whether
    monomials may carry negative powers of z_i (true only when the domain
    omits the coordinate hyperplane z_i = 0).
    """

    name: str
    dim: int
    r1_max: float
    bound: Optional[Callable[[float], float]] = None
    exponent_at_zero: Optional[float] = None
    exponent_at_inf: Optional[float] = None
    allows_negative: tuple[bool, ...] = (False, False)


def validate_profile(profile: ReinhardtProfile, rel_tol: float = 0.01) -> None:
    """Probe the bound function at radii 1e-3 and 1e3 against the declared exponents.

    The probed quantity is the local log-log slope of ``bound``; it must match
    the declared exponent to ``rel_tol``.  Raises UndeclaredAsymptotics when the
    data is missing or inconsistent.
    """
    if profile.bound is None:
        raise UndeclaredAsymptotics(f"profile {profile.name!r} has no bound function")

    def slope_at(r):
        h = 1.0 + 1e-6
        return math.log(profile.bound(r * h) / profile.bound(r)) / math.log(h)

    checks = []
    if profile.exponent_at_zero is not None:
        checks.append((1e-3, profile.exponent_at_zero))
    elif profile.r1_max > 1e-3:
        raise UndeclaredAsymptotics(f"profile {profile.name!r}: exponent at 0 undeclared")
    if math.isinf(profile.r1_max):
        if profile.exponent_at_inf is None:
            raise UndeclaredAsymptotics(f"profile {profile.name!r}: exponent at infinity undeclared")
        checks.append((1e3, profile.exponent_at_inf))
    for r, declared in checks:
        if r >= profile.r1_max:
            continue
        got = slope_at(r)
        if abs(got - declared) > rel_tol * max(1.0, abs(declared)):
            raise UndeclaredAsymptotics(
                f"profile {profile.name!r}: declared exponent {declared} at r={r} "
                f"but probed slope {got:.6f}"
            )


def boas_profile() -> ReinhardtProfile:
    """Unbounded log-convex Reinhardt domain with bound |z2| < (1+|z1|)^(-1)."""
    p = ReinhardtProfile(
        name="boas",
        dim=2,
        r1_max=math.inf,
        bound=lambda r: 1.0 / (1.0 + r),
        exponent_at_zero=0.0,
        exponent_at_inf=-1.0,
        allows_negative=(False, False),
    )
    validate_profile(p)
    return p


@dataclass(frozen=True)
class DomainSpec:
    """A model domain: kind tag and dimension.

    Each kind is a subclass that holds every formula of that kind, and ``DomainSpec(kind, dim)``
    returns an instance of the subclass registered for ``kind``: that lookup is the one dispatch
    on the kind.  It refuses (ValueError) a ``dim`` other than the kind's ``fixed_dim`` (None:
    any dim >= 1).  Every kind defines ``volume()``, the strict membership ``_inside(Z)`` (its
    inequalities carry the relative slack BOUNDARY_MARGIN) and its kernel once, as
    ``_form``; ``kernel`` and ``kernel_abs2`` derive from it here.  Membership and
    kernels take (..., dim) complex arrays; one point is the one-point case.
    """

    kind: str
    dim: int

    fixed_dim = None
    # origin grading of quadrature rules when the caller gives none; None: the boundary grading
    default_origin_grading = None
    # (radial_n, angular_n) of the CLI's rule when no flag sets them, and of the reproduction
    # suite's rule on the disc and on the Hartogs triangle
    default_grid = (32, 64)
    # whether K(e^{it} a, e^{it} b) = K(a, b) on a domain of one variable: B1 is then one value
    # on each rotation ring of a rule invariant under the ring's rotations
    rotation_invariant = False

    def __new__(cls, kind=None, *args, **kwargs):
        if cls is DomainSpec:
            if kind not in _KINDS:
                raise UnsupportedKind(f"unknown domain kind {kind!r}")
            cls = _KINDS[kind]
        return super().__new__(cls)

    def __post_init__(self):
        if self.dim < 1 or self.fixed_dim not in (None, self.dim):
            raise ValueError(f"{self.kind} has no dimension {self.dim!r}")

    def __str__(self):
        return f"{self.kind}({self.dim})"

    def contains(self, Z) -> np.ndarray:
        """Strict membership of each point of a (..., dim) array; ValueError for another last axis."""
        if np.shape(Z)[-1:] != (self.dim,):
            raise ValueError(f"expected points in C^{self.dim}, got shape {np.shape(Z)}")
        return self._inside(np.asarray(Z))

    def _form(self, a: np.ndarray, b: np.ndarray):
        """K(a, b) = c num / prod k_i l_i^e_i as (c, num, [(k_i, l_i, e_i), ...]): real c and k_i,
        fresh complex arrays num (None for 1) and l_i over the broadcast of (..., dim) arrays a
        and b, and integer powers e_i >= 2."""
        raise UnsupportedKind(f"no closed-form kernel on {self}")

    def kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """K(a, b) over broadcasting (..., dim) arrays, as a new complex array."""
        return _evaluate(*self._form(a, b), squared=False)

    def kernel_abs2(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """|K(a, b)|^2 over broadcasting (..., dim) arrays, as a new real array."""
        return _evaluate(*self._form(a, b), squared=True)

    def diag(self, z: np.ndarray) -> np.ndarray:
        """K(z, z) over (..., dim) arrays, cancellation-safe near the boundary on every
        kind but the Hartogs triangle (see its comment)."""
        raise UnsupportedKind(f"no closed-form kernel on {self}")

    def sample(self, rng) -> CPoint:
        """One point from the bulk of the domain, drawn from ``rng``."""
        raise UnsupportedKind(f"no interior sampler on {self}")

    def scan_grid(self, level: int) -> np.ndarray:
        """The (M, dim) br_scan grid, accumulating at the singular loci; ``level`` refines it."""
        raise UnsupportedKind(f"no scan grid on {self}")

    def factor_points(self, Z: np.ndarray) -> np.ndarray:
        """The (M, dim) points Z in product coordinates: column i is the point in factor disc i."""
        raise UnsupportedKind(f"{self} is not a product of discs")

    def positive_diag(self, Z: np.ndarray) -> np.ndarray:
        """K(z, z) over (M, dim) points; raises NonpositiveDiagonal unless all positive and finite."""
        vals = self.diag(Z)
        ok = (vals > 0.0) & (vals < np.inf)
        if not ok.all():
            i = np.argmin(ok)
            raise NonpositiveDiagonal(f"K(z,z)={vals[i]} at z={Z[i]} on {self}")
        return vals


def _moduli(Z: np.ndarray) -> np.ndarray:
    """|z_i| entrywise, rounded as Python's abs(complex) (numpy's complex abs differs in the last bit)."""
    return np.hypot(Z.real, Z.imag)


def _reduce_last(op, A: np.ndarray) -> np.ndarray:
    """``op`` reduced over the last axis, column after column: numpy's reduction of short rows is slow."""
    out = A[..., 0]
    for k in range(1, A.shape[-1]):
        out = op(out, A[..., k])
    return out


# x + _GRID - _GRID rounds |x| < 2^25 to a multiple of 2^-26 (Veltkamp's splitting on a fixed grid)
_GRID = 1.5 * 2.0 ** 26
# rows that _one_minus_sum_squares splits together: their work arrays stay small enough to reuse
_SPLIT_ROWS = 4096
# sums of squares above this take the exact split; at or below it 1 - sum cancels by at most 4x
_CANCELS = 0.75


def _one_minus_sum_squares(P: np.ndarray) -> np.ndarray:
    """1 - (sum of P**2 over the last axis) for a real (..., K) array with entries below 1.

    Where the sum is at most _CANCELS the plain formula is within 3K + 1 ulps.
    Elsewhere each entry splits exactly as h + l with h on the 2^-26 grid, so h^2
    and 2hl are exact products and 1 - sum h^2 is exact; Knuth's two-sum adds the
    2hl, and only the l^2, each below 2^-54, are rounded: a few ulps.  The plain
    formula alone loses the digits that cancel, 1.1e-9 relative of the disc
    diagonal at |z| = 1 - 1e-7.
    """
    flat = P.reshape(-1, P.shape[-1])
    s = _reduce_last(np.add, flat * flat)
    r = 1.0 - s
    near = (s > _CANCELS).nonzero()[0]
    for i in range(0, len(near), _SPLIT_ROWS):
        rows = near[i:i + _SPLIT_ROWS]
        r[rows] = _one_minus_split(flat[rows].T.copy())
    return r.reshape(P.shape[:-1])


def _one_minus_split(Q: np.ndarray) -> np.ndarray:
    """1 - (sum of Q**2 over the first axis) of a (K, m) array by the exact split; Q is overwritten."""
    h = Q + _GRID
    h -= _GRID
    l = np.subtract(Q, h, out=Q)
    r = np.multiply(h[0], h[0])
    np.subtract(1.0, r, out=r)
    t = np.empty_like(r)
    for k in range(1, len(Q)):
        r -= np.multiply(h[k], h[k], out=t)
    h += h
    h *= l  # 2hl
    l *= l
    m, c = h[0], l[0]
    for k in range(1, len(Q)):
        # two-sum: m + h[k] = s + (m - (s - b)) + (h[k] - b) exactly, with b = s - m
        s = m + h[k]
        b = np.subtract(s, m, out=t)
        np.subtract(h[k], b, out=h[k])
        c += h[k]
        c += np.subtract(m, np.subtract(s, b, out=b), out=b)
        c += l[k]
        m = s
    r -= m
    r -= c
    return r


def _parts(z: np.ndarray) -> np.ndarray:
    """The (..., dim, 2) real and imaginary parts of a (..., dim) complex array."""
    z = np.ascontiguousarray(z, dtype=complex)
    return z.view(float).reshape(z.shape + (2,))


def _pair(op, a: np.ndarray, b: np.ndarray, i: int) -> np.ndarray:
    """op(a_i, conj(b_i)) over the broadcast of (..., dim) arrays, always as a fresh array."""
    return np.asarray(op(a[..., i], np.conj(b[..., i])))


def _abs2(l: np.ndarray) -> np.ndarray:
    """|l|^2 of a fresh complex array in its own storage: its float pairs squared, then added
    into the first half so later passes run contiguous (numpy computes overlaps as if apart)."""
    f = l.reshape(-1).view(float)
    np.multiply(f, f, out=f)
    return np.add(f[0::2], f[1::2], out=f[:l.size]).reshape(l.shape)


def _own(x: np.ndarray) -> np.ndarray:
    """x as the output of a product with operand x, or a fresh array for one value: numpy
    rounds a one-element complex product written over its operand in another loop."""
    return x if x.size > 1 else np.empty_like(x)


def _evaluate(c: float, num, factors: list, squared: bool) -> np.ndarray:
    """c num / prod k l^e from a ``DomainSpec._form``, or with ``squared`` c^2 |num|^2 / prod
    k^2 |l|^(2e) in real arithmetic.  Powers are repeated products (a complex ** is slower; the
    first by np.square, as l ** 2 rounds), each taken in its factor's storage, their product in
    the first one's and the quotient in the denominator's: fresh whole-block arrays are each
    paged in afresh."""
    den = None
    for k, l, e in factors:
        if squared:
            k, l = k ** 2, _abs2(l)
        p = np.square(l, out=_own(l) if e == 2 else np.empty_like(l))
        for _ in range(e - 2):
            p = np.multiply(p, l, out=_own(p))
        if k != 1.0:
            np.multiply(p, k, out=p)
        den = p if den is None else np.multiply(den, p, out=_own(den))
    if squared:
        c, num = c ** 2, None if num is None else _abs2(num)
    if num is None:
        return np.divide(c, den, out=den)
    return np.divide(num if c == 1.0 else np.multiply(num, c, out=num), den, out=den)


def _scan_axes(level: int):
    """Radial count, depth (radii reach 1 - 10^(-depth)) and phases of a scan grid."""
    n_r = 8 * (level + 1)
    n_th = 4 * (level + 1)
    return n_r, 3.0 + 3.0 * level, np.exp(2j * np.pi * np.arange(n_th) / n_th)


def _pair_scan_grid(level: int, scale: float) -> np.ndarray:
    n_r, depth, angles = _scan_axes(level)
    radii = (1.0 - np.logspace(-depth, -0.3, n_r))[:: max(1, n_r // 6)] / scale
    z = np.multiply.outer(radii, angles[::2])  # the points vary as r1, r2, a1, a2
    return np.stack(np.broadcast_arrays(z[:, None, :, None], z[None, :, None, :]), -1).reshape(-1, 2)


class _Polydisc(DomainSpec):
    _sample_radius = 0.60

    def volume(self):
        return math.pi ** self.dim

    def _inside(self, Z):
        return (_moduli(Z) < 1.0 - BOUNDARY_MARGIN).all(axis=-1)

    def _form(self, a, b):
        # 1 / prod pi (1 - a_i conj(b_i))^2
        q = [_pair(np.multiply, a, b, i) for i in range(self.dim)]
        return 1.0, None, [(np.pi, np.subtract(1.0, x, out=x), 2) for x in q]

    def diag(self, z):
        r = _one_minus_sum_squares(_parts(z))
        return 1.0 / _reduce_last(np.multiply, np.pi * r * r)

    def sample(self, rng):
        return tuple((0.05 + self._sample_radius * math.sqrt(rng.random()))
                     * cmath.exp(2j * math.pi * rng.random()) for _ in range(self.dim))

    def scan_grid(self, level):
        return _pair_scan_grid(level, 1.0)

    def factor_points(self, Z):
        return Z


class _Disc(_Polydisc):
    """The unit disc: the polydisc of dimension one, sampled and scanned closer to the edge."""

    fixed_dim = 1
    rotation_invariant = True
    _sample_radius = 0.75
    _scan_center = (0.0,)

    def scan_grid(self, level):
        n_r, depth, angles = _scan_axes(level)
        radii = np.concatenate([self._scan_center, 1.0 - np.logspace(-depth, -0.3, n_r)])
        return np.multiply.outer(radii, angles).reshape(-1, 1)


class _PuncturedDisc(_Disc):
    _scan_center = ()

    def _inside(self, Z):
        r = _moduli(Z[..., 0])
        return (0.0 < r) & (r < 1.0 - BOUNDARY_MARGIN)


class _Ball(DomainSpec):
    def volume(self):
        return math.pi ** self.dim / math.factorial(self.dim)

    def _inside(self, Z):
        r = _moduli(Z)
        x = r[..., 0] * r[..., 0]
        for i in range(1, self.dim):
            x = x + r[..., i] * r[..., i]
        return x < 1.0 - BOUNDARY_MARGIN

    def _form(self, a, b):
        # n! / (pi^n (1 - <a, b>)^(n+1))
        n = self.dim
        inner = _pair(np.multiply, a, b, 0)
        for i in range(1, n):
            np.add(inner, _pair(np.multiply, a, b, i), out=inner)
        return math.factorial(n) / np.pi ** n, None, [(1.0, np.subtract(1.0, inner, out=inner),
                                                       n + 1)]

    def diag(self, z):
        n = self.dim
        r = _one_minus_sum_squares(_parts(z).reshape(z.shape[:-1] + (2 * n,)))
        return math.factorial(n) / (np.pi ** n * r ** (n + 1))

    def sample(self, rng):
        v = rng.normal(size=2 * self.dim)
        v /= np.linalg.norm(v)
        rad = 0.7 * rng.random() ** (1.0 / (2 * self.dim))
        return tuple(complex(rad * v[2 * i], rad * v[2 * i + 1]) for i in range(self.dim))

    def scan_grid(self, level):
        return _pair_scan_grid(level, math.sqrt(2.0))


class _HalfPlane(DomainSpec):
    fixed_dim = 1

    def volume(self):
        return math.inf

    def _inside(self, Z):
        return Z[..., 0].imag > BOUNDARY_MARGIN * np.maximum(1.0, _moduli(Z[..., 0]))

    def _form(self, a, b):
        # -1 / (pi (a - conj(b))^2)
        return -1.0, None, [(np.pi, _pair(np.subtract, a, b, 0), 2)]

    def diag(self, z):
        return 1.0 / (4.0 * np.pi * z[..., 0].imag ** 2)

    def sample(self, rng):
        return (complex(rng.uniform(-2, 2), 10.0 ** rng.uniform(-1.5, 1.5)),)

    def scan_grid(self, level):
        n_r, depth, _ = _scan_axes(level)
        ys = np.logspace(-depth, depth / 2.0, 2 * n_r)
        return (np.linspace(-2.0, 2.0, 5) + 1j * ys[:, None]).reshape(-1, 1)


class _Hartogs(DomainSpec):
    """The Hartogs triangle |z2| < |z1| < 1."""

    fixed_dim = 2
    default_origin_grading = 3.0
    default_grid = (20, 48)

    def volume(self):
        return math.pi ** 2 / 2.0

    def _inside(self, Z):
        r = _moduli(Z)
        m = 1.0 - BOUNDARY_MARGIN
        return (r[..., 0] < m) & (r[..., 1] < r[..., 0] * m)

    def factor_points(self, Z):
        # (z1, z2) -> (z1, z2/z1) maps the triangle onto the product of the punctured disc and the disc
        return np.stack([Z[:, 0], Z[:, 1] / Z[:, 0]], axis=1)

    def _form(self, a, b):
        # x / (pi^2 (x - y)^2 (1 - x)^2) with x = a1 conj(b1), y = a2 conj(b2)
        x, y = _pair(np.multiply, a, b, 0), _pair(np.multiply, a, b, 1)
        return 1.0, x, [(np.pi ** 2, np.subtract(x, y, out=y), 2),
                        (1.0, np.subtract(1.0, x, out=np.empty_like(x)), 2)]

    def diag(self, z):
        # r1^2 / (pi^2 d^2 (1 - r1^2)^2), d = (r1 - r2)(r1 + r2), in place on three arrays.  From
        # rounded moduli it is not cancellation-safe: 5.6e-6 relative off 1e-10 from |z2| = |z1|,
        # and 3.0e-6 off 1e-10 from |z1| = 1
        r1, r2 = np.abs(z.reshape(-1, 2)).T
        d = r1 - r2
        r2 += r1
        d *= r2
        den = np.pi ** 2 * d
        den *= d
        r1 *= r1
        np.subtract(1.0, r1, out=r2)
        r2 *= r2
        den *= r2
        return np.divide(r1, den, out=den).reshape(z.shape[:-1])

    def sample(self, rng):
        r1 = 0.15 + 0.55 * rng.random()
        t = (0.05 + 0.65 * rng.random()) * cmath.exp(2j * math.pi * rng.random())
        z1 = r1 * cmath.exp(2j * math.pi * rng.random())
        return (z1, z1 * t)

    def scan_grid(self, level):
        n_r, depth, angles = _scan_axes(level)
        r1s = np.concatenate([np.logspace(-depth, -0.3, n_r),
                              1.0 - np.logspace(-depth, -0.6, n_r // 2)])
        z1 = np.multiply.outer(r1s, angles[::2])  # the points vary as r1, t, a
        z2 = np.multiply.outer(np.multiply.outer(r1s, (0.0, 0.3, 0.9)), angles[::2])
        return np.stack(np.broadcast_arrays(z1[:, None], z2), -1).reshape(-1, 2)


_KINDS = {"disc": _Disc, "punctured-disc": _PuncturedDisc, "ball": _Ball, "polydisc": _Polydisc,
          "half-plane": _HalfPlane, "hartogs": _Hartogs}


def disc() -> DomainSpec:
    return DomainSpec("disc", 1)


def ball(n: int = 2) -> DomainSpec:
    return DomainSpec("ball", n)


def polydisc(n: int = 2) -> DomainSpec:
    return DomainSpec("polydisc", n)


def upper_half_plane() -> DomainSpec:
    return DomainSpec("half-plane", 1)


def punctured_disc() -> DomainSpec:
    return DomainSpec("punctured-disc", 1)


def hartogs_triangle() -> DomainSpec:
    return DomainSpec("hartogs", 2)


_BY_NAME = {
    "disc": disc,
    "ball2": lambda: ball(2),
    "bidisc": lambda: polydisc(2),
    "halfplane": upper_half_plane,
    "punctured-disc": punctured_disc,
    "hartogs": hartogs_triangle,
}


def domain_by_name(name: str) -> DomainSpec:
    try:
        return _BY_NAME[name]()
    except KeyError:
        raise UnsupportedKind(f"unknown domain name {name!r}; choose from {sorted(_BY_NAME)}")


def _as_nodes(domain: DomainSpec, nodes) -> np.ndarray:
    """``nodes`` as an (N, dim) array; (N,) is read as (N, 1) on a one-dimensional domain."""
    W = np.asarray(nodes)
    if W.ndim == 1 and domain.dim == 1:
        return W[:, None]
    if W.ndim != 2 or W.shape[1] != domain.dim:
        raise ValueError(f"expected nodes of shape (N, {domain.dim}), got {W.shape}")
    return W


def volume(domain: DomainSpec) -> float:
    """Lebesgue volume of the domain (may be infinite)."""
    return domain.volume()


def _refuse_outside(domain: DomainSpec, Z: np.ndarray) -> None:
    """Raise PointOutsideDomain naming the first row of the (M, dim) array Z outside ``domain``."""
    inside = domain._inside(Z)
    if not inside.all():
        p = tuple(complex(c) for c in Z[np.argmin(inside)])
        raise PointOutsideDomain(f"{p} is not strictly inside {domain}")


def require_inside(domain: DomainSpec, z) -> CPoint:
    p = as_point(z, domain.dim)
    _refuse_outside(domain, np.array([p]))
    return p


def inside_points(domain: DomainSpec, z) -> tuple[np.ndarray, bool]:
    """``z`` as an (M, dim) complex array whose rows lie strictly inside ``domain``.

    An (M, dim) ndarray is a batch of M points; anything else is one point,
    the case M = 1, which the returned flag marks.
    """
    if not (isinstance(z, np.ndarray) and z.ndim == 2):
        Z = np.array([as_point(z, domain.dim)])
        _refuse_outside(domain, Z)
        return Z, True
    if z.shape[1] != domain.dim:
        raise ValueError(f"expected a point in C^{domain.dim}, got {z.shape[1]} coordinates")
    Z = z.astype(complex)
    _refuse_outside(domain, Z)
    return Z, False


# ---------------------------------------------------------------------------
# closed-form kernels
# ---------------------------------------------------------------------------

def kernel(domain: DomainSpec, z, w) -> complex:
    """Bergman kernel K(z, w) of a closed-form domain.

    Both arguments must lie strictly inside the domain.
    """
    return complex(kernel_values(domain, w, [require_inside(domain, z)])[0])


def kernel_diag(domain: DomainSpec, z) -> float:
    """K(z, z) at one point, accurate near the boundary as ``DomainSpec.diag`` is."""
    return float(domain.positive_diag(inside_points(domain, z)[0])[0])


def kernel_values(domain: DomainSpec, z, nodes: np.ndarray) -> np.ndarray:
    """Vectorized K(w_j, z) over an (N, dim) array of nodes, for a point z strictly inside
    the domain (PointOutsideDomain otherwise).  Membership of the nodes is the caller's
    responsibility (they normally come from a quadrature rule)."""
    return domain.kernel(_as_nodes(domain, nodes), np.asarray(require_inside(domain, z)))


def kernel_diag_values(domain: DomainSpec, nodes: np.ndarray) -> np.ndarray:
    """Vectorized K(w_j, w_j), accurate as kernel_diag."""
    return domain.diag(_as_nodes(domain, nodes))


def kernel_ratio(domain: DomainSpec, z, w) -> float:
    """|K(w, z)| / K(z, z); a domain has a bounded kernel ratio when its supremum is finite."""
    return abs(kernel(domain, w, z)) / kernel_diag(domain, z)


def normalized_kernel(domain: DomainSpec, z) -> Callable:
    """Return w -> K(w, z)/sqrt(K(z, z)), a unit vector of A^2 for each z.

    The returned callable maps an (N, dim) node array (or (N,) on one-dimensional
    domains) to an array, and a single point strictly inside the domain
    (PointOutsideDomain otherwise) to a complex.
    """
    zp = require_inside(domain, z)
    root = math.sqrt(kernel_diag(domain, zp))

    def k_z(w):
        if isinstance(w, np.ndarray) and w.ndim >= 1:
            return kernel_values(domain, zp, w) / root
        return complex(kernel_values(domain, zp, [require_inside(domain, w)])[0]) / root

    return k_z


def sample_interior(domain: DomainSpec, n: int, seed: int = 0) -> list[CPoint]:
    """Draw ``n`` seeded points from the bulk of the domain.

    Radii stay away from the boundary (and from the singular loci of the
    Hartogs triangle) so kernel-peak integrands remain resolvable at the
    default quadrature resolutions.
    """
    rng = np.random.default_rng(seed)
    return [domain.sample(rng) for _ in range(n)]


# ---------------------------------------------------------------------------
# Reinhardt monomial machinery
# ---------------------------------------------------------------------------

# Gauss-Legendre nodes of the monomial-norm rule, whose value must agree with
# the rule of twice as many nodes to MONOMIAL_REL_AGREEMENT
MONOMIAL_NODES = 64
MONOMIAL_REL_AGREEMENT = 1e-11


def _radial_integral(f: Callable[[float], float], r1_max: float, n: int) -> float:
    """int_0^r1_max f(r) dr by n-node Gauss-Legendre, in u = r/(1+r) when r1_max is infinite."""
    from .quadrature import _gauss  # deferred: quadrature imports this module

    if math.isinf(r1_max):
        u, wu = _gauss(n, 0.0, 1.0)
        r, w = u / (1.0 - u), wu / (1.0 - u) ** 2
    else:
        r, w = _gauss(n, 0.0, r1_max)
    return float(np.sum(w * np.array([f(x) for x in r.tolist()])))


def monomial_l2_norm2(profile: ReinhardtProfile, exponents) -> float:
    """Squared L^2 norm of the monomial z^alpha, or ``inf`` when divergent.

    Convergence is decided by power comparison on the declared asymptotics of
    the radial bound.  A finite value is the reduced radial integral by
    Gauss-Legendre quadrature on (0, r1_max), taken in u = r/(1+r) when
    r1_max is infinite; this is exact for the Hartogs (a polynomial in r) and
    Boas (a polynomial in u) profiles.  The MONOMIAL_NODES and doubled rules
    must agree to MONOMIAL_REL_AGREEMENT, or UnresolvedIntegral is raised.
    """
    from .quadrature import tail_exponent_classify  # deferred: quadrature imports this module

    alpha = tuple(int(a) for a in exponents)
    if len(alpha) != profile.dim:
        raise ValueError(f"expected {profile.dim} exponents, got {len(alpha)}")
    for i, a in enumerate(alpha):
        if a < 0 and not profile.allows_negative[i]:
            return math.inf

    a1, a2 = alpha
    # inner r2 integral: r2^(2 a2 + 1) near 0
    if not tail_exponent_classify([(2 * a2 + 1, "zero")]):
        return math.inf
    # outer integrand after the inner integral: r1^(2 a1 + 1) * bound(r1)^(2 a2 + 2)
    if profile.exponent_at_zero is None:
        raise UndeclaredAsymptotics(f"profile {profile.name!r}: exponent at 0 undeclared")
    pairs = [(2 * a1 + 1 + profile.exponent_at_zero * (2 * a2 + 2), "zero")]
    if math.isinf(profile.r1_max):
        if profile.exponent_at_inf is None:
            raise UndeclaredAsymptotics(f"profile {profile.name!r}: exponent at infinity undeclared")
        pairs.append((2 * a1 + 1 + profile.exponent_at_inf * (2 * a2 + 2), "infinity"))
    if not tail_exponent_classify(pairs):
        return math.inf

    def outer(r):
        return 4.0 * math.pi ** 2 / (2 * a2 + 2) * r ** (2 * a1 + 1) * profile.bound(r) ** (2 * a2 + 2)

    coarse, val = (_radial_integral(outer, profile.r1_max, n)
                   for n in (MONOMIAL_NODES, 2 * MONOMIAL_NODES))
    if not abs(val - coarse) <= MONOMIAL_REL_AGREEMENT * abs(val):
        raise UnresolvedIntegral(
            f"profile {profile.name!r}, exponents {alpha}: {MONOMIAL_NODES} and "
            f"{2 * MONOMIAL_NODES} Gauss-Legendre nodes give {coarse!r} and {val!r}")
    return val
