"""Model domains in C^n and their Bergman kernels.

Closed-form kernels are available for the unit disc, the unit ball, polydiscs,
the upper half plane, the punctured disc and the Hartogs triangle.  A
Reinhardt profile (a rotation-invariant domain in modulus space with declared
radial asymptotics) classifies and measures the square-integrable monomials.

All integrals use unnormalized Lebesgue volume, so the disc kernel carries the
1/pi factor explicitly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
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

    The region is {0 <= r1 < r1_max, 0 <= r2 < bound(r1)} for dim 2 and
    {0 <= r1 < r1_max} for dim 1.  ``exponent_at_zero`` / ``exponent_at_inf``
    declare the power-law behavior of ``bound`` as r1 -> 0 and r1 -> infinity;
    the latter is required whenever r1_max is infinite.  ``allows_negative[i]``
    states whether monomials may carry negative powers of z_i (true only when
    the domain omits the coordinate hyperplane z_i = 0).
    """

    name: str
    dim: int
    r1_max: float
    bound: Optional[Callable[[float], float]] = None
    exponent_at_zero: Optional[float] = None
    exponent_at_inf: Optional[float] = None
    allows_negative: tuple[bool, ...] = (False, False)
    _norm_cache: dict = field(default_factory=dict, repr=False, compare=False)


def validate_profile(profile: ReinhardtProfile, rel_tol: float = 0.01) -> None:
    """Probe the bound function at radii 1e-3 and 1e3 against the declared exponents.

    The probed quantity is the local log-log slope of ``bound``; it must match
    the declared exponent to ``rel_tol``.  Raises UndeclaredAsymptotics when the
    data is missing or inconsistent.
    """
    if profile.dim == 1:
        return
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


def hartogs_profile() -> ReinhardtProfile:
    """The Hartogs triangle |z2| < |z1| < 1 as a Reinhardt profile."""
    p = ReinhardtProfile(
        name="hartogs",
        dim=2,
        r1_max=1.0,
        bound=lambda r: r,
        exponent_at_zero=1.0,
        allows_negative=(True, False),
    )
    validate_profile(p)
    return p


def disc_profile() -> ReinhardtProfile:
    """The unit disc as a one-dimensional Reinhardt profile."""
    return ReinhardtProfile(name="disc", dim=1, r1_max=1.0, allows_negative=(False,))


@dataclass(frozen=True)
class DomainSpec:
    """A model domain: kind tag and dimension.

    Each kind is a subclass that holds every formula of that kind, and
    ``DomainSpec(kind, dim)`` returns an instance of the subclass
    registered for ``kind``: that lookup is the one dispatch on the kind.
    Every kind defines ``volume()`` and the strict membership ``contains(p)``
    of one point, whose inequalities carry the relative slack BOUNDARY_MARGIN.
    Kernels take broadcasting (..., dim) complex arrays; a single point is the
    one-point case of the same formula.
    """

    kind: str
    dim: int

    # origin grading of quadrature rules when the caller gives none; None: the boundary grading
    default_origin_grading = None

    def __new__(cls, kind=None, *args, **kwargs):
        if cls is DomainSpec:
            if kind not in _KINDS:
                raise UnsupportedKind(f"unknown domain kind {kind!r}")
            cls = _KINDS[kind]
        return super().__new__(cls)

    def __str__(self):
        return f"{self.kind}({self.dim})"

    def kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """K(a, b) over broadcasting (..., dim) arrays."""
        raise UnsupportedKind(f"no closed-form kernel on {self}")

    def diag(self, z: np.ndarray) -> np.ndarray:
        """K(z, z) over (..., dim) arrays; the Hartogs form is cancellation-safe."""
        raise UnsupportedKind(f"no closed-form kernel on {self}")

    def sample(self, rng) -> CPoint:
        """One point from the bulk of the domain, drawn from ``rng``."""
        raise UnsupportedKind(f"no interior sampler on {self}")

    def scan_grid(self, level: int) -> list[CPoint]:
        """The br_scan grid, accumulating at the singular loci; ``level`` refines it."""
        raise UnsupportedKind(f"no scan grid on {self}")

    def factor_points(self, Z: np.ndarray) -> np.ndarray:
        """The (M, dim) points Z in product coordinates: column i is the point in factor disc i."""
        raise UnsupportedKind(f"{self} is not a product of discs")

    def kernel_at(self, a: CPoint, b: CPoint) -> complex:
        """K(a, b) at one pair of points: the one-point case of ``kernel``."""
        return complex(self.kernel(np.array([a]), np.array(b))[0])

    def diag_at(self, p: CPoint) -> float:
        """K(p, p) at one point; raises NonpositiveDiagonal unless positive and finite."""
        return float(self.positive_diag(np.array([p]))[0])

    def positive_diag(self, Z: np.ndarray) -> np.ndarray:
        """K(z, z) over (M, dim) points; raises NonpositiveDiagonal unless all positive and finite."""
        vals = self.diag(Z)
        bad = ~((vals > 0.0) & np.isfinite(vals))
        if np.any(bad):
            raise NonpositiveDiagonal(f"K(z,z)={vals[bad][0]} at z={Z[bad][0]} on {self}")
        return vals


def _scan_axes(level: int):
    """Radial count, depth (radii reach 1 - 10^(-depth)) and phases of a scan grid."""
    n_r = 8 * (level + 1)
    n_th = 4 * (level + 1)
    return n_r, 3.0 + 3.0 * level, np.exp(2j * np.pi * np.arange(n_th) / n_th)


def _pair_scan_grid(level: int, scale: float) -> list[CPoint]:
    n_r, depth, angles = _scan_axes(level)
    radii = (1.0 - np.logspace(-depth, -0.3, n_r))[:: max(1, n_r // 6)] / scale
    return [(r1 * a1, r2 * a2) for r1 in radii for r2 in radii
            for a1 in angles[::2] for a2 in angles[::2]]


class _Polydisc(DomainSpec):
    _sample_radius = 0.60

    def volume(self):
        return math.pi ** self.dim

    def contains(self, p):
        return all(abs(c) < 1.0 - BOUNDARY_MARGIN for c in p)

    def kernel(self, a, b):
        out = 1.0
        for i in range(self.dim):
            out = out / (np.pi * (1.0 - a[..., i] * np.conj(b[..., i])) ** 2)
        return out

    def diag(self, z):
        out = 1.0
        for i in range(self.dim):
            out = out / (np.pi * (1.0 - np.abs(z[..., i]) ** 2) ** 2)
        return out

    def sample(self, rng):
        return tuple((0.05 + self._sample_radius * math.sqrt(rng.random()))
                     * cmath.exp(2j * math.pi * rng.random()) for _ in range(self.dim))

    def scan_grid(self, level):
        return _pair_scan_grid(level, 1.0)

    def factor_points(self, Z):
        return Z


class _Disc(_Polydisc):
    """The unit disc: the polydisc of dimension one, sampled and scanned closer to the edge."""

    _sample_radius = 0.75
    _scan_center = (0.0,)

    def scan_grid(self, level):
        n_r, depth, angles = _scan_axes(level)
        radii = np.concatenate([self._scan_center, 1.0 - np.logspace(-depth, -0.3, n_r)])
        return [(r * a,) for r in radii for a in angles]


class _PuncturedDisc(_Disc):
    _scan_center = ()

    def contains(self, p):
        return 0.0 < abs(p[0]) < 1.0 - BOUNDARY_MARGIN


class _Ball(DomainSpec):
    def volume(self):
        return math.pi ** self.dim / math.factorial(self.dim)

    def contains(self, p):
        return sum(abs(c) ** 2 for c in p) < 1.0 - BOUNDARY_MARGIN

    def kernel(self, a, b):
        n = self.dim
        inner = 0.0
        for i in range(n):
            inner = inner + a[..., i] * np.conj(b[..., i])
        # q^(n+1) by repeated multiplication: a complex ** is about twice as slow
        q = 1.0 - inner
        power = q
        for _ in range(n):
            power = power * q
        return math.factorial(n) / (np.pi ** n * power)

    def diag(self, z):
        n = self.dim
        x = np.sum(np.abs(z) ** 2, axis=-1)
        return math.factorial(n) / (np.pi ** n * (1.0 - x) ** (n + 1))

    def sample(self, rng):
        v = rng.normal(size=2 * self.dim)
        v /= np.linalg.norm(v)
        rad = 0.7 * rng.random() ** (1.0 / (2 * self.dim))
        return tuple(complex(rad * v[2 * i], rad * v[2 * i + 1]) for i in range(self.dim))

    def scan_grid(self, level):
        return _pair_scan_grid(level, math.sqrt(2.0))


class _HalfPlane(DomainSpec):
    def volume(self):
        return math.inf

    def contains(self, p):
        return p[0].imag > BOUNDARY_MARGIN * max(1.0, abs(p[0]))

    def kernel(self, a, b):
        return -1.0 / (np.pi * (a[..., 0] - np.conj(b[..., 0])) ** 2)

    def diag(self, z):
        return 1.0 / (4.0 * np.pi * z[..., 0].imag ** 2)

    def sample(self, rng):
        return (complex(rng.uniform(-2, 2), 10.0 ** rng.uniform(-1.5, 1.5)),)

    def scan_grid(self, level):
        n_r, depth, _ = _scan_axes(level)
        ys = np.logspace(-depth, depth / 2.0, 2 * n_r)
        return [(complex(x, y),) for y in ys for x in np.linspace(-2.0, 2.0, 5)]


class _Hartogs(DomainSpec):
    """The Hartogs triangle |z2| < |z1| < 1."""

    default_origin_grading = 3.0

    def volume(self):
        return math.pi ** 2 / 2.0

    def contains(self, p):
        r1, r2 = abs(p[0]), abs(p[1])
        m = 1.0 - BOUNDARY_MARGIN
        return r1 < m and r2 < r1 * m

    def factor_points(self, Z):
        # (z1, z2) -> (z1, z2/z1) maps the triangle onto the product of the punctured disc and the disc
        return np.stack([Z[:, 0], Z[:, 1] / Z[:, 0]], axis=1)

    def kernel(self, a, b):
        x = a[..., 0] * np.conj(b[..., 0])
        y = a[..., 1] * np.conj(b[..., 1])
        return x / (np.pi ** 2 * (x - y) ** 2 * (1.0 - x) ** 2)

    def diag(self, z):
        # |z1|^2 - |z2|^2 as (|z1| - |z2|)(|z1| + |z2|), so accuracy survives
        # near the singular edge
        r1 = np.abs(z[..., 0])
        r2 = np.abs(z[..., 1])
        d = (r1 - r2) * (r1 + r2)
        return r1 * r1 / (np.pi ** 2 * d * d * (1.0 - r1 * r1) ** 2)

    def sample(self, rng):
        r1 = 0.15 + 0.55 * rng.random()
        t = (0.05 + 0.65 * rng.random()) * cmath.exp(2j * math.pi * rng.random())
        z1 = r1 * cmath.exp(2j * math.pi * rng.random())
        return (z1, z1 * t)

    def scan_grid(self, level):
        n_r, depth, angles = _scan_axes(level)
        r1s = np.concatenate([np.logspace(-depth, -0.3, n_r),
                              1.0 - np.logspace(-depth, -0.6, n_r // 2)])
        return [(r1 * a, r1 * t * a) for r1 in r1s for t in (0.0, 0.3, 0.9) for a in angles[::2]]


_KINDS = {"disc": _Disc, "punctured-disc": _PuncturedDisc, "ball": _Ball, "polydisc": _Polydisc,
          "half-plane": _HalfPlane, "hartogs": _Hartogs}


def disc() -> DomainSpec:
    return DomainSpec("disc", 1)


def ball(n: int = 2) -> DomainSpec:
    if n < 1:
        raise ValueError("ball dimension must be >= 1")
    return DomainSpec("ball", n)


def polydisc(n: int = 2) -> DomainSpec:
    if n < 1:
        raise ValueError("polydisc dimension must be >= 1")
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


def _as_nodes(nodes) -> np.ndarray:
    W = np.asarray(nodes)
    return W[:, None] if W.ndim == 1 else W


def volume(domain: DomainSpec) -> float:
    """Lebesgue volume of the domain (may be infinite)."""
    return domain.volume()


def contains(domain: DomainSpec, z) -> bool:
    """Strict membership; inequalities carry a relative slack of 1e-12."""
    return domain.contains(as_point(z, domain.dim))


def require_inside(domain: DomainSpec, z) -> CPoint:
    p = as_point(z, domain.dim)
    if not domain.contains(p):
        raise PointOutsideDomain(f"{p} is not strictly inside {domain}")
    return p


def inside_points(domain: DomainSpec, z) -> tuple[np.ndarray, bool]:
    """``z`` as an (M, dim) complex array whose rows lie strictly inside ``domain``.

    An (M, dim) ndarray is a batch of M points; anything else is one point,
    the case M = 1, which the returned flag marks.
    """
    if not (isinstance(z, np.ndarray) and z.ndim == 2):
        return np.array([require_inside(domain, z)]), True
    for row in z:
        require_inside(domain, row)
    return z.astype(complex), False


# ---------------------------------------------------------------------------
# closed-form kernels
# ---------------------------------------------------------------------------

def kernel(domain: DomainSpec, z, w) -> complex:
    """Bergman kernel K(z, w) of a closed-form domain.

    Both arguments must lie strictly inside the domain.
    """
    return domain.kernel_at(require_inside(domain, z), require_inside(domain, w))


def kernel_diag(domain: DomainSpec, z) -> float:
    """K(z, z) at one point, cancellation-safe near the Hartogs edge (see ``diag``)."""
    return domain.diag_at(require_inside(domain, z))


def kernel_values(domain: DomainSpec, z, nodes: np.ndarray) -> np.ndarray:
    """Vectorized K(w_j, z) over an (N, dim) array of nodes.

    Membership of the nodes is the caller's responsibility (they normally come
    from a quadrature rule).
    """
    return domain.kernel(_as_nodes(nodes), np.asarray(as_point(z, domain.dim)))


def kernel_diag_values(domain: DomainSpec, nodes: np.ndarray) -> np.ndarray:
    """Vectorized K(w_j, w_j) with the same stabilized Hartogs form as kernel_diag."""
    return domain.diag(_as_nodes(nodes))


def kernel_ratio(domain: DomainSpec, z, w) -> float:
    """|K(w, z)| / K(z, z); a domain has a bounded kernel ratio when its supremum is finite."""
    zp = require_inside(domain, z)
    return abs(domain.kernel_at(require_inside(domain, w), zp)) / domain.diag_at(zp)


def normalized_kernel(domain: DomainSpec, z) -> Callable:
    """Return w -> K(w, z)/sqrt(K(z, z)), a unit vector of A^2 for each z.

    The returned callable maps an (N, dim) node array (or (N,) on
    one-dimensional domains) to an array, and a single point to a complex.
    """
    zp = require_inside(domain, z)
    root = math.sqrt(domain.diag_at(zp))

    def k_z(w):
        if isinstance(w, np.ndarray) and w.ndim >= 1:
            return kernel_values(domain, zp, w) / root
        return domain.kernel_at(as_point(w, domain.dim), zp) / root

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
    the radial bound.  In one dimension the finite value is the closed form
    2 pi r1_max^(2a+2) / (2a+2).  In two it is the reduced radial integral by
    Gauss-Legendre quadrature on (0, r1_max), taken in u = r/(1+r) when
    r1_max is infinite; this is exact for the Hartogs (a polynomial in r) and
    Boas (a polynomial in u) profiles.  The MONOMIAL_NODES and doubled rules
    must agree to MONOMIAL_REL_AGREEMENT, or UnresolvedIntegral is raised.
    """
    from .quadrature import tail_exponent_classify  # deferred: quadrature imports this module

    alpha = tuple(int(a) for a in (exponents if not np.isscalar(exponents) else (exponents,)))
    if len(alpha) != profile.dim:
        raise ValueError(f"expected {profile.dim} exponents, got {len(alpha)}")
    cached = profile._norm_cache.get(alpha)
    if cached is not None:
        return cached

    for i, a in enumerate(alpha):
        if a < 0 and not profile.allows_negative[i]:
            profile._norm_cache[alpha] = math.inf
            return math.inf

    if profile.dim == 1:
        a1 = alpha[0]
        if not tail_exponent_classify([(2 * a1 + 1, "zero")]):
            profile._norm_cache[alpha] = math.inf
            return math.inf
        val = 2.0 * math.pi * profile.r1_max ** (2 * a1 + 2) / (2 * a1 + 2)
        profile._norm_cache[alpha] = val
        return val

    a1, a2 = alpha
    # inner r2 integral: r2^(2 a2 + 1) near 0
    if not tail_exponent_classify([(2 * a2 + 1, "zero")]):
        profile._norm_cache[alpha] = math.inf
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
        profile._norm_cache[alpha] = math.inf
        return math.inf

    def outer(r):
        return 4.0 * math.pi ** 2 / (2 * a2 + 2) * r ** (2 * a1 + 1) * profile.bound(r) ** (2 * a2 + 2)

    coarse, val = (_radial_integral(outer, profile.r1_max, n)
                   for n in (MONOMIAL_NODES, 2 * MONOMIAL_NODES))
    if not abs(val - coarse) <= MONOMIAL_REL_AGREEMENT * abs(val):
        raise UnresolvedIntegral(
            f"profile {profile.name!r}, exponents {alpha}: {MONOMIAL_NODES} and "
            f"{2 * MONOMIAL_NODES} Gauss-Legendre nodes give {coarse!r} and {val!r}")
    profile._norm_cache[alpha] = val
    return val
