"""The transformation law of the Bergman kernel (Krantz, Function Theory of SCV, ch. 1).

A biholomorphism F of Omega_1 onto Omega_2 with complex Jacobian determinant J gives
K_1(z, w) = J(z) K_2(F z, F w) conj(J(w)).  Each test holds ``domains.kernel`` on one domain to
that law, through a map whose Jacobian is known in closed form, at 1e-12 relative.
"""

import cmath
import math

import numpy as np
from hypothesis import given, settings, strategies as st

import bergman.domains as dom

REL = 1e-12


def _complex(r_max: float, r_min: float = 0.0):
    """Complex numbers r e^{i t} with r_min <= r <= r_max."""
    return st.builds(lambda r, t: r * cmath.exp(1j * t), st.floats(r_min, r_max),
                     st.floats(0.0, 2.0 * math.pi))


def _ball_point(n: int, r_max: float):
    """Points of C^n of norm at most r_max: a direction scaled by a radius."""
    coords = st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=n,
                      max_size=n).map(lambda xs: np.array([complex(*x) for x in xs]))
    return st.builds(lambda v, r: r * v / np.linalg.norm(v),
                     coords.filter(lambda v: np.linalg.norm(v) > 1e-3), st.floats(0.0, r_max))


def _assert_law(domain_1, domain_2, F, J, z, w):
    got = dom.kernel(domain_1, z, w)
    want = J(z) * dom.kernel(domain_2, F(z), F(w)) * J(w).conjugate()
    assert abs(got - want) <= REL * abs(got), (z, w, got, want)


def _moebius(a: complex):
    """phi_a(z) = (a - z) / (1 - conj(a) z), an involution of the disc, and its derivative."""
    return (lambda z: (a - z) / (1 - a.conjugate() * z),
            lambda z: -(1 - abs(a) ** 2) / (1 - a.conjugate() * z) ** 2)


def _rudin(a: np.ndarray):
    """Rudin's automorphism phi_a of the ball in C^n (Function Theory in the Unit Ball, 2.2.1)
    and its Jacobian determinant (-1)^n (1 - |a|^2)^((n+1)/2) / (1 - <z, a>)^(n+1)."""
    n, r = len(a), float(np.linalg.norm(a))
    u, s = a / (r or 1.0), math.sqrt(1.0 - r * r)

    def phi(z):
        z = np.asarray(z)
        pz = np.vdot(u, z) * u  # the projection <z, u> u on the line of a (0 at a = 0)
        return tuple((a - pz - s * (z - pz)) / (1.0 - np.vdot(a, z)))

    def jac(z):
        return (-1) ** n * s ** (n + 1) / (1.0 - np.vdot(a, np.asarray(z))) ** (n + 1)
    return phi, jac


@given(a=_complex(0.9), z=_complex(0.95), w=_complex(0.95))
@settings(max_examples=60, deadline=None)
def test_disc_under_a_moebius_map(a, z, w):
    phi, d = _moebius(a)
    disc = dom.disc()
    _assert_law(disc, disc, lambda p: (phi(p[0]),), lambda p: d(p[0]), (z,), (w,))


@given(a=_ball_point(2, 0.9), z=_ball_point(2, 0.95), w=_ball_point(2, 0.95))
@settings(max_examples=60, deadline=None)
def test_ball_under_rudins_automorphism(a, z, w):
    phi, jac = _rudin(a)
    ball = dom.ball(2)
    _assert_law(ball, ball, phi, jac, tuple(z), tuple(w))


@given(a=st.tuples(_complex(0.9), _complex(0.9)), z=st.tuples(_complex(0.95), _complex(0.95)),
       w=st.tuples(_complex(0.95), _complex(0.95)))
@settings(max_examples=60, deadline=None)
def test_bidisc_under_a_moebius_map_in_each_coordinate(a, z, w):
    maps = [_moebius(c) for c in a]
    bidisc = dom.polydisc(2)
    _assert_law(bidisc, bidisc, lambda p: tuple(phi(c) for (phi, _), c in zip(maps, p)),
                lambda p: math.prod(d(c) for (_, d), c in zip(maps, p)), z, w)


@given(z=_complex(0.95), w=_complex(0.95))
@settings(max_examples=60, deadline=None)
def test_half_plane_under_the_cayley_map(z, w):
    # the points are the Cayley preimages i (1 + u) / (1 - u) of points u of the disc
    z, w = ((1j * (1 + u) / (1 - u),) for u in (z, w))
    _assert_law(dom.upper_half_plane(), dom.disc(), lambda p: ((p[0] - 1j) / (p[0] + 1j),),
                lambda p: 2j / (p[0] + 1j) ** 2, z, w)


@given(z=st.tuples(_complex(0.95, 0.05), _complex(0.95)),
       w=st.tuples(_complex(0.95, 0.05), _complex(0.95)))
@settings(max_examples=60, deadline=None)
def test_hartogs_triangle_onto_the_punctured_disc_times_the_disc(z, w):
    # (z1, z2) -> (z1, z2 / z1) maps the triangle onto D* x D, whose kernel is the bidisc's;
    # the points are (z1, z1 t) for t in the disc
    z, w = ((p[0], p[0] * p[1]) for p in (z, w))
    _assert_law(dom.hartogs_triangle(), dom.polydisc(2), lambda p: (p[0], p[1] / p[0]),
                lambda p: 1.0 / p[0], z, w)
