"""Kernel formulas, membership, ratios, and Reinhardt monomial norms."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bergman.domains as dom
from bergman.errors import (
    PointOutsideDomain,
    UndeclaredAsymptotics,
    UnresolvedIntegral,
    UnsupportedKind,
)

ALL_DOMAINS = [dom.disc(), dom.ball(2), dom.polydisc(2), dom.polydisc(3),
               dom.upper_half_plane(), dom.punctured_disc(), dom.hartogs_triangle()]


class TestKernelValues:
    def test_disc_at_origin(self):
        assert dom.kernel(dom.disc(), 0j, 0j) == pytest.approx(1 / math.pi)

    def test_hartogs_axis_formula(self):
        # K((eps,0),(delta,0)) = eps*delta / (pi^2 (eps delta)^2 (1 - eps delta)^2)
        h = dom.hartogs_triangle()
        for delta, eps in [(0.5, 0.25), (0.7, 1e-3), (0.3, 0.29)]:
            got = dom.kernel(h, (eps, 0.0), (delta, 0.0))
            x = eps * delta
            assert got.real == pytest.approx(x / (math.pi ** 2 * x ** 2 * (1 - x) ** 2), rel=1e-13)
            assert got.imag == pytest.approx(0.0, abs=1e-18)

    def test_hartogs_diagonal_value(self):
        got = dom.kernel(dom.hartogs_triangle(), (0.5, 0.0), (0.5, 0.0))
        assert got.real == pytest.approx(1 / (math.pi ** 2 * 0.25 * 0.75 ** 2), rel=1e-14)

    def test_half_plane_diagonal_positive(self):
        got = dom.kernel(dom.upper_half_plane(), 1j, 1j)
        assert got.real == pytest.approx(1 / (4 * math.pi), rel=1e-14)

    def test_punctured_disc_equals_disc(self):
        z, w = 0.3 + 0.1j, -0.2 + 0.5j
        assert dom.kernel(dom.punctured_disc(), z, w) == dom.kernel(dom.disc(), z, w)

    def test_polydisc_factorizes(self):
        d2 = dom.polydisc(2)
        rng = np.random.default_rng(1)
        for _ in range(50):
            z = tuple(0.9 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
                      for _ in range(2))
            w = tuple(0.9 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
                      for _ in range(2))
            prod = (dom.kernel(dom.disc(), z[0], w[0]) * dom.kernel(dom.disc(), z[1], w[1]))
            got = dom.kernel(d2, z, w)
            assert abs(got - prod) <= 1e-14 * abs(got)

    @pytest.mark.parametrize("domain", ALL_DOMAINS, ids=str)
    def test_hermitian_symmetry_and_positive_diagonal(self, domain):
        # a fixed seed per domain: hash() of a str changes between processes
        pts = dom.sample_interior(domain, 100, seed=100 + ALL_DOMAINS.index(domain))
        for i in range(0, 100, 2):
            z, w = pts[i], pts[i + 1]
            kzw = dom.kernel(domain, z, w)
            kwz = dom.kernel(domain, w, z)
            assert abs(kzw - kwz.conjugate()) <= 1e-12 * abs(kzw)
            assert dom.kernel_diag(domain, z) > 0


class TestMembership:
    def test_boundary_rejected(self):
        with pytest.raises(PointOutsideDomain):
            dom.kernel(dom.disc(), 1.0 + 0j, 0j)
        with pytest.raises(PointOutsideDomain):
            dom.kernel(dom.hartogs_triangle(), (0.5, 0.5), (0.3, 0.0))
        with pytest.raises(PointOutsideDomain):
            dom.kernel(dom.upper_half_plane(), 1.0 + 0j, 2j)

    def test_margin_is_relative_on_the_hartogs_edge(self):
        # deep but edge-separated points stay members
        assert dom.contains(dom.hartogs_triangle(), (1e-40, 0.5e-40))
        assert not dom.contains(dom.hartogs_triangle(), (1e-40, 1e-40))

    def test_punctured_disc_omits_origin(self):
        assert not dom.contains(dom.punctured_disc(), 0j)
        assert dom.contains(dom.disc(), 0j)

    @pytest.mark.parametrize("domain", ALL_DOMAINS, ids=str)
    def test_sampler_stays_inside(self, domain):
        for z in dom.sample_interior(domain, 30, seed=7):
            assert dom.contains(domain, z)


class TestVolumes:
    @pytest.mark.parametrize("domain,expected", [
        (dom.disc(), math.pi),
        (dom.polydisc(2), math.pi ** 2),
        (dom.ball(2), math.pi ** 2 / 2),
        (dom.hartogs_triangle(), math.pi ** 2 / 2),
        (dom.upper_half_plane(), math.inf),
    ], ids=str)
    def test_volume(self, domain, expected):
        assert dom.volume(domain) == pytest.approx(expected)


class TestKernelRatio:
    def test_disc_center_is_one(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            w = 0.95 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
            assert dom.kernel_ratio(dom.disc(), 0j, w) == pytest.approx(1.0)

    def test_hartogs_axis_ratio_formula(self):
        h = dom.hartogs_triangle()
        for delta in (0.3, 0.5, 0.9):
            for eps in (0.5, 1e-2, 1e-4):
                got = dom.kernel_ratio(h, (delta, 0.0), (eps, 0.0))
                want = delta * (1 - delta ** 2) ** 2 / (eps * (1 - delta * eps) ** 2)
                assert got == pytest.approx(want, rel=1e-12)

    def test_disc_boundary_limit(self):
        # sup over w at |z| = 0.9 approaches (1 + 0.9)^2; grid search oracle
        z = 0.9 + 0j
        best = max(dom.kernel_ratio(dom.disc(), z, r * cmath.exp(1j * t))
                   for r in np.linspace(0.9, 1 - 1e-9, 50)
                   for t in np.linspace(-0.02, 0.02, 21))
        assert best == pytest.approx((1 + 0.9) ** 2, rel=1e-4)

    def test_disc_ratio_bound_and_near_sup(self):
        rng = np.random.default_rng(5)
        sup = 0.0
        for _ in range(400):
            z = (1 - 10 ** rng.uniform(-6, -0.3)) * cmath.exp(2j * math.pi * rng.random())
            w = (1 - 10 ** rng.uniform(-9, -0.3)) * cmath.exp(1j * (cmath.phase(z) + rng.normal() * 1e-4))
            r = dom.kernel_ratio(dom.disc(), z, w)
            assert r <= 4.0 + 1e-12
            sup = max(sup, r)
        assert sup > 3.9

    def test_half_plane_ratio_formula_and_bound(self):
        hp = dom.upper_half_plane()
        rng = np.random.default_rng(8)
        for _ in range(60):
            z = complex(rng.uniform(-3, 3), 10 ** rng.uniform(-2, 2))
            w = complex(rng.uniform(-3, 3), 10 ** rng.uniform(-2, 2))
            got = dom.kernel_ratio(hp, z, w)
            want = 4 * z.imag ** 2 / abs(z - w.conjugate()) ** 2
            assert got == pytest.approx(want, rel=1e-12)
            assert got <= 4.0 + 1e-12

    def test_ratio_decays_toward_boundary(self):
        # with w fixed, K(z,z) blows up as z nears the boundary, so the ratio sinks to 0
        w = 0.2 + 0.1j
        ratios = [dom.kernel_ratio(dom.disc(), (1 - 10.0 ** -k) + 0j, w)
                  for k in range(1, 9)]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 1e-6

    @given(st.complex_numbers(max_magnitude=0.95, allow_nan=False, allow_infinity=False),
           st.complex_numbers(max_magnitude=0.95, allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_disc_ratio_never_exceeds_square_bound(self, z, w):
        ratio = dom.kernel_ratio(dom.disc(), z, w)
        assert ratio <= (1 + abs(z)) ** 2 * (1 + 1e-10)


class TestNormalizedKernel:
    def test_disc_center_is_constant(self):
        k = dom.normalized_kernel(dom.disc(), 0j)
        assert k(0.5 + 0.2j) == pytest.approx(1 / math.sqrt(math.pi))

    def test_vectorized_matches_pointwise(self):
        k = dom.normalized_kernel(dom.hartogs_triangle(), (0.5, 0.2))
        pts = np.array([[0.4 + 0.1j, 0.1 + 0.05j], [0.6, 0.3]], dtype=complex)
        vec = k(pts)
        assert vec[0] == pytest.approx(k((0.4 + 0.1j, 0.1 + 0.05j)))
        assert vec[1] == pytest.approx(k((0.6 + 0j, 0.3 + 0j)))

    @pytest.mark.parametrize("domain,w", [(dom.disc(), (0.3 - 0.2j,)),
                                          (dom.hartogs_triangle(), (0.4 + 0.1j, 0.1 + 0.05j))],
                             ids=str)
    def test_one_node_array(self, domain, w):
        k = dom.normalized_kernel(domain, (0.5,) if domain.dim == 1 else (0.5, 0.2))
        vec = k(np.array([w]))
        assert vec.shape == (1,)
        assert vec[0] == k(w)


# Hypothesis draws three radii fractions and three angles; each kind maps them
# to a point strictly inside it.
COORDS = st.tuples(*[st.floats(0.001, 0.999)] * 3, *[st.floats(0.0, 2 * math.pi)] * 3)


def _point(domain, c):
    rs, ts = c[:3], c[3:]
    polar = [r * cmath.exp(1j * t) for r, t in zip(rs, ts)]
    if domain.kind == "half-plane":
        return (complex(20.0 * rs[0] - 10.0, 10.0 ** (6.0 * rs[1] - 3.0)),)
    if domain.kind == "hartogs":
        return (polar[0], polar[0] * polar[1])
    if domain.kind == "ball":
        return tuple(p / math.sqrt(domain.dim) for p in polar[:domain.dim])
    return tuple(polar[:domain.dim])


def _bits(x):
    return np.asarray(x, dtype=complex).tobytes()


class TestOneFormula:
    """Scalar calls are the one-point case of the array formulas."""

    @pytest.mark.parametrize("domain", ALL_DOMAINS, ids=str)
    @given(a=COORDS, b=COORDS)
    @settings(max_examples=60, deadline=None)
    def test_scalar_is_one_point_case(self, domain, a, b):
        z, w = _point(domain, a), _point(domain, b)
        assert _bits(dom.kernel(domain, w, z)) == _bits(dom.kernel_values(domain, z, [w])[0])
        assert _bits(dom.kernel_diag(domain, z)) == _bits(dom.kernel_diag_values(domain, [z])[0])

    @pytest.mark.parametrize("domain", ALL_DOMAINS, ids=str)
    @given(a=COORDS, b=COORDS)
    @settings(max_examples=60, deadline=None)
    def test_hermitian(self, domain, a, b):
        z, w = _point(domain, a), _point(domain, b)
        kzw = dom.kernel(domain, z, w)
        assert abs(kzw - dom.kernel(domain, w, z).conjugate()) <= 1e-12 * abs(kzw)

    @pytest.mark.parametrize("domain", [d for d in ALL_DOMAINS
                                        if d.kind in ("disc", "polydisc", "ball", "hartogs")],
                             ids=str)
    @given(a=COORDS, b=COORDS, phases=st.tuples(*[st.floats(0.0, 2 * math.pi)] * 3))
    @settings(max_examples=60, deadline=None)
    def test_rotation_invariance(self, domain, a, b, phases):
        z, w = _point(domain, a), _point(domain, b)
        rot = [cmath.exp(1j * t) for t in phases[:domain.dim]]
        zr = tuple(u * c for u, c in zip(rot, z))
        wr = tuple(u * c for u, c in zip(rot, w))
        k = abs(dom.kernel(domain, z, w))
        assert abs(abs(dom.kernel(domain, zr, wr)) - k) <= 1e-11 * k


# a point (a1, a1 t) of the Hartogs triangle: |a1| in [0.01, 0.99], |t| <= 0.95
HARTOGS_PAIR = st.tuples(st.floats(0.01, 0.99), st.floats(0.0, 0.95),
                         st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi))


class TestHartogsProductStructure:
    """(z1, z2) -> (z1, z2/z1) carries the Hartogs kernel onto disc kernels."""

    @given(a=HARTOGS_PAIR, b=HARTOGS_PAIR)
    @settings(max_examples=200, deadline=None)
    def test_kernel_factors_over_the_discs(self, a, b):
        a1, ta = a[0] * cmath.exp(1j * a[2]), a[1] * cmath.exp(1j * a[3])
        b1, tb = b[0] * cmath.exp(1j * b[2]), b[1] * cmath.exp(1j * b[3])
        h, d = dom.hartogs_triangle(), dom.disc()
        got = dom.kernel(h, (a1, a1 * ta), (b1, b1 * tb))
        want = dom.kernel(d, a1, b1) * dom.kernel(d, ta, tb) / (a1 * b1.conjugate())
        assert abs(got - want) <= 1e-13 * abs(want)

    def test_factor_points(self):
        Z = np.array([[0.5 + 0.1j, 0.2 - 0.3j], [0.05j, 0.01]])
        P = dom.hartogs_triangle().factor_points(Z)
        assert P[:, 0].tobytes() == Z[:, 0].tobytes()
        np.testing.assert_allclose(P[:, 1] * Z[:, 0], Z[:, 1], rtol=1e-15)
        assert dom.polydisc(2).factor_points(Z) is Z
        with pytest.raises(UnsupportedKind):
            dom.ball(2).factor_points(Z)


class TestBallKernelPower:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_repeated_product_matches_the_power(self, n):
        # the kernel forms (1 - <a, b>)^(n+1) by repeated multiplication
        domain = dom.ball(n)
        rng = np.random.default_rng(40 + n)
        a = np.array([domain.sample(rng) for _ in range(200)])
        b = np.array([domain.sample(rng) for _ in range(200)])
        inner = np.sum(a * np.conj(b), axis=-1)
        power = math.factorial(n) / (np.pi ** n * (1.0 - inner) ** (n + 1))
        got = domain.kernel(a, b)
        assert np.max(np.abs(got - power) / np.abs(power)) <= 1e-15 * (n + 1)


class TestMonomialNorms:
    def test_disc_monomials(self):
        for n in range(6):
            got = dom.monomial_l2_norm2(dom.disc_profile(), (n,))
            assert got == pytest.approx(math.pi / (n + 1), rel=1e-10)

    def test_hartogs_closed_form(self):
        prof = dom.hartogs_profile()
        for n, m in [(1, 0), (0, 0), (-1, 0), (2, 1), (-3, 4)]:
            got = dom.monomial_l2_norm2(prof, (n, m))
            assert got == pytest.approx(math.pi ** 2 / ((m + 1) * (n + m + 2)), rel=1e-9)

    def test_hartogs_inadmissible(self):
        prof = dom.hartogs_profile()
        assert math.isinf(dom.monomial_l2_norm2(prof, (-2, 0)))
        assert math.isinf(dom.monomial_l2_norm2(prof, (0, -1)))

    @pytest.mark.parametrize("j,k", [(j, k) for j in range(5) for k in range(5)])
    def test_boas_classifier(self, j, k):
        finite = math.isfinite(dom.monomial_l2_norm2(dom.boas_profile(), (j, k)))
        assert finite == (j < k)

    def test_boas_norms_match_the_beta_closed_form(self):
        # in u = r/(1+r) the radial integrand is u^(2j+1) (1-u)^(2k-2j-1)
        prof = dom.boas_profile()
        for k in range(1, 7):
            for j in range(k):
                want = (4 * math.pi ** 2 / (2 * k + 2) * math.gamma(2 * j + 2)
                        * math.gamma(2 * k - 2 * j) / math.gamma(2 * k + 2))
                got = dom.monomial_l2_norm2(prof, (j, k))
                assert abs(got - want) <= 1e-12 * want, (j, k)

    def test_unresolved_profile_raises(self):
        # r^(3/2) near 0 is not a polynomial: the 64- and 128-node rules disagree
        root = dom.ReinhardtProfile(name="root", dim=2, r1_max=1.0,
                                    bound=lambda r: r ** 0.25, exponent_at_zero=0.25)
        dom.validate_profile(root)
        with pytest.raises(UnresolvedIntegral):
            dom.monomial_l2_norm2(root, (0, 0))
        assert (0, 0) not in root._norm_cache

    def test_boas_negative_exponent_rejected(self):
        assert math.isinf(dom.monomial_l2_norm2(dom.boas_profile(), (-1, 3)))

    def test_undeclared_asymptotics(self):
        bad = dom.ReinhardtProfile(name="bad", dim=2, r1_max=math.inf,
                                   bound=lambda r: 1.0 / (1.0 + r),
                                   exponent_at_zero=0.0, exponent_at_inf=None)
        with pytest.raises(UndeclaredAsymptotics):
            dom.monomial_l2_norm2(bad, (0, 1))

    def test_profile_probe_catches_wrong_exponent(self):
        with pytest.raises(UndeclaredAsymptotics):
            dom.validate_profile(dom.ReinhardtProfile(
                name="wrong", dim=2, r1_max=math.inf,
                bound=lambda r: 1.0 / (1.0 + r),
                exponent_at_zero=0.0, exponent_at_inf=-2.0))

