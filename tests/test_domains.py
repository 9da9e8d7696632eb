"""Kernel formulas, membership, ratios, and Reinhardt monomial norms."""

import cmath
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bergman.domains as dom
import bergman.quadrature as quad
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

    @pytest.mark.parametrize("domain,z", [(dom.disc(), 1.5), (dom.hartogs_triangle(), (0.1, 0.5))],
                             ids=["disc", "hartogs"])
    def test_kernel_values_refuse_a_point_outside(self, domain, z):
        nodes = np.array(dom.sample_interior(domain, 3, seed=1))
        with pytest.raises(PointOutsideDomain):
            dom.kernel_values(domain, z, nodes)

    @pytest.mark.parametrize("domain,nodes", [
        (dom.disc(), np.full((3, 2), 0.1 + 0j)),
        (dom.disc(), [[0.1, 0.2]]),
        (dom.polydisc(2), np.full(3, 0.1 + 0j)),
        (dom.hartogs_triangle(), np.full((3, 3), 0.1 + 0j)),
    ], ids=["disc (N, 2)", "disc [[a, b]]", "bidisc (N,)", "hartogs (N, 3)"])
    def test_nodes_of_the_wrong_width_are_refused(self, domain, nodes):
        # a disc read column 0 of (N, 2) nodes and returned the bidisc diagonal of [[0.1, 0.2]]
        z = (0.3,) * domain.dim if domain.kind != "hartogs" else (0.5, 0.2)
        with pytest.raises(ValueError, match="shape"):
            dom.kernel_values(domain, z, nodes)
        with pytest.raises(ValueError, match="shape"):
            dom.kernel_diag_values(domain, nodes)

    def test_hartogs_diagonal_rounds_as_the_moduli_formula(self):
        # evaluated in place, for any leading shape, with the plain formula's roundings
        h = dom.hartogs_triangle()
        Z = np.array(dom.sample_interior(h, 50, seed=5))
        r1, r2 = np.abs(Z[:, 0]), np.abs(Z[:, 1])
        d = (r1 - r2) * (r1 + r2)
        want = r1 * r1 / (np.pi ** 2 * d * d * (1.0 - r1 * r1) ** 2)
        assert h.diag(Z).tobytes() == want.tobytes()
        assert h.diag(Z[None]).shape == (1, 50) and h.diag(Z[3]) == want[3]

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
        assert dom.hartogs_triangle().contains(np.array([[1e-40, 0.5e-40]]))[0]
        assert not dom.hartogs_triangle().contains(np.array([[1e-40, 1e-40]]))[0]

    def test_punctured_disc_omits_origin(self):
        assert not dom.punctured_disc().contains(np.array([[0j]]))[0]
        assert dom.disc().contains(np.array([[0j]]))[0]

    @pytest.mark.parametrize("domain", ALL_DOMAINS, ids=str)
    def test_sampler_stays_inside(self, domain):
        for z in dom.sample_interior(domain, 30, seed=7):
            assert domain.contains(np.array([z]))[0]


class TestDimensions:
    @pytest.mark.parametrize("kind,dim", [("disc", 2), ("punctured-disc", 2), ("half-plane", 2),
                                          ("hartogs", 1), ("hartogs", 3), ("ball", 0),
                                          ("polydisc", 0), ("disc", 0)])
    def test_a_dimension_the_kind_has_not_is_refused(self, kind, dim):
        # DomainSpec("disc", 2) was a bidisc named disc(2); the half plane read z1 only
        with pytest.raises(ValueError):
            dom.DomainSpec(kind, dim)

    @pytest.mark.parametrize("kind,dim", [("disc", 1), ("punctured-disc", 1), ("half-plane", 1),
                                          ("hartogs", 2), ("ball", 1), ("ball", 3),
                                          ("polydisc", 1), ("polydisc", 3)])
    def test_the_kinds_dimensions_are_accepted(self, kind, dim):
        assert str(dom.DomainSpec(kind, dim)) == f"{kind}({dim})"

    @pytest.mark.parametrize("make", [dom.ball, dom.polydisc])
    def test_the_builders_refuse_dimension_zero(self, make):
        with pytest.raises(ValueError):
            make(0)


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

    @pytest.mark.parametrize("domain,z,w", [(dom.disc(), 0.2, 1.5),
                                            (dom.hartogs_triangle(), (0.5, 0.2), (0.1, 0.5))],
                             ids=["disc", "hartogs"])
    def test_one_point_outside_is_refused(self, domain, z, w):
        with pytest.raises(PointOutsideDomain):
            dom.normalized_kernel(domain, z)(w)

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
        # kernel, kernel_ratio and normalized_kernel have no formula of their own
        z, w = _point(domain, a), _point(domain, b)
        kwz = dom.kernel(domain, w, z)
        assert _bits(kwz) == _bits(dom.kernel_values(domain, z, [w])[0])
        assert _bits(kwz) == _bits(domain.kernel(np.array([w]), np.array(z))[0])
        assert _bits(dom.kernel_diag(domain, z)) == _bits(dom.kernel_diag_values(domain, [z])[0])
        assert _bits(dom.kernel_ratio(domain, z, w)) == _bits(abs(kwz) / dom.kernel_diag(domain, z))
        root = math.sqrt(dom.kernel_diag(domain, z))
        assert _bits(dom.normalized_kernel(domain, z)(w)) == _bits(kwz / root)

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


class TestBlockedEvaluation:
    """kernel_values and kernel_diag_values fill one array _BLOCK_ROWS nodes at a time."""

    @pytest.mark.parametrize("domain", ALL_DOMAINS, ids=str)
    @given(block=st.integers(2, 6), extra=st.sampled_from([None, -1, 0, 1, "2b+1"]),
           z=COORDS, data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_blocks_equal_the_whole_array_forms(self, domain, block, extra, z, data):
        # node counts 1, block - 1, block, block + 1 and 2 block + 1 (a lone last node)
        n = 1 if extra is None else 2 * block + 1 if extra == "2b+1" else block + extra
        nodes = np.array([_point(domain, c) for c in data.draw(st.lists(COORDS, min_size=n,
                                                                        max_size=n))])
        zp = _point(domain, z)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dom, "_BLOCK_ROWS", block)
            got, diag = dom.kernel_values(domain, zp, nodes), dom.kernel_diag_values(domain, nodes)
        assert got.tobytes() == domain.kernel(nodes, np.array(zp)).tobytes()
        assert diag.tobytes() == domain.diag(nodes).tobytes()
        assert got.shape == diag.shape == (n,)

    def test_normalized_kernel_peaks_at_its_output_and_two_node_blocks(self):
        domain = dom.hartogs_triangle()
        nodes = quad.build_rule(domain, 10, 24).nodes  # 230,400 nodes, formed before tracing
        k = dom.normalized_kernel(domain, (0.5, 0.2))
        block = dom._BLOCK_ROWS * domain.dim * 16  # the bytes of one block of nodes
        tracemalloc.start()
        try:
            values = k(nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # three block-sized temporaries of the Hartogs form (1.5 node blocks) over the output;
        # evaluated whole, the form's temporaries alone were three times the output
        assert values.nbytes == len(nodes) * 16 and peak <= values.nbytes + 2 * block


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
    def test_hartogs_closed_form(self, hartogs_profile):
        for n, m in [(1, 0), (0, 0), (-1, 0), (2, 1), (-3, 4)]:
            got = dom.monomial_l2_norm2(hartogs_profile, (n, m))
            assert got == pytest.approx(math.pi ** 2 / ((m + 1) * (n + m + 2)), rel=1e-9)

    def test_hartogs_inadmissible(self, hartogs_profile):
        assert math.isinf(dom.monomial_l2_norm2(hartogs_profile, (-2, 0)))
        assert math.isinf(dom.monomial_l2_norm2(hartogs_profile, (0, -1)))

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


# ---------------------------------------------------------------------------
# |K|^2 in real arithmetic, the cancellation-safe diagonal, array membership
# ---------------------------------------------------------------------------

# radius fractions from the bulk to 1e-12 of the boundary
DEPTH = st.floats(0.0, 1.0) | st.floats(3.0, 12.0).map(lambda k: 1.0 - 10.0 ** -k)
NEAR = st.tuples(*[DEPTH] * 3, *[st.floats(0.0, 2 * math.pi)] * 3)


def _near_point(domain, c):
    """A point of ``domain`` from three radius fractions in [1e-3, 1 - 2e-12]."""
    rs, ts = [min(max(r, 1e-3), 1.0 - 2e-12) for r in c[:3]], c[3:]
    if domain.kind == "half-plane":
        x = 20.0 * c[3] / (2 * math.pi) - 10.0  # the slack is relative to max(1, |z|)
        return (complex(x, 2.0 * (1.0 + abs(x)) * 10.0 ** (3.0 - 15.0 * rs[0])),)
    polar = [r * cmath.exp(1j * t) for r, t in zip(rs, ts)]
    if domain.kind == "hartogs":
        return (polar[0], polar[0] * polar[1])
    if domain.kind == "ball":  # radius rs[0], direction from the other two
        v = [rs[1] * cmath.exp(1j * ts[1]), rs[2] * cmath.exp(1j * ts[2])][:domain.dim]
        norm = math.sqrt(sum(abs(p) ** 2 for p in v)) or 1.0
        return tuple(rs[0] * p / norm for p in v)
    return tuple(polar[:domain.dim])


class TestKernelAbs2:
    """kernel_abs2 is |K|^2 formed in real arithmetic: the complex form to 1e-14."""

    @pytest.mark.parametrize("domain", ALL_DOMAINS, ids=str)
    @given(a=NEAR, b=NEAR, same_phase=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_equals_the_complex_form(self, domain, a, b, same_phase):
        if same_phase:  # b along a: |1 - <a, b>| cancels toward 0 near the boundary
            b = b[:3] + a[3:]
        z, w = _near_point(domain, a), _near_point(domain, b)
        assert domain.contains(np.array([z, w])).all()
        A, B = np.array([z, w]), np.array([w, z])
        want = np.abs(domain.kernel(A[None], B[:, None])) ** 2
        got = domain.kernel_abs2(A[None], B[:, None])
        assert got.shape == want.shape == (2, 2) and got.dtype == np.float64
        assert np.all(np.abs(got - want) <= 1e-14 * want)
        # a node array against one point, as kernel_values broadcasts
        assert np.all(np.abs(domain.kernel_abs2(A, B[0]) - want[0]) <= 1e-14 * want[0])

    @pytest.mark.parametrize("domain", ALL_DOMAINS, ids=str)
    def test_one_pair_of_points(self, domain):
        # (dim,) arrays broadcast to a single value, as the complex kernel does
        z, w = dom.sample_interior(domain, 2, seed=6)
        got = domain.kernel_abs2(np.array(w), np.array(z))
        want = abs(dom.kernel(domain, w, z)) ** 2
        assert np.shape(got) == () and abs(got - want) <= 1e-14 * want


def _parent_kernel(kind, dim, a, b):
    """The closed-form kernels the declared forms replaced, frozen as they were."""
    if kind in ("disc", "punctured-disc", "polydisc"):
        out = 1.0
        for i in range(dim):
            out = out / (np.pi * (1.0 - a[..., i] * np.conj(b[..., i])) ** 2)
        return out
    if kind == "ball":
        inner = 0.0
        for i in range(dim):
            inner = inner + a[..., i] * np.conj(b[..., i])
        q = 1.0 - inner
        power = q
        for _ in range(dim):
            power = power * q
        return math.factorial(dim) / (np.pi ** dim * power)
    if kind == "half-plane":
        return -1.0 / (np.pi * (a[..., 0] - np.conj(b[..., 0])) ** 2)
    x = a[..., 0] * np.conj(b[..., 0])
    y = a[..., 1] * np.conj(b[..., 1])
    return x / (np.pi ** 2 * (x - y) ** 2 * (1.0 - x) ** 2)


def _parent_kernel_abs2(kind, dim, a, b):
    """The |K|^2 formulas the declared forms replaced, frozen as they were."""
    if kind in ("disc", "punctured-disc", "polydisc"):
        den = 1.0
        for i in range(dim):
            q = a[..., i] * np.conj(b[..., i])
            d = (1.0 - q.real) ** 2 + q.imag ** 2
            den = den * (d * d * np.pi ** 2)
        return 1.0 / den
    if kind == "ball":
        inner = a[..., 0] * np.conj(b[..., 0])
        for i in range(1, dim):
            inner = inner + a[..., i] * np.conj(b[..., i])
        d = (1.0 - inner.real) ** 2 + inner.imag ** 2
        power = d * d
        for _ in range(dim - 1):
            power = power * d
        return (math.factorial(dim) / np.pi ** dim) ** 2 / power
    return np.abs(_parent_kernel(kind, dim, a, b)) ** 2


# (kind, form) pairs whose values equal the frozen formulas' bit for bit
_BIT_FOR_BIT = {(k, "kernel") for k in ("disc", "punctured-disc", "half-plane", "hartogs")} | {
    (k, "kernel_abs2") for k in ("disc", "punctured-disc", "polydisc", "ball")}


class TestDeclaredForms:
    """Each kind declares its kernel once; the derived K and |K|^2 are the closed forms they replaced."""

    @pytest.mark.parametrize("domain", ALL_DOMAINS + [dom.ball(1)], ids=str)
    def test_forms_reproduce_the_frozen_closed_forms(self, domain):
        rng = np.random.default_rng(17)

        def points(n):  # half from the bulk, half within 1e-3 .. 1e-12 of the boundary
            near = 1.0 - 10.0 ** -rng.uniform(3.0, 12.0, (n, 3))
            rs = np.where(rng.random((n, 3)) < 0.5, rng.uniform(0.0, 1.0, (n, 3)), near)
            return np.array([_near_point(domain, (*r, *t)) for r, t in
                             zip(rs, rng.uniform(0.0, 2 * math.pi, (n, 3)))])

        A, B = points(300), points(20)
        for form, frozen in (("kernel", _parent_kernel), ("kernel_abs2", _parent_kernel_abs2)):
            # blocks, a node array against a point, two pairs, and single pairs as the CLI's kernel
            cases = [(A[None], B[:, None]), (A, B[0]), (A[:2], B[:2])]
            for a, b in cases + [(A[i:i + 1], B[i]) for i in range(len(B))]:
                got = getattr(domain, form)(a, b)
                want = frozen(domain.kind, domain.dim, a, b)
                assert got.dtype == want.dtype and got.shape == want.shape
                if (domain.kind, form) in _BIT_FOR_BIT:
                    assert got.tobytes() == want.tobytes(), form
                else:
                    assert np.all(np.abs(got - want) <= 2e-15 * np.abs(want)), form

    @pytest.mark.parametrize("kind", sorted(dom._KINDS))
    def test_no_kind_writes_a_second_formula(self, kind):
        cls = dom._KINDS[kind]
        for klass in cls.__mro__[:cls.__mro__.index(dom.DomainSpec)]:
            assert not {"kernel", "kernel_abs2"} & set(vars(klass)), klass
        assert cls._form is not dom.DomainSpec._form


def _exact_one_minus(z):
    return 1 - sum(Fraction(c.real) ** 2 + Fraction(c.imag) ** 2 for c in z)


class TestCancellationSafeDiagonal:
    """K(z, z) from 1 - sum |z_i|^2 formed without cancellation, against exact rationals."""

    @pytest.mark.parametrize("eps", [1e-7, 1e-10])
    def test_disc_bidisc_and_ball_near_the_boundary(self, eps):
        rng = np.random.default_rng(int(-math.log10(eps)))
        pi = Fraction(np.pi)
        for _ in range(40):
            t = rng.uniform(0, 2 * math.pi, 4)
            edge = (1 - eps) * np.exp(1j * t[0])
            inner = rng.uniform(0.0, 1 - eps) * np.exp(1j * t[1])
            v = rng.normal(size=4)
            v *= (1 - eps) / np.linalg.norm(v)
            cases = [
                (dom.disc(), (edge,), lambda z: 1 / (pi * _exact_one_minus(z) ** 2)),
                (dom.punctured_disc(), (edge,), lambda z: 1 / (pi * _exact_one_minus(z) ** 2)),
                (dom.polydisc(2), (edge, inner), lambda z: 1 / (
                    pi ** 2 * _exact_one_minus(z[:1]) ** 2 * _exact_one_minus(z[1:]) ** 2)),
                (dom.ball(2), (complex(v[0], v[1]), complex(v[2], v[3])),
                 lambda z: 2 / (pi ** 2 * _exact_one_minus(z) ** 3)),
            ]
            for domain, z, exact in cases:
                want = exact(z)
                got = dom.kernel_diag(domain, z)
                assert abs(Fraction(got) - want) <= Fraction(1e-14) * want, (domain, z)
                assert dom.kernel_diag_values(domain, np.array([z]))[0] == got


# m = 1 - BOUNDARY_MARGIN and the floats one ulp either side of it
_M = 1.0 - dom.BOUNDARY_MARGIN
_AT_M = [float(np.nextafter(_M, 0.0)), _M, float(np.nextafter(_M, 2.0))]
# radii whose squares fall one ulp either side of m: the ball's edge
_SQRT_M = math.sqrt(_M)
_AT_SQRT_M = [float(np.nextafter(_SQRT_M, 0.0)), _SQRT_M, float(np.nextafter(_SQRT_M, 2.0))]
_AXES = [1.0, 1j, -1.0, -1j]  # phases that keep |r u| = r exactly


def _parent_contains(kind, p):
    """The scalar membership formulas the array formulas replaced, frozen as they were."""
    if kind in ("disc", "polydisc"):
        return all(abs(c) < 1.0 - dom.BOUNDARY_MARGIN for c in p)
    if kind == "punctured-disc":
        return 0.0 < abs(p[0]) < 1.0 - dom.BOUNDARY_MARGIN
    if kind == "ball":
        return sum(abs(c) ** 2 for c in p) < 1.0 - dom.BOUNDARY_MARGIN
    if kind == "half-plane":
        return p[0].imag > dom.BOUNDARY_MARGIN * max(1.0, abs(p[0]))
    r1, r2 = abs(p[0]), abs(p[1])
    m = 1.0 - dom.BOUNDARY_MARGIN
    return r1 < m and r2 < r1 * m


def _coordinate(draw):
    """A coordinate anywhere near the unit disc, or one ulp around radius m on an axis."""
    if draw(st.booleans()):
        return draw(st.sampled_from(_AT_M)) * draw(st.sampled_from(_AXES))
    return draw(st.floats(0.0, 1.2)) * cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi)))


@st.composite
def _rows(draw, domain):
    """Points on both sides of each membership inequality, exact ulp cases included."""
    kind, dim = domain.kind, domain.dim
    if kind == "half-plane":
        y = draw(st.sampled_from([float(np.nextafter(dom.BOUNDARY_MARGIN, 0.0)),
                                  dom.BOUNDARY_MARGIN,
                                  float(np.nextafter(dom.BOUNDARY_MARGIN, 1.0))])
                 | st.floats(-1.0, 3.0))
        return (complex(draw(st.floats(-0.9, 0.9) | st.floats(-50.0, 50.0)), y),)
    if kind == "ball" and draw(st.booleans()):
        row = [0j] * dim
        row[draw(st.integers(0, dim - 1))] = (draw(st.sampled_from(_AT_SQRT_M))
                                              * draw(st.sampled_from(_AXES)))
        return tuple(row)
    if kind == "ball":
        return tuple(draw(st.floats(0.0, 0.9)) * cmath.exp(1j * draw(st.floats(0.0, 6.3)))
                     for _ in range(dim))
    if kind == "hartogs":
        z1 = _coordinate(draw)
        if draw(st.booleans()):  # |z2| one ulp around |z1| m
            edge = abs(z1) * _M
            r2 = draw(st.sampled_from([float(np.nextafter(edge, 0.0)), edge,
                                       float(np.nextafter(edge, 2.0))]))
            return (z1, r2 * draw(st.sampled_from(_AXES)))
        return (z1, _coordinate(draw))
    if kind == "punctured-disc" and draw(st.booleans()):
        return (draw(st.sampled_from([0j, 5e-324 + 0j, 1e-300j])),)
    return tuple(_coordinate(draw) for _ in range(dim))


class TestArrayMembership:
    """One membership formula per kind over (M, dim) arrays, deciding as the scalar formulas did."""

    @pytest.mark.parametrize("domain", ALL_DOMAINS, ids=str)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_decisions_equal_the_scalar_formulas(self, domain, data):
        rows = data.draw(st.lists(_rows(domain), min_size=1, max_size=12))
        Z = np.array(rows, dtype=complex)
        want = [_parent_contains(domain.kind, row) for row in rows]
        got = domain.contains(Z)
        assert got.dtype == bool and got.shape == (len(rows),)
        assert got.tolist() == want
        assert [domain.contains(np.array([row]))[0] for row in rows] == want

    def test_points_without_dim_coordinates_are_refused(self):
        # two disc points in a 1-D array: not one point of C^2, nor two points
        Z = np.array([0.2 + 0j, 1.5 + 0j])
        for domain in (dom.punctured_disc(), dom.disc()):
            with pytest.raises(ValueError, match=r"C\^1"):
                domain.contains(Z)
        with pytest.raises(ValueError, match=r"C\^2"):
            dom.ball(2).contains(np.zeros((3, 1), dtype=complex))
        # a (dim,) array is one point
        assert dom.ball(2).contains(np.array([0.2 + 0j, 0.5j])) == np.True_
        assert dom.ball(2).contains(np.array([0.9 + 0j, 0.5j])) == np.False_

    @pytest.mark.parametrize("domain", ALL_DOMAINS, ids=str)
    def test_the_first_outside_row_is_named(self, domain):
        Z = np.array(dom.sample_interior(domain, 6, seed=11), dtype=complex)
        Z[2] = Z[2] * 40.0 if domain.kind != "half-plane" else -Z[2]
        Z[4] = Z[4] * 50.0 if domain.kind != "half-plane" else -Z[4]
        with pytest.raises(PointOutsideDomain) as err:
            dom.inside_points(domain, Z)
        assert str(err.value) == f"{tuple(complex(c) for c in Z[2])} is not strictly inside {domain}"


def _scan_grid_reference(name, level):
    """The br_scan grid as the list of point tuples it was built as before it became an array."""
    n_r, depth, angles = dom._scan_axes(level)
    if name in ("disc", "punctured-disc"):
        radii = np.concatenate([[0.0] if name == "disc" else [],
                                1.0 - np.logspace(-depth, -0.3, n_r)])
        return [(r * a,) for r in radii for a in angles]
    if name == "halfplane":
        ys = np.logspace(-depth, depth / 2.0, 2 * n_r)
        return [(complex(x, y),) for y in ys for x in np.linspace(-2.0, 2.0, 5)]
    if name == "hartogs":
        r1s = np.concatenate([np.logspace(-depth, -0.3, n_r),
                              1.0 - np.logspace(-depth, -0.6, n_r // 2)])
        return [(r1 * a, r1 * t * a) for r1 in r1s for t in (0.0, 0.3, 0.9) for a in angles[::2]]
    scale = math.sqrt(2.0) if name == "ball2" else 1.0
    radii = (1.0 - np.logspace(-depth, -0.3, n_r))[:: max(1, n_r // 6)] / scale
    return [(r1 * a1, r2 * a2) for r1 in radii for r2 in radii
            for a1 in angles[::2] for a2 in angles[::2]]


@pytest.mark.parametrize("level", [0, 1, 2])
@pytest.mark.parametrize("name", ["disc", "punctured-disc", "ball2", "bidisc", "halfplane",
                                  "hartogs"])
def test_scan_grid_is_the_point_list_as_an_array(name, level):
    domain = dom.domain_by_name(name)
    got = domain.scan_grid(level)
    want = np.array(_scan_grid_reference(name, level), dtype=complex)
    assert got.dtype == complex and got.shape == want.shape == (len(want), domain.dim)
    assert got.tobytes() == want.tobytes()
