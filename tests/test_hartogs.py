"""Basis coefficients, blow-up symbol machinery, blow-up table, weak pairing."""

import math
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

import bergman.domains as dom
from bergman import hartogs as ht
from bergman import quadrature as quad
from bergman.errors import DuplicateEpsilon, EpsilonOutOfRange, InadmissibleIndex, NonFiniteValue


@pytest.fixture(scope="module")
def h_rule():
    return quad.build_rule(dom.hartogs_triangle(), 16, 24)


class TestCoefficients:
    def test_values(self):
        assert ht.basis_coefficient(0, 0) == pytest.approx(2 / math.pi ** 2)
        assert ht.basis_coefficient(-1, 0) == pytest.approx(1 / math.pi ** 2)
        assert ht.basis_coefficient(1, 0) == pytest.approx(3 / math.pi ** 2)

    def test_inadmissible(self):
        with pytest.raises(InadmissibleIndex):
            ht.basis_coefficient(-2, 0)
        with pytest.raises(InadmissibleIndex):
            ht.basis_coefficient(0, -1)

    def test_index_arrays_are_elementwise(self):
        n, m = np.array([-1, 0, 1, -3, 2]), np.array([0, 0, 0, 2, 5])
        assert ht.admissible(n, m).tolist() == [True] * 5
        want = [ht.basis_coefficient(int(a), int(b)) for a, b in zip(n, m)]
        assert ht.basis_coefficient(n, m).tolist() == want
        assert ht.admissible(np.array([-2, 0]), np.array([0, -1])).tolist() == [False, False]
        with pytest.raises(InadmissibleIndex):
            ht.basis_coefficient(np.array([0, -2]), np.array([0, 0]))

    @pytest.mark.parametrize("n,m", [(-1, 0), (0, 0), (2, 1)])
    def test_reciprocal_matches_quadrature_norm(self, hartogs_profile, n, m):
        norm2 = dom.monomial_l2_norm2(hartogs_profile, (n, m))
        assert 1.0 / ht.basis_coefficient(n, m) == pytest.approx(norm2, rel=1e-6)

    def test_basis_orthogonality(self, h_rule, hartogs_profile):
        # distinct admissible monomials are orthogonal over the triangle
        idx = [(n, m) for m in range(0, 3) for n in range(-m - 1, 4)]
        vals = {a: h_rule.nodes[:, 0] ** a[0] * h_rule.nodes[:, 1] ** a[1] for a in idx}
        for i, a in enumerate(idx):
            for b in idx[i + 1:]:
                ip = np.sum(h_rule.weights * vals[a] * np.conj(vals[b]))
                na = math.sqrt(dom.monomial_l2_norm2(hartogs_profile, a))
                nb = math.sqrt(dom.monomial_l2_norm2(hartogs_profile, b))
                assert abs(ip) <= 1e-8 * na * nb

    def test_kernel_series_box(self):
        domain = dom.hartogs_triangle()
        rng = np.random.default_rng(6)
        for _ in range(10):
            z1 = rng.uniform(0.2, 0.8) * np.exp(2j * np.pi * rng.random())
            w1 = rng.uniform(0.2, 0.8) * np.exp(2j * np.pi * rng.random())
            z = (z1, z1 * rng.uniform(0, 0.8) * np.exp(2j * np.pi * rng.random()))
            w = (w1, w1 * rng.uniform(0, 0.8) * np.exp(2j * np.pi * rng.random()))
            want = dom.kernel(domain, w, z)
            got = ht.kernel_series(w, z)
            assert abs(got - want) <= 1e-8 * abs(want)


class TestFeps:
    def test_norm_closed_form(self):
        assert ht.blowup_symbol_norm(0.5) ** 2 == pytest.approx(math.pi ** 2)
        assert ht.blowup_symbol_norm(1.0) ** 2 == pytest.approx(math.pi ** 2 / 2)

    def test_norm_by_quadrature(self):
        rule = quad.build_rule(dom.hartogs_triangle(), 48, 4, origin_grading=12.0)
        got = quad.integrate(rule, ht.blowup_symbol_values(0.1, rule.nodes) ** 2).real
        assert got == pytest.approx(49.348022005446786, rel=5e-3)

    def test_out_of_range(self):
        with pytest.raises(EpsilonOutOfRange):
            ht.blowup_symbol_values(0.0, np.array([[0.5, 0.1]]))
        with pytest.raises(EpsilonOutOfRange):
            ht.blowup_symbol_values(-0.3, np.array([[0.5, 0.1]]))
        with pytest.raises(EpsilonOutOfRange):
            ht.blowup_symbol_norm(1.5)

    def test_pointwise_value(self):
        points = np.array([[0.5, 0.1], [0.5, 0.0]])
        assert ht.blowup_symbol_values(1.0, points) == pytest.approx([1.0, 1.0])
        assert ht.blowup_symbol_values(0.5, points) == pytest.approx([2.0, 2.0])


class TestClosedFormTransform:
    def test_independent_of_second_coordinate(self):
        a = ht.berezin_blowup_closed(0.07, (0.5, 0.2))
        b = ht.berezin_blowup_closed(0.07, (0.5, 0.1))
        c = ht.berezin_blowup_closed(0.07, (0.5, 0.45j))
        assert a == b == c

    def test_matches_direct_quadrature(self):
        for eps in (0.1, 0.01):
            for z in ((0.3, 0.1), (0.62, 0.3)):
                closed = ht.berezin_blowup_closed(eps, z)
                direct = ht.berezin_blowup_by_quadrature(eps, z)
                assert direct == pytest.approx(closed, rel=1e-4)

    def test_small_eps_scaling(self):
        # the leading 1/eps term dominates: value(1e-4) / value(1e-3) in [9, 11]
        z = (0.3, 0.1)
        ratio = ht.berezin_blowup_closed(1e-4, z) / ht.berezin_blowup_closed(1e-3, z)
        assert 9.0 <= ratio <= 11.0

    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.01, 1e-4])
    def test_against_mpmath_up_to_the_edge(self, eps):
        # with (k+1)^2 = (k+eps)(k+2-eps) + (1-eps)^2 the series sums to
        # (1-x)^2 [x/(1-x)^2 + (2-eps)/(1-x) + (1-eps)^2 lerchphi(x, 1, eps)]
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        for r in (0.15, 0.7, 0.9, 0.99, 0.999, 0.9999, 0.99999):
            x = mpmath.mpf(r) ** 2
            want = (1 - x) ** 2 * (x / (1 - x) ** 2 + (2 - eps) / (1 - x)
                                   + (1 - eps) ** 2 * mpmath.lerchphi(x, 1, eps))
            got = ht.berezin_blowup_closed(eps, (r, 0.5 * r))
            assert abs(got - want) <= 1e-13 * want, (eps, r)


class TestIdentity:
    """1 / (pi^2 |z1|^2 K(z,z)) = (1 - |z2/z1|^2)^2 (1 - |z1|^2)^2, checked on kernel_diag."""

    @staticmethod
    def rel_gap(z):
        lhs = 1.0 / (math.pi ** 2 * abs(z[0]) ** 2 * dom.kernel_diag(dom.hartogs_triangle(), z))
        # the right side in exact arithmetic: near the edge |z2| -> |z1| its
        # float form loses digits in 1 - |z2/z1|^2, while kernel_diag must not
        r1, r2 = Fraction(abs(z[0])), Fraction(abs(z[1]))
        rhs = float((1 - r2 ** 2 / r1 ** 2) ** 2 * (1 - r1 ** 2) ** 2)
        return abs(lhs - rhs) / rhs, lhs

    def test_axis_point(self):
        gap, lhs = self.rel_gap((0.5, 0.0))
        assert gap <= 1e-12
        assert lhs == pytest.approx(0.5625, rel=1e-12)

    def test_near_edge_degeneracy(self):
        assert self.rel_gap((0.5, 0.49999))[0] <= 1e-12

    def test_random_points(self):
        for z in dom.sample_interior(dom.hartogs_triangle(), 100, seed=44):
            assert self.rel_gap(z)[0] <= 1e-12, z


class TestBlowup:
    def test_bulge_constant_against_quadrature(self, h_rule):
        sq = quad.integrate(h_rule, (1 - np.abs(h_rule.nodes[:, 0]) ** 2) ** 4).real
        assert ht.NORM_BULGE ** 2 == pytest.approx(sq, rel=1e-9)
        assert ht.NORM_BULGE ** 2 == pytest.approx(math.pi ** 2 / 30)

    def test_lower_bound_row(self):
        table = ht.blowup_table([0.01])
        row = table.rows[0]
        assert row.ratio_lower == pytest.approx(1 / math.sqrt(0.15), rel=1e-12)
        assert row.norm_f == pytest.approx(math.pi / math.sqrt(0.02), rel=1e-12)

    def test_rows_beat_bound_and_grow(self):
        table = ht.blowup_table([1e-1, 1e-2, 1e-3, 1e-4])
        for row in table.rows:
            assert row.ratio_quadrature >= row.ratio_lower * 0.99
        ratios = [r.ratio_quadrature for r in table.rows]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert -0.55 <= table.slope <= -0.45

    def test_csv_header_and_shape(self):
        table = ht.blowup_table([0.5, 0.25])
        text = table.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "eps,norm_f,lower_bound_Bf,ratio_lower,ratio_quadrature"
        assert lines[0].split(",") == [f.name for f in fields(ht.BlowupRow)]
        assert len(lines) == 3
        assert all(len(line.split(",")) == 5 for line in lines[1:])

    def test_eps_validation(self):
        with pytest.raises(EpsilonOutOfRange):
            ht.blowup_table([1.0])

    @pytest.mark.parametrize("eps", [[0.1, 0.1], [0.5, 0.1, 0.5], [0.25, np.float32(0.25)]])
    def test_repeated_eps_is_refused(self, eps):
        # a slope fitted through coincident points is made up
        with pytest.raises(DuplicateEpsilon):
            ht.blowup_table(eps)

    def test_one_eps_has_no_slope(self):
        assert math.isnan(ht.blowup_table([0.1]).slope)


class TestPhiSeries:
    """Phi(x) = sum_k x^k / (k + eps), taken at t = 1 - x."""

    @pytest.mark.parametrize("eps", [0.5, 0.1, 1e-2, 1e-3, 1e-4])
    def test_against_lerchphi(self, eps):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        for x in (0.1, 0.49, 0.5, 0.8, 0.95, 1 - 1e-4, 1 - 1e-8, 1 - 1e-14):
            t = 1.0 - x
            got = ht._phi_series(np.array([t]), eps)[0]
            want = mpmath.lerchphi(1 - mpmath.mpf(t), 1, eps)
            assert abs(got - want) <= 1e-14 * want, (eps, x)

    @pytest.mark.parametrize("eps", [0.5, 0.01, 1e-4])
    def test_continuous_across_the_split(self, eps):
        # t = 1 - x; x = 1/2 and the float below it go to different branches
        t_split = 1.0 - ht.PHI_SPLIT
        ts = np.array([np.nextafter(t_split, 0.0), t_split, np.nextafter(t_split, 1.0)])
        vals = ht._phi_series(ts, eps)
        assert np.all(np.abs(np.diff(vals)) <= 4e-16 * vals[1])

    @pytest.mark.parametrize("eps", [0.999, 0.5, 0.1, 1e-2, 1e-4, 1e-8])
    def test_psi_gaps_against_mpmath(self, eps):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        gaps = ht._psi_gaps(eps)
        assert gaps.shape == (ht.PHI_TERMS,)
        for k in range(ht.PHI_TERMS):
            want = mpmath.digamma(k + 1) - mpmath.digamma(k + mpmath.mpf(eps))
            assert abs(gaps[k] - want) <= 1e-14 * want, (eps, k)

    @pytest.mark.parametrize("eps", [0.5, 0.01])
    def test_each_side_of_the_split_alone(self, eps, monkeypatch):
        # t > 1 - PHI_SPLIT is summed directly, the rest by DLMF 15.8.10
        direct = np.array([0.6, 0.75, 1.0])
        near = np.array([1e-12, 0.2, 0.5])
        both = ht._phi_series(np.concatenate([direct, near]), eps)
        assert ht._phi_series(near, eps).tobytes() == both[3:].tobytes()

        def refuse(*args):
            raise AssertionError("DLMF coefficients built for a call without such points")

        monkeypatch.setattr(ht, "_psi_gaps", refuse)
        assert ht._phi_series(direct, eps).tobytes() == both[:3].tobytes()

    def test_l2_norm_at_eps_one_half(self):
        # Phi(x) = 2 artanh(sqrt x) / sqrt x at eps = 1/2
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30

        def integrand(x):
            r, t = mpmath.sqrt(x), 1 - x
            profile = 1 + t / 2 + t ** 2 * mpmath.atanh(r) / (2 * r)
            return x * profile ** 2

        want = mpmath.pi * mpmath.sqrt(mpmath.quad(integrand, [0, 1]))
        assert abs(ht.bblowup_symbol_l2_norm(0.5) - want) <= 1e-14 * want


class TestNonFiniteBlowup:
    def test_norm_overflow_raises(self):
        with pytest.raises(NonFiniteValue):
            ht.bblowup_symbol_l2_norm(1e-300)

    @pytest.mark.parametrize("eps", [1e-300, 1e-320])
    def test_table_refuses_non_finite_rows(self, eps):
        with pytest.raises(NonFiniteValue):
            ht.blowup_table([1e-2, eps])


class TestWeakPairing:
    def test_closed_values(self):
        assert ht.weak_pairing(2) == pytest.approx(3 * math.pi / 4, abs=1e-12)
        for j in range(2, 11):
            assert ht.weak_pairing(j) == pytest.approx(math.pi * (1 - j ** -2), abs=1e-10)

    def test_limit(self):
        assert abs(ht.weak_pairing(1000) - math.pi) <= 1e-5 * math.pi

    def test_quadrature_agreement(self, h_rule):
        got = ht.weak_pairing_by_quadrature(3, h_rule)
        assert got == pytest.approx(math.pi * (1 - 1 / 9), rel=1e-4)
