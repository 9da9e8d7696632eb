"""Berezin transform, adjoint and projections."""

import math

import numpy as np
import pytest

import bergman.domains as dom
from bergman import quadrature as quad
from bergman import transforms as tr
from bergman.errors import NonFiniteSymbol

ONE = lambda w: np.ones(len(w))


@pytest.fixture(scope="module")
def disc_rule():
    return quad.build_rule(dom.disc(), 24, 48)


@pytest.fixture(scope="module")
def bidisc_rule():
    return quad.build_rule(dom.polydisc(2), 10, 24)


class TestBerezin:
    def test_constant_symbol(self, disc_rule):
        for z in (0j, 0.3 + 0.1j, -0.6 + 0.2j):
            got = tr.berezin(dom.disc(), ONE, z, disc_rule)
            assert got.real == pytest.approx(1.0, abs=1e-8)
            assert got.imag == pytest.approx(0.0, abs=1e-12)

    def test_radial_symbol_at_origin(self, disc_rule):
        # (1/pi) int |w|^2 dV = 2 int_0^1 r^3 dr = 1/2
        got = tr.berezin(dom.disc(), lambda w: np.abs(w) ** 2, 0j, disc_rule)
        assert got.real == pytest.approx(0.5, rel=1e-12)

    def test_range_of_averages(self, disc_rule):
        rng = np.random.default_rng(11)
        for z in dom.sample_interior(dom.disc(), 10, seed=12):
            c = rng.random()
            phi = lambda w, c=c: np.clip(c + 0.3 * np.sin(w.real * 3), 0.0, 1.0)
            val = tr.berezin(dom.disc(), phi, z, disc_rule).real
            assert -1e-6 <= val <= 1.0 + 1e-6

    def test_symbol_validation(self, disc_rule):
        with pytest.raises(NonFiniteSymbol):
            tr.berezin(dom.disc(), lambda w: np.where(np.abs(w) < 0.5, np.inf, 1.0),
                       (0.2,), disc_rule)

    def test_abs2_closed_form(self):
        # B(|w|^2)(z) = x + (1-x)^2 (-log(1-x) - x) / x^2 at x = |z|^2, and 1/2 at z = 0
        rule = quad.build_rule(dom.disc(), 32, 64)
        pts = [z for z in dom.sample_interior(dom.disc(), 40, seed=21) if abs(z[0]) <= 0.55][:10]
        assert len(pts) == 10
        for z in [(0j,)] + pts:
            x = abs(z[0]) ** 2
            want = 0.5 if x == 0.0 else x + (1 - x) ** 2 * (-math.log1p(-x) - x) / x ** 2
            got = tr.berezin(dom.disc(), lambda w: np.abs(w) ** 2, z, rule)
            assert abs(got - want) <= 1e-14, z

    def test_grid_function_symbol(self, disc_rule):
        import bergman.quadrature as quad
        gf = quad.GridFunction(disc_rule, np.ones(len(disc_rule)))
        got = tr.berezin(dom.disc(), gf, 0.2 + 0j, disc_rule)
        assert got.real == pytest.approx(1.0, abs=1e-8)

    def test_foreign_grid_function_rejected(self, disc_rule):
        # the same symbol sampled on another rule of the same length
        other = quad.build_rule(dom.disc(), 24, 48, grading=3.0)
        gf = quad.GridFunction(other, np.abs(other.nodes[:, 0]) ** 2)
        with pytest.raises(ValueError):
            tr.berezin(dom.disc(), gf, 0.2 + 0j, disc_rule)

    def test_punctured_disc_normalization(self, disc_rule):
        domain = dom.punctured_disc()
        for z in dom.sample_interior(domain, 5, seed=19):
            got = tr.berezin(domain, ONE, z, disc_rule).real
            assert got == pytest.approx(1.0, abs=1e-6)


class TestAdjoint:
    def test_one_at_origin_is_one_third(self, disc_rule):
        got = tr.berezin_adjoint(dom.disc(), ONE, 0j, disc_rule)
        assert got.real == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_diagonal_symbol_cancels(self, disc_rule):
        # psi(w) = K(w, w) makes the transform collapse to K(z, z)
        psi = lambda w: 1.0 / (math.pi * (1 - np.abs(w) ** 2) ** 2)
        z = 0.4 + 0.1j
        got = tr.berezin_adjoint(dom.disc(), psi, z, disc_rule)
        assert got.real == pytest.approx(dom.kernel_diag(dom.disc(), z), rel=1e-9)

    def test_differs_from_berezin(self, disc_rule):
        b = tr.berezin(dom.disc(), ONE, 0j, disc_rule).real
        bstar = tr.berezin_adjoint(dom.disc(), ONE, 0j, disc_rule).real
        assert abs(b - 1.0) <= 1e-8 and abs(bstar - 1.0 / 3.0) <= 1e-8


class TestProjections:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 8])
    def test_reproduces_monomials(self, disc_rule, n):
        for z in (0.4 + 0j, -0.2 + 0.5j, 0.1 - 0.6j):
            got = tr.bergman_project(dom.disc(), lambda w: w ** n, z, disc_rule)
            assert abs(got - z ** n) <= 1e-8

    def test_kills_antiholomorphic(self, disc_rule):
        got = tr.bergman_project(dom.disc(), lambda w: np.conj(w), 0j, disc_rule)
        assert abs(got) <= 1e-12

    def test_radial_projects_to_constant(self, disc_rule):
        for z in (0j, 0.5 + 0.2j):
            got = tr.bergman_project(dom.disc(), lambda w: np.abs(w) ** 2, z, disc_rule)
            assert got.real == pytest.approx(0.5, abs=1e-10)

    def test_absolute_projection_disc(self, disc_rule):
        got = tr.absolute_projection(dom.disc(), ONE, 0j, disc_rule)
        assert got == pytest.approx(1.0, rel=1e-12)

    def test_absolute_projection_bidisc(self, bidisc_rule):
        got = tr.absolute_projection(dom.polydisc(2), ONE, (0j, 0j), bidisc_rule)
        assert got == pytest.approx(1.0, rel=1e-12)


class TestDomination:
    def test_zero_symbol(self, disc_rule):
        zero = lambda w: np.zeros(len(w))
        assert tr.pointwise_domination(dom.disc(), zero, 0.3 + 0j, 4.0, disc_rule)

    def test_disc_holds_at_four(self, disc_rule):
        rng = np.random.default_rng(17)
        for _ in range(10):
            c = rng.standard_normal(3)
            phi = lambda w, c=c: c[0] + c[1] * w.real + c[2] * np.abs(w) ** 2
            z = (0.1 + 0.8 * rng.random()) * np.exp(2j * np.pi * rng.random())
            assert tr.pointwise_domination(dom.disc(), phi, z, 4.0, disc_rule)
