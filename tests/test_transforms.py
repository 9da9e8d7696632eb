"""Berezin transform, adjoint and projections."""

import inspect
import math
import os

import numpy as np
import pytest

import bergman.domains as dom
from bergman import opnorm as on
from bergman import quadrature as quad
from bergman import transforms as tr
from bergman.errors import NonFiniteValue, PointOutsideDomain

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
        with pytest.raises(NonFiniteValue):
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


CONSUMERS = ("integrate", "berezin", "berezin_adjoint", "absolute_projection", "bergman_project")


def _consume(name, rule, f):
    """``f`` read by ``integrate`` or by a transform at one point of the disc."""
    if name == "integrate":
        return quad.integrate(rule, f)
    return getattr(tr, name)(dom.disc(), f, 0.2 + 0.1j, rule)


class TestFrontDoor:
    """The operators bind their arguments only when a call does not give them all by position."""

    def test_keywords_give_the_positional_values(self, disc_rule):
        d, z = dom.disc(), 0.3 + 0.2j
        for op, args in [(tr.berezin, (d, ONE)), (tr.berezin_adjoint, (d, ONE)),
                         (tr.absolute_projection, (d, ONE)), (tr.bergman_project, (d, ONE)),
                         (tr.unit_mass, (d,))]:
            want = op(*args, z, disc_rule)
            names = list(inspect.signature(op).parameters)
            assert op(*args, rule=disc_rule, z=z) == want
            assert op(**dict(zip(names, (*args, z, disc_rule)))) == want

    @pytest.mark.parametrize("call", [lambda r: tr.berezin(dom.disc(), ONE, 0.1),
                                      lambda r: tr.berezin(dom.disc(), ONE, 0.1, r, r),
                                      lambda r: tr.unit_mass(dom.disc(), 0.1, r, z=0.2)],
                             ids=["missing", "extra", "twice"])
    def test_a_call_that_does_not_bind_is_a_type_error(self, disc_rule, call):
        with pytest.raises(TypeError):
            call(disc_rule)


@pytest.mark.parametrize("name", CONSUMERS)
class TestSymbolContract:
    """One reader of integrands and symbols, ``quadrature.evaluate_on_rule``, and its errors."""

    def test_accepts_a_callable_an_array_and_a_grid_function(self, disc_rule, name):
        ones = np.ones(len(disc_rule))
        want = _consume(name, disc_rule, ONE)
        assert _consume(name, disc_rule, ones) == want
        assert _consume(name, disc_rule, quad.GridFunction(disc_rule, ones)) == want

    @pytest.mark.parametrize("f", [np.ones(5), np.ones((24 * 2 * 48, 1)),
                                   lambda w: np.ones(len(w) + 1), lambda w: 1.0],
                             ids=["short", "column", "long-callable", "scalar-callable"])
    def test_wrong_length_raises_value_error(self, disc_rule, name, f):
        with pytest.raises(ValueError):
            _consume(name, disc_rule, f)

    def test_grid_function_of_another_rule_raises_value_error(self, disc_rule, name):
        other = quad.build_rule(dom.disc(), 24, 48, grading=3.0)
        with pytest.raises(ValueError):
            _consume(name, disc_rule, quad.GridFunction(other, np.ones(len(other))))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises(self, disc_rule, name, bad):
        vals = np.ones(len(disc_rule), dtype=complex)
        vals[7] = bad
        with pytest.raises(NonFiniteValue):
            _consume(name, disc_rule, vals)
        with pytest.raises(NonFiniteValue):
            _consume(name, disc_rule, lambda w: np.where(np.abs(w) < 0.5, bad, 1.0))

    @pytest.mark.parametrize("obj", [2.0, "one", [1.0, 2.0], None])
    def test_not_callable_raises_type_error(self, disc_rule, name, obj):
        with pytest.raises(TypeError):
            _consume(name, disc_rule, obj)


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

    @pytest.mark.parametrize("domain,grid", [
        (dom.disc(), (8, 16)), (dom.punctured_disc(), (8, 16)), (dom.ball(2), (4, 8)),
        (dom.polydisc(2), (4, 8)), (dom.hartogs_triangle(), (4, 8))],
        ids=["disc", "punctured-disc", "ball2", "bidisc", "hartogs"])
    def test_cached_node_diagonal_is_the_recomputed_one(self, domain, grid):
        rule = quad.build_rule(dom.disc() if domain.kind == "punctured-disc" else domain, *grid)
        diag = domain.diag(rule.nodes)
        assert rule.node_diag.tobytes() == diag.tobytes() and not rule.node_diag.flags.writeable
        points = np.array(dom.sample_interior(domain, 3, seed=5))
        for psi in (ONE, lambda w: np.exp(1j * w.reshape(len(w), -1)[:, 0].real)):  # real, complex
            coef = rule.weights / diag * quad.evaluate_on_rule(rule, psi)
            want = quad._kernel_sums(domain.kernel_abs2, rule, points,
                                     lambda rows, weights: coef[rows])
            got = tr.berezin_adjoint(domain, psi, points, rule)
            assert got.tobytes() == want.tobytes()

    def test_node_diagonal_is_evaluated_once_per_rule(self, monkeypatch):
        # at each node once, a chunk of 32,768 rows at a time, on the first call only
        domain = dom.ball(2)
        rule = quad.build_rule(domain, 8, 24)  # 73,728 nodes: two chunks and a tail
        calls = []
        diag = type(domain).diag

        def spy(self, z):
            calls.append(len(z))
            return diag(self, z)
        monkeypatch.setattr(type(domain), "diag", spy)
        first = tr.berezin_adjoint(domain, ONE, (0.1, 0.2j), rule)
        chunk = quad._CHUNK
        assert calls == [1, chunk, chunk, len(rule) - 2 * chunk]  # the point, then the chunks
        assert tr.berezin_adjoint(domain, ONE, (0.1, 0.2j), rule) == first
        assert calls[4:] == [1] and "_whole" not in vars(rule)


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


def _hartogs_points(rng, m):
    """Seeded Hartogs points, the last two at |z2|/|z1| = 0.9 and at |z1| = 0.05."""
    r1 = np.concatenate([rng.uniform(0.1, 0.9, m - 2), [0.6, 0.05]])
    t = np.concatenate([rng.uniform(0.0, 0.8, m - 2), [0.9, 0.5]])
    z1 = r1 * np.exp(2j * np.pi * rng.random(m))
    return np.stack([z1, z1 * t * np.exp(2j * np.pi * rng.random(m))], axis=1)


def _polydisc_points(rng, m, dim):
    r = np.concatenate([rng.uniform(0.05, 0.9, (m - 1, dim)), np.full((1, dim), 0.05)])
    return r * np.exp(2j * np.pi * rng.random((m, dim)))


class TestUnitMass:
    """unit_mass: the B1 sum factored over a product rule, or the blocked pass."""

    CASES = [(dom.polydisc(2), (6, 12)), (dom.polydisc(3), (4, 6)), (dom.hartogs_triangle(), (8, 16))]

    @pytest.mark.parametrize("domain,res", CASES, ids=[str(d) for d, _ in CASES])
    def test_factored_equals_the_full_pass(self, domain, res):
        rule = quad.build_rule(domain, *res)
        rng = np.random.default_rng(7)
        Z = (_hartogs_points(rng, 8) if domain.kind == "hartogs"
             else _polydisc_points(rng, 8, domain.dim))
        factored = tr.unit_mass(domain, Z, rule)
        direct = tr.berezin(domain, ONE, Z, rule).real
        assert factored.shape == (8,) and factored.dtype == float
        np.testing.assert_allclose(factored, direct, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("domain,res", CASES + [(dom.disc(), (12, 24))],
                             ids=[str(d) for d, _ in CASES] + ["disc(1)"])
    def test_one_point_equals_the_batch_bit_for_bit(self, domain, res):
        rule = quad.build_rule(domain, *res)
        Z = np.array(dom.sample_interior(domain, 5, seed=9))
        batch = tr.unit_mass(domain, Z, rule)
        for z, b in zip(Z, batch):
            one = tr.unit_mass(domain, tuple(z), rule)
            assert isinstance(one, float) and one == b

    def test_disc_factor_is_the_rule_itself(self):
        rule = quad.build_rule(dom.disc(), 12, 24)
        Z = np.array(dom.sample_interior(dom.disc(), 6, seed=3))
        assert tr.unit_mass(dom.disc(), Z, rule).tobytes() == tr.berezin(
            dom.disc(), ONE, Z, rule).real.tobytes()

    @pytest.mark.parametrize("domain", [dom.hartogs_triangle(), dom.polydisc(2)], ids=str)
    def test_loaded_rule_takes_the_pass(self, tmp_path, domain):
        rule = quad.build_rule(domain, 6, 12)
        path = os.path.join(tmp_path, "rule.bin")
        quad.save_rule(rule, path)
        loaded = quad.load_rule(path)
        Z = np.array(dom.sample_interior(domain, 6, seed=4))
        fallback = tr.unit_mass(domain, Z, loaded)
        assert fallback.tobytes() == tr.berezin(domain, ONE, Z, loaded).real.tobytes()
        np.testing.assert_allclose(fallback, tr.unit_mass(domain, Z, rule), rtol=1e-13, atol=0.0)

    def test_rule_of_another_domain_is_refused(self):
        rule = quad.build_rule(dom.hartogs_triangle(), 6, 12)
        Z = np.array([[0.3 + 0.1j, 0.1 - 0.05j]])
        with pytest.raises(ValueError, match="hartogs"):
            tr.unit_mass(dom.polydisc(2), Z, rule)

    def test_point_outside_is_refused(self):
        rule = quad.build_rule(dom.hartogs_triangle(), 6, 12)
        with pytest.raises(PointOutsideDomain):
            tr.unit_mass(dom.hartogs_triangle(), np.array([[0.3, 0.1], [0.3, 0.4]]), rule)


# (domain, point, domain and grid of a rule built for another domain)
FOREIGN = [(dom.disc(), 0.3 + 0j, dom.polydisc(2), (8, 16)),  # B1 read 3.14159
           (dom.ball(2), (0.3, 0.1), dom.hartogs_triangle(), (8, 16)),  # B1 read 1.3168
           (dom.polydisc(2), (0.3, 0.1), dom.disc(), (8, 16)),  # a bare IndexError
           (dom.disc(), 0.3 + 0j, dom.punctured_disc(), (8, 16))]


class TestForeignRules:
    """A rule built for another domain is refused by every transform and by discretize_berezin."""

    @pytest.mark.parametrize("name", ["berezin", "unit_mass", "berezin_adjoint",
                                      "absolute_projection", "bergman_project"])
    @pytest.mark.parametrize("domain,z,built_for,res", FOREIGN,
                             ids=[f"{d}-on-{b}" for d, _, b, _ in FOREIGN])
    def test_transforms_refuse(self, name, domain, z, built_for, res):
        rule = quad.build_rule(built_for, *res)
        args = (domain, z, rule) if name == "unit_mass" else (domain, ONE, z, rule)
        with pytest.raises(ValueError, match=f"built for {built_for.kind}"):
            getattr(tr, name)(*args)

    @pytest.mark.parametrize("domain,z,built_for,res", FOREIGN,
                             ids=[f"{d}-on-{b}" for d, _, b, _ in FOREIGN])
    def test_discretize_berezin_refuses(self, domain, z, built_for, res):
        with pytest.raises(ValueError, match=f"built for {built_for.kind}"):
            on.discretize_berezin(domain, quad.build_rule(built_for, *res))

    def test_a_disc_rule_serves_the_punctured_disc(self):
        # the factored and the blocked pass agree bit for bit: the factor is the rule itself
        rule = quad.build_rule(dom.disc(), 12, 24)
        domain = dom.punctured_disc()
        Z = np.array(dom.sample_interior(domain, 6, seed=3))
        assert tr.unit_mass(domain, Z, rule).tobytes() == tr.berezin(
            domain, ONE, Z, rule).real.tobytes()
        assert on.discretize_berezin(domain, rule).entries.shape == (len(rule), len(rule))
