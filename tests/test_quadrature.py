"""Rule construction, graded integration, tail classification, serialization."""

import math
import os
import struct

import numpy as np
import pytest

import bergman.domains as dom
from bergman import quadrature as quad
from bergman.errors import (
    BorderlineExponent,
    InvalidResolution,
    NonFiniteValue,
)


class TestRuleWeights:
    def test_disc_weight_sum(self):
        rule = quad.build_rule(dom.disc(), 64, 64, grading=2.0)
        assert abs(rule.weights.sum() - math.pi) <= 1e-10
        assert np.all(rule.weights > 0)

    def test_bidisc_weight_sum(self):
        rule = quad.build_rule(dom.polydisc(2), 32, 32)
        assert abs(rule.weights.sum() - math.pi ** 2) <= 1e-8

    def test_hartogs_weight_sum(self):
        rule = quad.build_rule(dom.hartogs_triangle(), 16, 32)
        assert abs(rule.weights.sum() - math.pi ** 2 / 2) <= 1e-9

    def test_ball_weight_sum(self):
        rule = quad.build_rule(dom.ball(2), 16, 16)
        assert abs(rule.weights.sum() - math.pi ** 2 / 2) <= 1e-10

    @pytest.mark.parametrize("domain", [dom.disc(), dom.hartogs_triangle(),
                                        dom.ball(2), dom.polydisc(2)], ids=str)
    def test_nodes_strictly_inside(self, domain):
        rule = quad.build_rule(domain, 8, 8)
        step = max(1, len(rule) // 200)
        for row in rule.nodes[::step]:
            assert dom.contains(domain, tuple(row))

    def test_invalid_resolution(self):
        with pytest.raises(InvalidResolution):
            quad.build_rule(dom.disc(), 3, 16)
        with pytest.raises(InvalidResolution):
            quad.build_rule(dom.disc(), 16, 16, grading=0.5)


def _reference_polydisc(dim, radial_n, angular_n, grading, origin_grading):
    """The polydisc builder's formulas as first written: the disc rule, then repeat/tile."""
    r, wr = quad._radial_line(radial_n, origin_grading, grading)
    th = 2.0 * np.pi * np.arange(angular_n) / angular_n
    wth = 2.0 * np.pi / angular_n
    z1 = (r[:, None] * np.exp(1j * th)[None, :]).ravel()
    w1 = ((r * wr)[:, None] * np.full(angular_n, wth)[None, :]).ravel()
    nodes, weights = z1[:, None], w1
    for _ in range(dim - 1):
        nodes = np.concatenate([np.repeat(nodes, len(z1), axis=0),
                                np.tile(z1, len(weights))[:, None]], axis=1)
        weights = (weights[:, None] * w1[None, :]).ravel()
    return nodes, weights


def _reference_hartogs(radial_n, angular_n, grading, origin_grading):
    """The Hartogs builder's formulas as first written, on raveled 4-D coordinates.

    z2 is formed as t * z1: numpy evaluated the written ``z1 * <temporary t>`` in that
    operand order on every rule of 2^14 nodes or more (its temporary elision), and the
    complex product rounds differently with its operands swapped.
    """
    r, wr = quad._radial_line(radial_n, origin_grading, grading)
    sa, wsa = quad._gauss(radial_n, 0.0, 0.5)
    sb, wsb = quad._graded_panel(radial_n, 0.5, 1.0, grading, "hi")
    s, ws = np.concatenate([sa, sb]), np.concatenate([wsa, wsb])
    th = 2.0 * np.pi * np.arange(angular_n) / angular_n
    wth = 2.0 * np.pi / angular_n
    phase = np.exp(1j * th)
    shape = (len(r), angular_n, len(s), angular_n)
    z1 = np.broadcast_to(r[:, None, None, None] * phase[None, :, None, None], shape).ravel()
    t = np.broadcast_to(s[None, None, :, None] * phase[None, None, None, :], shape).ravel()
    w = np.einsum("i,j,k,l->ijkl", r ** 3 * wr, np.full(angular_n, wth),
                  s * ws, np.full(angular_n, wth)).ravel()
    return np.stack([z1, t * z1], axis=1), w


class TestProductFactors:
    """Polydisc and Hartogs rules are built from their 1-D factor rules."""

    @pytest.mark.parametrize("dim,res", [(1, (8, 16)), (1, (6, 10, 3.0, 1.5)),
                                         (2, (6, 8)), (2, (5, 7, 3.0, 2.0)),
                                         (3, (4, 6)), (3, (4, 5, 1.5, 4.0))])
    def test_polydisc_bit_identical_to_reference(self, dim, res):
        rule = quad.build_rule(dom.polydisc(dim), *res)
        nodes, weights = _reference_polydisc(dim, res[0], res[1], *(res[2:] or (2.0, 2.0)))
        assert rule.nodes.tobytes() == nodes.tobytes()
        assert rule.weights.tobytes() == weights.tobytes()
        assert len(rule.factors) == dim
        for f in rule.factors:
            assert f.meta.domain == "disc" and f.meta.shape == (2 * res[0], res[1])
            assert f.nodes.tobytes() == nodes[:len(f), -1].tobytes()
            assert not f.factors

    @pytest.mark.parametrize("res", [(8, 16), (8, 16, 3.0, 1.5), (6, 24, 1.0, 6.0)])
    def test_hartogs_bit_identical_to_reference(self, res):
        rule = quad.build_rule(dom.hartogs_triangle(), *res)
        nodes, weights = _reference_hartogs(res[0], res[1], *(res[2:] or (2.0, 3.0)))
        assert rule.nodes.tobytes() == nodes.tobytes()
        assert rule.weights.tobytes() == weights.tobytes()
        f1, f2 = rule.factors
        n2 = len(f2)
        assert f1.nodes.tobytes() == nodes[::n2, 0].tobytes()
        assert (f2.nodes[:, 0] * f1.nodes[0, 0]).tobytes() == nodes[:n2, 1].tobytes()
        assert (f1.meta.origin_grading, f2.meta.origin_grading) == (rule.meta.origin_grading, 1.0)

    @pytest.mark.parametrize("domain", [dom.hartogs_triangle(), dom.polydisc(2), dom.disc()],
                             ids=str)
    def test_factor_weights_times_jacobian_are_the_weights(self, domain):
        rule = quad.build_rule(domain, 6, 8)
        product = rule.factors[0].weights
        for f in rule.factors[1:]:
            product = np.multiply.outer(product, f.weights)
        if domain.kind == "hartogs":
            product = product * np.abs(rule.factors[0].nodes) ** 2  # the Jacobian |z1|^2
        np.testing.assert_allclose(product.ravel(), rule.weights, rtol=1e-14, atol=0.0)

    def test_ball_patch_and_loaded_rules_have_none(self, tmp_path):
        path = os.path.join(tmp_path, "rule.bin")
        quad.save_rule(quad.build_rule(dom.polydisc(2), 4, 4), path)
        assert quad.load_rule(path).factors == ()
        assert quad.build_rule(dom.ball(2), 4, 4).factors == ()
        assert quad.disc_patch_rule(0.1, 0.2).factors == ()


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [1, 7, 160])
    def test_equals_leggauss(self, n):
        x, w = quad.gauss_legendre(n)
        x0, w0 = np.polynomial.legendre.leggauss(n)
        assert x.tobytes() == x0.tobytes() and w.tobytes() == w0.tobytes()

    def test_cached_and_read_only(self):
        first = quad.gauss_legendre(12)
        assert quad.gauss_legendre(12) is first
        for arr in first:
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @pytest.mark.parametrize("n", [0, -3])
    def test_nonpositive_order(self, n):
        with pytest.raises(InvalidResolution):
            quad.gauss_legendre(n)


class TestIntegrate:
    def test_disc_constant(self):
        rule = quad.build_rule(dom.disc(), 24, 24)
        got = quad.integrate(rule, lambda w: np.ones(len(w)))
        assert got.real == pytest.approx(math.pi, rel=1e-12)

    def test_hartogs_blowup_symbol_squared_mild(self):
        # int |w1|^(2(-2 + 2 eps)) dV = pi^2 / (2 eps) at eps = 0.1, default grading
        rule = quad.build_rule(dom.hartogs_triangle(), 24, 8)
        eps = 0.1
        got = quad.integrate(rule, lambda w: np.abs(w[:, 0]) ** (4 * eps - 4.0))
        assert got.real == pytest.approx(math.pi ** 2 / (2 * eps), rel=5e-3)

    def test_hartogs_bulge_moment(self):
        # int (1 - |z1|^2)^4 dV = pi^2 B(2,5) = pi^2/30
        rule = quad.build_rule(dom.hartogs_triangle(), 24, 8)
        got = quad.integrate(rule, lambda w: (1 - np.abs(w[:, 0]) ** 2) ** 4)
        assert got.real == pytest.approx(math.pi ** 2 / 30, rel=1e-10, abs=1e-4)

    def test_singularity_robustness_with_origin_grading(self):
        rule = quad.build_rule(dom.hartogs_triangle(), 64, 4, origin_grading=15.0)
        for eps in (0.5, 0.1, 0.02):
            got = quad.integrate(rule, lambda w, e=eps: np.abs(w[:, 0]) ** (4 * e - 4.0))
            assert got.real == pytest.approx(math.pi ** 2 / (2 * eps), rel=5e-3)

    def test_disc_monomial_exactness(self):
        rule = quad.build_rule(dom.disc(), 64, 8)
        r2 = np.abs(rule.nodes[:, 0]) ** 2
        for m in range(0, 33):
            got = float(np.sum(rule.weights * r2 ** m))
            assert got == pytest.approx(math.pi / (m + 1), rel=1e-10)

    def test_refinement_stability(self):
        base = quad.integrate(quad.build_rule(dom.disc(), 24, 16),
                              lambda w: np.ones(len(w))).real
        fine = quad.integrate(quad.build_rule(dom.disc(), 48, 16),
                              lambda w: np.ones(len(w))).real
        assert abs(fine - base) <= 1e-8 * abs(base)

    def test_grid_function_and_arrays(self):
        rule = quad.build_rule(dom.disc(), 8, 8)
        gf = quad.GridFunction(rule, np.ones(len(rule)))
        assert quad.integrate(rule, gf).real == pytest.approx(math.pi)
        assert quad.integrate(rule, np.ones(len(rule))).real == pytest.approx(math.pi)

    def test_foreign_grid_function_rejected(self):
        # same length, other weights: integrating would give 1.3969 instead of pi/2
        rule = quad.build_rule(dom.disc(), 8, 16)
        other = quad.build_rule(dom.disc(), 8, 16, grading=3.0)
        gf = quad.GridFunction(rule, np.abs(rule.nodes[:, 0]) ** 2)
        assert quad.integrate(rule, gf).real == pytest.approx(math.pi / 2)
        with pytest.raises(ValueError):
            quad.integrate(other, gf)

    def test_non_finite_rejected(self):
        rule = quad.build_rule(dom.disc(), 8, 8)
        with pytest.raises(NonFiniteValue):
            quad.integrate(rule, lambda w: np.where(np.abs(w) < 0.5, np.inf, 1.0))
        with pytest.raises(NonFiniteValue):
            quad.GridFunction(rule, np.full(len(rule), np.nan))

    def test_compensated_sum_deterministic(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(200001)
        assert quad.compensated_sum(vals) == quad.compensated_sum(vals.copy())


class TestPatchRule:
    def test_area_and_bounds(self):
        rule = quad.disc_patch_rule(0.3 + 0.2j, 0.25)
        assert rule.weights.sum() == pytest.approx(math.pi * 0.25 ** 2, rel=1e-12)
        assert np.all(np.abs(rule.nodes[:, 0]) < 1)
        with pytest.raises(InvalidResolution):
            quad.disc_patch_rule(0.9 + 0j, 0.2)


class TestTailExponents:
    def test_boas_outer_exponents(self):
        # exponent 2j + 1 - (2k + 2) at infinity
        assert quad.tail_exponent_classify((2 * 0 + 1 - (2 * 1 + 2), "infinity"))
        assert not quad.tail_exponent_classify((2 * 1 + 1 - (2 * 1 + 2), "infinity"))

    def test_origin_power(self):
        assert quad.tail_exponent_classify((-1 + 4 * 0.1, "zero"))
        assert not quad.tail_exponent_classify((-1.5, "zero"))

    def test_multiple_pairs(self):
        assert quad.tail_exponent_classify([(0.5, "zero"), (-2.0, "infinity")])
        assert not quad.tail_exponent_classify([(0.5, "zero"), (-0.5, "infinity")])

    def test_borderline_refused(self):
        with pytest.raises(BorderlineExponent):
            quad.tail_exponent_classify((-1.0 + 1e-12, "zero"))

    def test_exact_harmonic_diverges(self):
        assert not quad.tail_exponent_classify((-1.0, "zero"))
        assert not quad.tail_exponent_classify((-1.0, "infinity"))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rule = quad.build_rule(dom.hartogs_triangle(), 6, 6)
        path = os.path.join(tmp_path, "rule.bin")
        quad.save_rule(rule, path)
        back = quad.load_rule(path)
        np.testing.assert_array_equal(back.nodes, rule.nodes)
        np.testing.assert_array_equal(back.weights, rule.weights)
        assert back.meta.domain == "hartogs"
        f = lambda w: np.abs(w[:, 0]) ** 2
        assert quad.integrate(back, f) == quad.integrate(rule, f)

    @pytest.mark.parametrize("domain", [dom.disc(), dom.polydisc(2)], ids=str)
    def test_meta_round_trip_and_record_bytes(self, tmp_path, domain):
        rule = quad.build_rule(domain, 4, 4)
        path = os.path.join(tmp_path, "rule.bin")
        quad.save_rule(rule, path)
        assert quad.load_rule(path).meta == rule.meta
        # the records are the bytes of one struct.pack per row
        want = b"".join(
            struct.pack("<" + "d" * (2 * rule.dim + 1),
                        *[x for c in row for x in (c.real, c.imag)], float(w))
            for row, w in zip(rule.nodes, rule.weights))
        with open(path, "rb") as fh:
            fh.readline()
            assert fh.read() == want

    def test_header_without_shape_loads(self, tmp_path):
        rule = quad.build_rule(dom.disc(), 4, 4)
        path = os.path.join(tmp_path, "rule.bin")
        quad.save_rule(rule, path)
        with open(path, "rb") as fh:
            header, body = fh.readline(), fh.read()
        with open(path, "wb") as fh:
            fh.write(header.replace(b" shape=8,4", b"") + body)
        back = quad.load_rule(path)
        assert back.meta.shape == ()
        np.testing.assert_array_equal(back.nodes, rule.nodes)

    def test_reject_garbage(self, tmp_path):
        path = os.path.join(tmp_path, "junk.bin")
        with open(path, "wb") as fh:
            fh.write(b"not a rule\n")
        with pytest.raises(ValueError):
            quad.load_rule(path)


class TestCoreCount:
    @pytest.mark.parametrize("line,cores", [("max 100000\n", None),
                                            ("150000 100000\n", 2),
                                            ("50000 100000\n", 1)],
                             ids=["no-quota", "one-and-a-half", "one-half"])
    def test_cgroup_quota(self, line, cores):
        assert quad._quota_cores(line) == cores
