"""Rule construction, graded integration, tail classification, serialization."""

import math
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bergman.domains as dom
from bergman import quadrature as quad
from bergman import reproduce
from bergman import transforms as tr
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
            assert domain.contains(row[None])[0]

    def test_invalid_resolution(self):
        with pytest.raises(InvalidResolution):
            quad.build_rule(dom.disc(), 3, 16)
        with pytest.raises(InvalidResolution):
            quad.build_rule(dom.disc(), 16, 16, grading=0.5)

    @pytest.mark.parametrize("key", ["grading", "origin_grading"])
    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_grading_is_refused(self, key, value):
        # NaN fails no comparison with 1, and an infinite exponent grades every node to an end
        with pytest.raises(InvalidResolution):
            quad.build_rule(dom.hartogs_triangle(), 8, 8, **{key: value})

    @pytest.mark.parametrize("res", [(10.5, 16), (16, 10.5), (16.0, 16)])
    def test_non_integer_resolution_is_refused(self, res):
        with pytest.raises(InvalidResolution):
            quad.build_rule(dom.disc(), *res)

    def test_numpy_integer_resolution_is_accepted(self):
        assert len(quad.build_rule(dom.disc(), np.int64(8), 8)) == len(quad.build_rule(dom.disc(), 8, 8))


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


def _reference_ball2(radial_n, angular_n, grading, origin_grading):
    """The ball builder's formulas as first written: broadcast coordinates, einsum weights."""
    rho, wrho = quad._radial_line(radial_n, origin_grading, grading)
    alpha_n = max(8, radial_n // 2 + 4)
    al, wal = quad._gauss(alpha_n, 0.0, math.pi / 2)
    th = 2.0 * np.pi * np.arange(angular_n) / angular_n
    wth = 2.0 * np.pi / angular_n
    phase = np.exp(1j * th)
    z1 = (rho[:, None] * np.cos(al))[:, :, None, None] * phase[:, None]
    z2 = (rho[:, None] * np.sin(al))[:, :, None, None] * phase
    w = np.einsum("i,j,k,l->ijkl", rho ** 3 * wrho, np.cos(al) * np.sin(al) * wal,
                  np.full(angular_n, wth), np.full(angular_n, wth)).ravel()
    return np.stack(np.broadcast_arrays(z1, z2), axis=-1).reshape(-1, 2), w


class TestRuleRepr:
    def test_repr_is_short_and_names_the_domain_and_node_count(self):
        # the arrays stay out: a property test's falsifying example prints its rules
        rule = quad.build_rule(dom.hartogs_triangle(), 5, 12)
        text = repr(rule)
        assert len(text) <= 300
        assert "hartogs" in text and f"nodes={len(rule)}" in text


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

    @pytest.mark.parametrize("res", [(8, 16), (8, 16, 3.0, 1.5), (6, 24, 1.0, 6.0), (28, 48)])
    def test_ball_bit_identical_to_reference(self, res):
        rule = quad.build_rule(dom.ball(2), *res)
        nodes, weights = _reference_ball2(res[0], res[1], *(res[2:] or (2.0, 2.0)))
        assert rule.nodes.tobytes() == nodes.tobytes()
        assert rule.weights.tobytes() == weights.tobytes()

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


def _formed(rule) -> bool:
    """Whether the rule holds its whole node and weight arrays."""
    return "_whole" in vars(rule)


def _row_bits(pair):
    nodes, weights = pair
    return nodes.tobytes(), weights.tobytes(), nodes.shape, weights.shape


def _rule_rows(rule, rows=slice(None)):
    """The nodes ``rows`` forms and the weights of the same rows."""
    return rule.rows(rows), rule._weights(rows)


# every kind build_rule makes as a tensor product: (domain, origin grading, largest radial_n)
TENSOR_KINDS = {
    "disc": (dom.disc(), None, 9), "bidisc": (dom.polydisc(2), None, 8),
    "tridisc": (dom.polydisc(3), None, 4), "ball2": (dom.ball(2), None, 8),
    "hartogs": (dom.hartogs_triangle(), None, 8),
    "hartogs-origin": (dom.hartogs_triangle(), 12.0, 8),
}


class TestRowsFromAxes:
    """Product rules keep their slab fields and form the rows asked for, bit for bit."""

    @given(kind=st.sampled_from(sorted(TENSOR_KINDS)), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_the_whole_arrays(self, kind, data):
        domain, origin, top = TENSOR_KINDS[kind]
        grid = (data.draw(st.integers(4, top)), data.draw(st.integers(4, 9 if top > 4 else 5)))
        fresh = quad.build_rule(domain, *grid, origin_grading=origin)
        whole = quad.build_rule(domain, *grid, origin_grading=origin)
        nodes, weights, n = whole.nodes, whole.weights, len(whole)
        width = fresh.width
        # a range anywhere, one across a slab boundary, a lone node, the last rows, the whole
        start = data.draw(st.integers(0, n))
        stop = data.draw(st.integers(start, n))
        edge = data.draw(st.integers(1, n // width)) * width
        across = slice(max(0, edge - data.draw(st.integers(0, width + 1))),
                       min(n, edge + data.draw(st.integers(0, width + 1))))
        i = data.draw(st.integers(0, n - 1))
        tail = slice(data.draw(st.integers(0, n - 1)), n)
        for rows in (slice(start, stop), across, slice(i, i + 1), tail, slice(None)):
            assert _row_bits(_rule_rows(fresh, rows)) == _row_bits((nodes[rows], weights[rows]))
        assert not _formed(fresh)

    @pytest.mark.parametrize("domain, grid", [
        (dom.polydisc(2), (8, 24)), (dom.ball(2), (12, 24)), (dom.hartogs_triangle(), (10, 24)),
        (dom.disc(), (80, 1024))], ids=["bidisc", "ball2", "hartogs", "disc"])
    def test_every_chunk_and_the_last_node(self, domain, grid):
        # 147,456 / 138,240 / 230,400 / 163,840 nodes: chunk boundaries cut slabs
        fresh, whole = quad.build_rule(domain, *grid), quad.build_rule(domain, *grid)
        nodes, weights, n = whole.nodes, whole.weights, len(whole)
        assert n > 2 * quad._CHUNK
        for rows in quad._slices(0, n, quad._CHUNK) + [slice(n - 1, n)]:
            assert _row_bits(_rule_rows(fresh, rows)) == _row_bits((nodes[rows], weights[rows]))
        assert not _formed(fresh)

    def test_whole_arrays_are_formed_once_read_only_and_then_sliced(self):
        rule = quad.build_rule(dom.hartogs_triangle(), 5, 12)
        nodes = rule.nodes
        assert _formed(rule) and rule.weights is rule.weights and rule.nodes is nodes
        assert not (nodes.flags.writeable or rule.weights.flags.writeable)
        part, weights = _rule_rows(rule, slice(100, 300))
        assert np.shares_memory(part, nodes) and np.shares_memory(weights, rule.weights)

    @given(kind=st.sampled_from(sorted(TENSOR_KINDS)), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_whole_arrays_formed_in_steps_are_the_one_block_rows(self, kind, data):
        domain, origin, top = TENSOR_KINDS[kind]
        grid = (data.draw(st.integers(4, top)), data.draw(st.integers(4, 9 if top > 4 else 5)))
        rule, fresh = (quad.build_rule(domain, *grid, origin_grading=origin) for _ in range(2))
        # steps of one slab up to the whole rule, a short last step among them
        chunk = data.draw(st.integers(1, len(rule)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(quad, "_CHUNK", chunk)
            whole = rule.nodes, rule.weights
        assert _row_bits(whole) == _row_bits(_rule_rows(fresh))  # the mesh of every slab at once

    @pytest.mark.parametrize("domain, grid", [
        (dom.polydisc(2), (8, 24)), (dom.ball(2), (12, 24)), (dom.hartogs_triangle(), (10, 24))],
        ids=["bidisc", "ball2", "hartogs"])
    def test_first_access_keeps_the_two_arrays_and_at_most_one_chunk(self, domain, grid):
        rule = quad.build_rule(domain, *grid)
        tracemalloc.start()
        try:
            nodes = rule.nodes
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # formed whole, the Hartogs rule also kept the 3.7 MB mesh of every slab
        assert kept <= nodes.nbytes + rule.weights.nbytes + quad._CHUNK * rule.dim * 16

    def test_explicit_arrays_are_sliced(self):
        base = quad.build_rule(dom.disc(), 4, 8)
        nodes, weights = base.nodes.copy(), base.weights.copy()
        rule = quad.QuadratureRule(nodes, weights, base.meta)
        got, w = _rule_rows(rule, slice(3, 5))
        assert np.shares_memory(got, rule.nodes) and np.shares_memory(w, rule.weights)
        assert got.tobytes() == nodes[3:5].tobytes() and w.tobytes() == weights[3:5].tobytes()

    @pytest.mark.parametrize("rows", [[-1, -1], [0, 5, 2], range(3, 40, 7), slice(40, 3, -5),
                                      slice(7, 7), []], ids=str)
    def test_index_lists_and_steps(self, rows):
        # rows takes contiguous slices alone, formed or not: index lists, ranges and steps
        # are refused, and an empty slice gives no rows
        fresh, whole = (quad.build_rule(dom.ball(2), 4, 4) for _ in range(2))
        whole.nodes
        if isinstance(rows, slice) and rows.step is None:
            assert _row_bits(_rule_rows(fresh, rows)) == _row_bits((whole.nodes[rows],
                                                                    whole.weights[rows]))
            assert _row_bits(_rule_rows(whole, rows))[2:] == ((0, 2), (0,))
        else:
            for rule in (fresh, whole):
                with pytest.raises(ValueError, match="contiguous slice"):
                    rule.rows(rows)

    def test_length_dimension_and_grid_form_nothing(self):
        rule = quad.build_rule(dom.hartogs_triangle(), 20, 48)
        assert (len(rule), rule.dim) == (3686400, 2)
        grid = reproduce._grid(rule)
        assert grid["nodes"] == len(rule) and grid["shape"] == (40, 48, 40, 48)
        assert not _formed(rule) and not any(_formed(f) for f in rule.factors)

    def test_a_hartogs_rule_of_3_7_m_nodes_is_built_in_under_1_mb(self):
        quad.build_rule(dom.hartogs_triangle(), 4, 4)  # lazy imports and cached Gauss rules
        quad.gauss_legendre(20)
        tracemalloc.start()
        try:
            rule = quad.build_rule(dom.hartogs_triangle(), 20, 48)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole arrays alone are N x 40 bytes = 147 MB; built whole, the rule peaked at 149 MB
        assert len(rule) * 40 > 100 * 2 ** 20 and peak < 2 ** 20


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
        assert quad.integrate(rule, np.ones(len(rule))).real == pytest.approx(math.pi)
        rule = quad.build_rule(dom.disc(), 8, 16)
        r2 = np.abs(rule.nodes[:, 0]) ** 2
        assert quad.integrate(rule, r2).real == pytest.approx(math.pi / 2)

    def test_non_finite_rejected(self):
        rule = quad.build_rule(dom.disc(), 8, 8)
        with pytest.raises(NonFiniteValue):
            quad.integrate(rule, lambda w: np.where(np.abs(w) < 0.5, np.inf, 1.0))
        with pytest.raises(NonFiniteValue):
            quad.integrate(rule, np.full(len(rule), np.nan))

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

    @pytest.mark.parametrize("center, radius", [
        (0.1, -0.1), (0.1, 0.0), (0.1, math.nan), (complex(math.nan, 0.0), 0.1),
        (complex(0.0, math.inf), 0.1)], ids=["negative", "zero", "nan-radius", "nan-centre",
                                             "infinite-centre"])
    def test_degenerate_patch_is_refused(self, center, radius):
        with pytest.raises(InvalidResolution):
            quad.disc_patch_rule(center, radius)

    @pytest.mark.parametrize("counts", [(0, 32), (-3, 32), (24, 2.5), (24, True), (1, 1)],
                             ids=["zero", "negative", "fractional", "bool", "one-node"])
    def test_resolution_is_checked_as_build_rule_checks_it(self, counts):
        for make in (lambda: quad.disc_patch_rule(0.1, 0.2, *counts),
                     lambda: quad.build_rule(dom.disc(), *counts)):
            with pytest.raises(InvalidResolution, match="integers >= 4"):
                make()


class TestHandBuiltRules:
    """``QuadratureRule(nodes, weights, meta)`` checks what ``load_rule`` checks of a file."""

    @pytest.fixture
    def arrays(self):
        rule = quad.build_rule(dom.disc(), 4, 4)
        return rule.nodes.copy(), rule.weights.copy(), rule.meta

    def test_a_nan_node_is_refused(self, arrays):
        nodes, weights, meta = arrays
        nodes[5, 0] = complex(0.1, math.nan)
        with pytest.raises(NonFiniteValue):
            quad.QuadratureRule(nodes, weights, meta)

    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.inf])
    def test_a_weight_not_positive_and_finite_is_refused(self, arrays, bad):
        nodes, weights, meta = arrays
        weights[3] = bad
        with pytest.raises(NonFiniteValue if bad == math.inf else InvalidResolution):
            quad.QuadratureRule(nodes, weights, meta)

    @pytest.mark.parametrize("shape", ["1-d-nodes", "wrong-dim", "short-weights"])
    def test_arrays_of_the_wrong_shape_are_refused(self, arrays, shape):
        nodes, weights, meta = arrays
        if shape == "1-d-nodes":
            nodes = nodes[:, 0]
        elif shape == "wrong-dim":
            nodes = np.repeat(nodes, 2, axis=1)
        else:
            weights = weights[:-1]
        with pytest.raises(ValueError, match=r"nodes \(N, 1\) and weights \(N,\)"):
            quad.QuadratureRule(nodes, weights, meta)

    def test_the_rule_keeps_read_only_copies(self, arrays, tmp_path):
        # A write to the caller's arrays after construction reached the rule past its checks:
        # a NaN node made berezin return nan+0j, and a weight of -1 made the integral of 1 on
        # disc(8, 16) read 2.1416, not pi.
        nodes, weights, meta = arrays
        rule = quad.QuadratureRule(nodes, weights, meta)
        one = quad.integrate(rule, np.ones(len(rule)))
        nodes[5, 0], weights[7] = complex(0.1, math.nan), -1.0
        assert not (np.shares_memory(rule.nodes, nodes) or np.shares_memory(rule.weights, weights))
        assert quad.integrate(rule, np.ones(len(rule))) == one
        assert np.isfinite(tr.berezin(dom.disc(), lambda w: w, 0.1, rule))
        path = os.path.join(tmp_path, "rule.bin")
        quad.save_rule(rule, path)
        for made in (rule, quad.disc_patch_rule(0.1, 0.2), quad.load_rule(path)):
            assert made.nodes.dtype == complex and made.weights.dtype == float
            for array in (made.nodes, made.weights):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1.0

    def test_real_nodes_become_complex(self, arrays):
        nodes, weights, meta = arrays
        rule = quad.QuadratureRule(nodes.real.copy(), weights.astype(np.float32), meta)
        assert rule.nodes.dtype == complex and rule.weights.dtype == float
        assert rule.nodes.tobytes() == nodes.real.astype(complex).tobytes()

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_nodes_are_refused(self, arrays, tmp_path, n):
        nodes, weights, meta = arrays
        with pytest.raises(InvalidResolution, match="two or more nodes"):
            quad.QuadratureRule(nodes[:n], weights[:n], meta)
        # a file of that many records is refused by load_rule as any other bad file is
        path = os.path.join(tmp_path, "rule.bin")
        quad.save_rule(quad.QuadratureRule(nodes[:2], weights[:2], meta), path)
        with open(path, "rb") as fh:
            header, records = fh.readline(), fh.read()
        with open(path, "wb") as fh:
            fh.write(header.replace(b" n=2 ", f" n={n} ".encode()) + records[:n * 24])
        with pytest.raises(ValueError, match="two or more nodes"):
            quad.load_rule(path)


class TestTailExponents:
    def test_boas_outer_exponents(self):
        # exponent 2j + 1 - (2k + 2) at infinity
        assert quad.tail_exponent_classify([(2 * 0 + 1 - (2 * 1 + 2), "infinity")])
        assert not quad.tail_exponent_classify([(2 * 1 + 1 - (2 * 1 + 2), "infinity")])

    def test_origin_power(self):
        assert quad.tail_exponent_classify([(-1 + 4 * 0.1, "zero")])
        assert not quad.tail_exponent_classify([(-1.5, "zero")])

    def test_multiple_pairs(self):
        assert quad.tail_exponent_classify([(0.5, "zero"), (-2.0, "infinity")])
        assert not quad.tail_exponent_classify([(0.5, "zero"), (-0.5, "infinity")])

    def test_borderline_refused(self):
        with pytest.raises(BorderlineExponent):
            quad.tail_exponent_classify([(-1.0 + 1e-12, "zero")])

    def test_exact_harmonic_diverges(self):
        assert not quad.tail_exponent_classify([(-1.0, "zero")])
        assert not quad.tail_exponent_classify([(-1.0, "infinity")])


def _save_rule_whole(rule, path):
    """``save_rule`` as it was before it streamed: one (N, 2 dim + 1) record array."""
    m = rule.meta
    header = (f"bergman-rule v1 kind={m.domain} dim={m.dim} n={len(rule)} "
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


class TestSerialization:
    @pytest.mark.parametrize("make", [
        lambda: quad.build_rule(dom.disc(), 80, 1024), lambda: quad.disc_patch_rule(0.2j, 0.5),
        lambda: quad.build_rule(dom.ball(2), 12, 24), lambda: quad.build_rule(dom.polydisc(2), 8, 24),
        lambda: quad.build_rule(dom.hartogs_triangle(), 10, 24, origin_grading=6.0)],
        ids=["disc", "patch", "ball2", "bidisc", "hartogs"])
    def test_streamed_file_is_the_whole_array_file(self, tmp_path, make):
        # rules of 2 to 4 chunks: the file streamed from rows is byte-identical, and a fresh
        # product rule is written without forming its whole arrays
        rule, ref = make(), make()
        streamed, whole = (os.path.join(tmp_path, name) for name in ("streamed.bin", "whole.bin"))
        quad.save_rule(rule, streamed)
        assert _formed(rule) == rule.meta.region.startswith("patch")  # explicit arrays
        _save_rule_whole(ref, whole)
        with open(streamed, "rb") as a, open(whole, "rb") as b:
            assert a.read() == b.read()
        back = quad.load_rule(streamed)
        assert back.nodes.tobytes() == ref.nodes.tobytes()
        assert back.weights.tobytes() == ref.weights.tobytes()

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

    @pytest.mark.parametrize("spoil", [
        lambda h, r: (h.replace(b" dim=2", b""), r),
        lambda h, r: (h.replace(b" radial_n=4", b" radial_n=four"), r),
        lambda h, r: (h.replace(b"kind=polydisc", b"kind=torus"), r),
        lambda h, r: (h.replace(b"kind=polydisc", b"kind=disc"), r),
        lambda h, r: (h, r[:-8]),
        lambda h, r: (h, r[:-8] + struct.pack("<d", math.nan)),
        lambda h, r: (h, r[:-8] + struct.pack("<d", -1.0)),
        lambda h, r: (h, r[:-8] + struct.pack("<d", 0.0)),
        lambda h, r: (h, struct.pack("<d", math.inf) + r[8:]),
    ], ids=["no-dim", "bad-radial-n", "unknown-kind", "disc-of-dim-2", "short-records",
            "nan-weight", "negative-weight", "zero-weight", "infinite-node"])
    def test_a_bad_file_is_refused(self, tmp_path, spoil):
        rule = quad.build_rule(dom.polydisc(2), 4, 4)
        path = os.path.join(tmp_path, "rule.bin")
        quad.save_rule(rule, path)
        with open(path, "rb") as fh:
            header, records = spoil(fh.readline(), fh.read())
        with open(path, "wb") as fh:
            fh.write(header + records)
        with pytest.raises(ValueError):
            quad.load_rule(path)

    def test_reject_garbage(self, tmp_path):
        path = os.path.join(tmp_path, "junk.bin")
        with open(path, "wb") as fh:
            fh.write(b"not a rule\n")
        with pytest.raises(ValueError):
            quad.load_rule(path)


class TestSlices:
    @given(start=st.integers(0, 50), length=st.integers(0, 200), step=st.integers(1, 64))
    @settings(max_examples=200, deadline=None)
    def test_slices_cover_the_range_in_order_without_a_lone_entry(self, start, length, step):
        stop = start + length
        got = quad._slices(start, stop, step)
        assert [i for s in got for i in range(s.start, s.stop)] == list(range(start, stop))
        assert all(s.step is None and s.stop - s.start <= step + 1 for s in got)
        if step > 1 and length > 1:  # a one-entry remainder joins the slice before it
            assert all(s.stop - s.start > 1 for s in got)
        assert [s.start for s in got] == list(range(start, stop, step))[:len(got)]


class TestCoreCount:
    @pytest.mark.parametrize("line,cores", [("max 100000\n", None),
                                            ("150000 100000\n", 2),
                                            ("50000 100000\n", 1)],
                             ids=["no-quota", "one-and-a-half", "one-half"])
    def test_cgroup_quota(self, line, cores):
        assert quad._quota_cores(line) == cores


def _pinned_chunk_lengths():
    """The lengths of the blocks ``_kernel_sums`` reduces on reproduce's rules and their
    factor rules (_CHUNK and each rule's tail), and odd ones around a leaf and a chunk."""
    rules = [getattr(reproduce, name)() for name in dir(reproduce) if name.startswith("rule_")]
    rules += [factor for rule in rules for factor in rule.factors]
    lengths = {min(len(rule) - k, quad._CHUNK) for rule in rules
               for k in range(0, len(rule), quad._CHUNK)}
    return sorted(lengths | {1, 129, quad._LEAF - 1, quad._LEAF + 1, 4097, quad._CHUNK + 7})


class TestPairwiseSums:
    """``_leaf_sums`` of M rows is, leaf by leaf, numpy's own pairwise ``np.sum`` of each
    _LEAF entries of each row, also on the strided real and imaginary parts of complex rows;
    the leaf sums added up by fsum are ``compensated_sum`` of the row."""

    @pytest.mark.parametrize("rows", ["real", "complex.real", "complex.imag"])
    @pytest.mark.parametrize("m", [1, 3, 16])
    def test_leaf_sums_added_up_the_tree_are_np_sum(self, m, rows):
        rng = np.random.default_rng(m)
        lengths = _pinned_chunk_lengths()
        size = (m, max(lengths))
        # summands over 16 decades, so that any other order of the additions rounds apart
        x = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8, size)
        if rows != "real":
            block = x + 1j * rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8, size)
            x = block.real if rows == "complex.real" else block.imag
        leaf = quad._LEAF
        for n in lengths:
            row = x[:, :n]
            got = quad._leaf_sums(row)
            want = np.array([[np.sum(r[i:i + leaf]) for i in range(0, n, leaf)] for r in row])
            assert got.shape == (m, -(-n // leaf))
            assert got.tobytes() == want.tobytes(), (
                f"numpy {np.__version__}: the leaf sums of {m} rows of {n} entries differ "
                f"from the np.sum of each leaf")
            for r, sums in zip(row, got):
                assert struct.pack("d", math.fsum(sums)) == struct.pack("d", quad.compensated_sum(r))
            if n <= leaf:  # one leaf: the contract is np.sum itself
                assert got[:, 0].tobytes() == np.sum(row, axis=1).tobytes()
