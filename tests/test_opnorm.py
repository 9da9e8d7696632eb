"""Operator discretization, norm estimation, BR scanning, product norms."""

import json
import math

import numpy as np
import pytest

import bergman.domains as dom
from bergman import opnorm as on
from bergman import quadrature as quad
from bergman import transforms as tr
from bergman.errors import EmptyFamily, NonFiniteValue
from bergman.quadrature import QuadratureRule, RuleMeta


@pytest.fixture(scope="module")
def small_rule():
    return quad.build_rule(dom.disc(), 12, 48)


@pytest.fixture(scope="module")
def small_matrix(small_rule):
    keep = np.abs(small_rule.nodes[:, 0]) <= 0.7
    return on.discretize_berezin(dom.disc(), small_rule, row_nodes=small_rule.nodes[keep])


@pytest.fixture(scope="module")
def radial_matrix():
    return on.discretize_berezin_radial(radial_n=160, depth=32.0)


class TestDiscretization:
    def test_row_sums_near_one(self, small_matrix):
        rows = small_matrix.row_sums()
        assert np.max(np.abs(rows - 1.0)) <= 1e-6

    def test_single_node_degenerate_rule(self):
        meta = RuleMeta("disc", 1, 4, 4, 1.0, 1.0, (1,))
        rule = QuadratureRule(np.zeros((1, 1), dtype=complex),
                              np.array([math.pi]), meta)
        m = on.discretize_berezin(dom.disc(), rule)
        assert m.entries[0, 0] == pytest.approx(1 / math.pi)
        assert m.apply(np.ones(1))[0] == pytest.approx(1.0)

    def test_reproduces_berezin_on_grid_functions(self, small_rule):
        m = on.discretize_berezin(dom.disc(), small_rule)
        rng = np.random.default_rng(4)
        phi = rng.random(len(small_rule))
        applied = m.apply(phi)
        for i in (0, len(small_rule) // 3, len(small_rule) - 1):
            direct = tr.berezin(dom.disc(), phi, tuple(small_rule.nodes[i]), small_rule)
            assert abs(applied[i] - direct) <= 1e-10 * max(1.0, abs(direct))

    def test_radial_matrix_rows(self, radial_matrix):
        # rows deeper than ~1e-7 would need u-nodes beyond the grid's own
        # reach (depth e^-32), so the row-sum identity is asserted above that
        u = np.real(radial_matrix.col_nodes[:, 0]) ** 2
        rows = radial_matrix.row_sums()
        interior = (1.0 - u) > 1e-7
        assert np.max(np.abs(rows[interior] - 1.0)) <= 1e-6

    def test_nonnegative_entries(self, small_matrix, radial_matrix):
        assert np.all(small_matrix.entries >= 0)
        assert np.all(radial_matrix.entries >= 0)

    def test_hartogs_blowup_rows_reproduce_transform(self):
        from bergman import hartogs as ht

        domain = dom.hartogs_triangle()
        rule = quad.build_rule(domain, 10, 16)
        rows = dom.sample_interior(domain, 10, seed=31)
        m = on.discretize_berezin(domain, rule, row_nodes=np.asarray(rows, dtype=complex))
        fvals = ht.blowup_symbol_values(0.4, rule.nodes)
        applied = m.apply(fvals)
        for i, z in enumerate(rows):
            direct = tr.berezin(domain, lambda w: ht.blowup_symbol_values(0.4, w), z, rule)
            assert abs(applied[i] - direct) <= 1e-8 * max(1.0, abs(direct))


class TestEstimateNorm:
    def test_p2_disc_value(self, radial_matrix):
        est = on.estimate_norm(radial_matrix, 2.0)
        assert est.method == "weighted-svd"
        assert est.bound_kind == "approximate"
        assert abs(est.value - 3 * math.pi / 4) <= 0.05 * 3 * math.pi / 4

    def test_p2_invariant_under_reordering(self, radial_matrix):
        rng = np.random.default_rng(9)
        perm = rng.permutation(radial_matrix.entries.shape[0])
        shuffled = on.OperatorMatrix(
            radial_matrix.entries[np.ix_(perm, perm)],
            radial_matrix.row_nodes[perm], radial_matrix.col_nodes[perm],
            radial_matrix.col_weights[perm], dict(radial_matrix.meta))
        a = on.estimate_norm(radial_matrix, 2.0).value
        b = on.estimate_norm(shuffled, 2.0).value
        assert abs(a - b) <= 1e-10 * a

    def test_p2_stable_under_refinement(self):
        a = on.estimate_norm(on.discretize_berezin_radial(140, 32.0), 2.0).value
        b = on.estimate_norm(on.discretize_berezin_radial(280, 32.0), 2.0).value
        assert abs(a - b) / a < 0.01

    def test_p_infinity_row_sum(self, small_matrix):
        est = on.estimate_norm(small_matrix, math.inf)
        assert est.value == pytest.approx(1.0, abs=1e-6)

    def test_p_infinity_is_exact_max_row_sum(self, small_matrix):
        est = on.estimate_norm(small_matrix, math.inf)
        assert est.value == float(np.max(small_matrix.row_sums()))
        assert (est.method, est.bound_kind) == ("max-row-sum", "exact")

    def test_sector_norms_decrease(self):
        sigmas = [on.estimate_norm(on.discretize_berezin_radial(120, 30.0, sector=q), 2.0).value
                  for q in range(4)]
        assert all(a >= b - 1e-12 for a, b in zip(sigmas, sigmas[1:]))

    def test_p3_lower_bound_and_tags(self, radial_matrix):
        est = on.estimate_norm(radial_matrix, 3.0)
        assert est.bound_kind == "lower"
        target = 4 * math.pi / (9 * math.sin(math.pi / 3))
        assert 0.8 * target <= est.value <= 1.01 * target
        wit = on.witness_lower_bound(dom.disc(), 3.0, matrix=radial_matrix)
        assert wit.value <= est.value + 1e-6

    def test_witness_p_infinity_constant(self, small_matrix):
        wit = on.witness_lower_bound(dom.disc(), math.inf, family=[(0.0, 0.0)],
                                     matrix=small_matrix)
        assert wit.value == pytest.approx(1.0, abs=1e-6)

    def test_witness_p2_soundness_and_strength(self, radial_matrix):
        wit = on.witness_lower_bound(dom.disc(), 2.0, matrix=radial_matrix)
        sigma = on.estimate_norm(radial_matrix, 2.0).value
        assert wit.value <= sigma + 1e-6
        assert wit.value >= 2.2

    def test_witness_family_screening(self, radial_matrix):
        with pytest.raises(EmptyFamily):
            on.witness_lower_bound(dom.disc(), 2.0, family=[(0.0, -0.8)],
                                   matrix=radial_matrix)

    def test_finite_p_on_hartogs_skips_the_disc_witness(self):
        # a quarter of these nodes have |w1|^2 + |w2|^2 > 1, where (1 - u)^b is NaN
        domain = dom.hartogs_triangle()
        matrix = on.discretize_berezin(domain, quad.build_rule(domain, 4, 6))
        est = on.estimate_norm(matrix, 3.0)
        assert est.method == "p-power-iteration" and "witness" not in est.resolution
        assert math.isfinite(est.value)
        with pytest.raises(NonFiniteValue), np.errstate(invalid="ignore"):
            on.witness_lower_bound(domain, 3.0, matrix=matrix)

    def test_trivial_witness_constant(self, radial_matrix):
        # the constant function alone certifies norm >= 1 - quadrature slack
        wit = on.witness_lower_bound(dom.disc(), 2.0, family=[(0.0, 0.0)],
                                     matrix=radial_matrix)
        assert wit.value == pytest.approx(1.0, abs=1e-4)


class TestJsonInterfaces:
    def test_norm_estimate_round_trip(self, radial_matrix):
        est = on.estimate_norm(radial_matrix, 2.0)
        text = est.to_json()
        payload = json.loads(text)
        assert set(payload) == {"value", "p", "method", "bound_kind", "resolution"}
        back = on.NormEstimate.from_json(text)
        assert back.value == est.value and back.p == est.p

    def test_norm_estimate_infinity_p(self, small_matrix):
        est = on.estimate_norm(small_matrix, math.inf)
        back = on.NormEstimate.from_json(est.to_json())
        assert math.isinf(back.p)

    def test_br_report_keys(self):
        rep = on.br_scan(dom.disc())
        payload = json.loads(rep.to_json())
        assert set(payload) == {"supremum", "argmax", "divergent", "resolution"}


class TestBRScan:
    def test_disc(self):
        rep = on.br_scan(dom.disc())
        assert not rep.divergent
        assert 3.92 <= rep.supremum <= 4.0

    def test_hartogs_divergent(self):
        rep = on.br_scan(dom.hartogs_triangle())
        assert rep.divergent
        assert rep.supremum >= 1e3

    @pytest.mark.parametrize("domain", [dom.ball(2), dom.polydisc(2),
                                        dom.upper_half_plane()], ids=str)
    def test_bounded_ratio_domains(self, domain):
        rep = on.br_scan(domain)
        assert not rep.divergent

    def test_supremum_dominates_sampled_ratios(self):
        rep = on.br_scan(dom.disc())
        rng = np.random.default_rng(2)
        for _ in range(50):
            z = 0.97 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            w = 0.97 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            assert dom.kernel_ratio(dom.disc(), z, w) <= rep.supremum + 1e-9


class TestProductNorms:
    def test_p2_agreement(self):
        big, small_sq = on.product_norm_check(2.0, resolution=100)
        assert abs(big - small_sq) / small_sq <= 0.05

    def test_p4_agreement(self):
        big, small_sq = on.product_norm_check(4.0, resolution=80)
        assert abs(big - small_sq) / small_sq <= 0.08

    def test_p_validation(self):
        with pytest.raises(ValueError):
            on.product_norm_check(math.inf)


class TestKroneckerNorm:
    @pytest.fixture(scope="class")
    def factor(self):
        return on.discretize_absolute_radial(radial_n=20, depth=30.0)

    @pytest.fixture(scope="class")
    def dense(self, factor):
        # A kron A on the tensor grid: index i * n + j is the node pair (i, j)
        n = factor.col_nodes.shape[0]
        nodes = np.hstack([np.repeat(factor.col_nodes, n, axis=0),
                           np.tile(factor.col_nodes, (n, 1))])
        return on.OperatorMatrix(np.kron(factor.entries, factor.entries), nodes, nodes,
                                 np.kron(factor.col_weights, factor.col_weights))

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_matches_the_dense_kronecker_matrix(self, factor, dense, p):
        got = on.estimate_norm((factor, factor), p)
        want = on.estimate_norm(dense, p)
        assert abs(got.value - want.value) <= 1e-9 * want.value
        assert got.resolution["rows"] == got.resolution["cols"] == 400
        assert got.resolution["converged"]

    def test_factors_need_not_agree(self, factor):
        other = on.discretize_absolute_radial(radial_n=12, depth=20.0)
        got = on.estimate_norm((factor, other), 2.0).value
        want = on.estimate_norm(factor, 2.0).value * on.estimate_norm(other, 2.0).value
        assert abs(got - want) <= 1e-9 * want

    def test_refuses_p_infinity(self, factor):
        with pytest.raises(ValueError):
            on.estimate_norm((factor, factor), math.inf)

    def test_refuses_non_square_factors(self, factor, small_matrix):
        with pytest.raises(ValueError):
            on.estimate_norm((factor, small_matrix), 2.0)
