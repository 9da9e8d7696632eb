"""Operator discretization, norm estimation, BR scanning, product norms."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bergman.domains as dom
from bergman import opnorm as on
from bergman import quadrature as quad
from bergman import reproduce
from bergman import transforms as tr
from bergman.errors import InvalidResolution, NonFiniteValue, PointOutsideDomain
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

    def test_p_infinity_forms_no_matrix(self):
        # formed, the 4032 x 5376 rows operator takes 173 MB; its row sums take one
        # blocked buffer of the B1 pass
        rule = quad.build_rule(dom.disc(), *reproduce.ROWS_GRID)
        rows = reproduce.row_nodes(rule)
        tracemalloc.start()
        try:
            est = on.estimate_norm(on.discretize_berezin(dom.disc(), rule, row_nodes=rows),
                                   math.inf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32e6
        assert est.value == pytest.approx(1.0, abs=1e-6)

    def test_row_sums_gather_no_chunk_buffer(self):
        # the 5376 nodes are one chunk, reduced from the kernel block that spans it: a
        # (points x chunk) gather buffer would take 16 blocks, 16.8 MB at 2^21 entries
        rule = quad.build_rule(dom.disc(), *reproduce.ROWS_GRID)
        matrix = on.discretize_berezin(dom.disc(), rule, row_nodes=reproduce.row_nodes(rule))
        tracemalloc.start()
        try:
            sums = matrix.row_sums()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6e6
        assert np.max(np.abs(sums - 1.0)) <= 1e-6

    @pytest.mark.parametrize("depth", [-5.0, 0.0, math.nan, math.inf])
    @pytest.mark.parametrize("build", [on.discretize_berezin_radial, on.discretize_absolute_radial])
    def test_radial_depth_must_be_finite_and_positive(self, build, depth):
        # a negative depth puts nodes at negative |z|^2, read as NaN radii
        with pytest.raises(InvalidResolution):
            build(radial_n=20, depth=depth)

    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    def test_a_non_finite_entry_is_refused(self, monkeypatch, small_rule, bad):
        # the entries are nonnegative, so one bad entry reaches its row sum
        domain, nodes = dom.disc(), small_rule.nodes
        kernel_abs2 = type(domain).kernel_abs2

        def spoiled(self, a, b):  # the entry of row 3 and column 7 alone
            out = kernel_abs2(self, a, b)
            out[np.all(b == nodes[3], axis=-1) & np.all(a == nodes[7], axis=-1)] = bad
            return out
        monkeypatch.setattr(type(domain), "kernel_abs2", spoiled)
        for read in (lambda m: m.row_sums(), lambda m: on.estimate_norm(m, math.inf),
                     lambda m: m.entries):
            matrix = on.discretize_berezin(domain, small_rule, row_nodes=nodes[:5])
            with pytest.raises(ValueError, match="finite"):
                read(matrix)

    def test_single_node_degenerate_rule(self):
        meta = RuleMeta("disc", 1, 4, 4, 1.0, 1.0, (1,))
        rule = QuadratureRule(np.zeros((1, 1), dtype=complex),
                              np.array([math.pi]), meta)
        m = on.discretize_berezin(dom.disc(), rule)
        assert m.entries[0, 0] == pytest.approx(1 / math.pi)
        assert m.apply(np.ones(1))[0] == pytest.approx(1.0)

    def test_rows_outside_are_refused(self, small_rule):
        rows = np.array([[0.2 + 0j], [1.5 + 0j]])
        with pytest.raises(PointOutsideDomain):
            on.discretize_berezin(dom.disc(), small_rule, row_nodes=rows)

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


@pytest.fixture
def b1_points(monkeypatch):
    """The point count of each B1 pass that ``discretize_berezin`` row sums run."""
    counts = []
    per_diag = on._per_diag

    def spy(domain, Z, rule, coef):
        counts.append(len(Z))
        return per_diag(domain, Z, rule, coef)
    monkeypatch.setattr(on, "_per_diag", spy)
    return counts


def _bits(values):
    return np.asarray(values).tobytes()


class TestRingRowSums:
    """Row sums once per rotation ring where the rows are whole rings of a polar disc rule."""

    @pytest.mark.parametrize("domain,grid,cuts", [
        (dom.disc(), reproduce.ROWS_GRID, (0.0, reproduce.ROW_CUT)),
        (dom.disc(), (16, 96), (0.0, reproduce.ROW_CUT)),
        (dom.disc(), (12, 45), (0.0, 0.8)),
        (dom.disc(), (16, 96), (0.3, 0.7)),
        (dom.punctured_disc(), (12, 48), (0.0, reproduce.ROW_CUT)),
    ], ids=["rows-grid", "16x96", "odd-angular", "two-cuts", "punctured"])
    def test_agrees_with_the_pointwise_pass(self, b1_points, domain, grid, cuts):
        rule = quad.build_rule(dom.disc(), *grid)
        radius = np.abs(rule.nodes[:, 0])
        rows = rule.nodes[(cuts[0] < radius) & (radius <= cuts[1])]
        width = rule.meta.shape[1]
        matrix = on.discretize_berezin(domain, rule, row_nodes=rows)
        sums = matrix.row_sums()
        pointwise = tr.unit_mass(domain, rows, rule)
        assert matrix.meta["rings"] == len(rows) // width and len(rows) % width == 0
        assert b1_points == [len(rows) // width]
        assert np.all(np.abs(sums - pointwise) <= 1e-13 * pointwise)
        # the pass is block-size independent: at each ring's first row it is unit_mass's value
        assert _bits(sums[::width]) == _bits(pointwise[::width])

    def test_check_rows_are_36_rings(self):
        rule = reproduce.rule_disc_rows()
        matrix = on.discretize_berezin(dom.disc(), rule, row_nodes=reproduce.row_nodes(rule))
        assert (matrix.meta["rings"], matrix.meta["rows"]) == (36, 4032)

    @pytest.mark.parametrize("case", ["random", "partial-ring", "out-of-order", "patch",
                                      "wrong-meta", "non-rotated", "uneven-weights", "polydisc1"])
    def test_other_rows_and_rules_run_pointwise(self, b1_points, small_rule, case):
        domain, rule, width = dom.disc(), small_rule, small_rule.meta.shape[1]
        rings = small_rule.nodes[:2 * width]
        rows = {"random": np.array(dom.sample_interior(domain, 2 * width, seed=8)),
                "partial-ring": small_rule.nodes[:5],
                "out-of-order": np.concatenate([rings[width:], rings[:width]])}.get(case, rings)
        if case == "patch":
            rule = quad.disc_patch_rule(0.2 + 0.1j, 0.3, 8, 12)
            rows = rule.nodes[:24]
        elif case == "wrong-meta":
            R, A = small_rule.meta.shape
            meta = RuleMeta("disc", 1, 12, A // 2, 2.0, 2.0, (2 * R, A // 2))
            rule = QuadratureRule(small_rule.nodes, small_rule.weights, meta)
        elif case == "non-rotated":
            nodes = small_rule.nodes.copy()
            nodes[5, 0] *= np.exp(1e-9j)  # one node off its ring's rotation orbit
            rule, rows = QuadratureRule(nodes, small_rule.weights, small_rule.meta), nodes[:2 * width]
        elif case == "uneven-weights":
            weights = small_rule.weights.copy()
            weights[7] *= 1.0 + 2.0 ** -50
            rule = QuadratureRule(small_rule.nodes, weights, small_rule.meta)
        elif case == "polydisc1":
            domain = dom.polydisc(1)
            rule = quad.build_rule(domain, 12, 48)
        matrix = on.discretize_berezin(domain, rule, row_nodes=rows)
        sums = matrix.row_sums()
        assert matrix.meta["rings"] is None
        assert b1_points == [len(rows)]
        assert _bits(sums) == _bits(tr.unit_mass(domain, rows, rule))

    @pytest.mark.parametrize("domain,grid", [(dom.ball(2), (4, 8)), (dom.polydisc(2), (4, 8)),
                                             (dom.hartogs_triangle(), (4, 8))],
                             ids=["ball2", "bidisc", "hartogs"])
    def test_other_kinds_run_pointwise(self, b1_points, domain, grid):
        rule = quad.build_rule(domain, *grid)
        rows = rule.nodes[:2 * grid[1]]
        matrix = on.discretize_berezin(domain, rule, row_nodes=rows)
        sums = matrix.row_sums()
        assert matrix.meta["rings"] is None and b1_points == [len(rows)]
        assert _bits(sums) == _bits(tr._per_diag(domain, rows, rule, rule.weights).real)

    @given(grid=st.sampled_from([(8, 7), (12, 45), (16, 96), reproduce.ROWS_GRID]),
           ring=st.integers(0, 10**6), k=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_b1_is_one_value_on_each_ring(self, grid, ring, k):
        # the invariance the reduction rests on, where the rule resolves B1 (|z| <= ROW_CUT)
        rule = quad.build_rule(dom.disc(), *grid)
        rings = reproduce.row_nodes(rule).reshape(-1, grid[1])
        first, rotated = rings[ring % len(rings), 0], rings[ring % len(rings), k % grid[1]]
        b1 = tr.unit_mass(dom.disc(), np.array([[first], [rotated]]), rule)
        assert abs(b1[1] - b1[0]) <= 1e-14 * b1[0]


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
        wit = on.witness_lower_bound(radial_matrix, 3.0)
        assert wit.value <= est.value + 1e-6

    def test_witness_p_infinity_constant(self, small_matrix):
        # only the bounded witnesses are in L^infinity, and the constant wins among them
        wit = on.witness_lower_bound(small_matrix, math.inf)
        assert wit.value == pytest.approx(1.0, abs=1e-6)
        assert (wit.resolution["witness"], wit.resolution["family_size"]) == ((0.0, 0.0), 3)

    def test_witness_p2_soundness_and_strength(self, radial_matrix):
        wit = on.witness_lower_bound(radial_matrix, 2.0)
        sigma = on.estimate_norm(radial_matrix, 2.0).value
        assert wit.value <= sigma + 1e-6
        assert wit.value >= 2.2

    def test_witness_family_screening(self, radial_matrix):
        # (1 - |z|^2)^b is in L^p for b > -1/p and bounded for b >= 0; the constant passes at every p
        for p, size in [(1.1, 36), (2.0, 36), (3.0, 21), (8.0, 6), (math.inf, 3)]:
            assert on.witness_lower_bound(radial_matrix, p).resolution["family_size"] == size

    def test_witness_refuses_nodes_outside_the_disc(self):
        # a quarter of these nodes have |w1|^2 + |w2|^2 > 1, where (1 - u)^b is NaN
        domain = dom.hartogs_triangle()
        matrix = on.discretize_berezin(domain, quad.build_rule(domain, 4, 6))
        with pytest.raises(NonFiniteValue), np.errstate(invalid="ignore"):
            on.witness_lower_bound(matrix, 3.0)

    @pytest.mark.parametrize("p", [1.1, 1.5, 3.0, 4.0, 8.0])
    def test_dual_ascent_is_never_below_the_witness(self, radial_matrix, p):
        # why estimate_norm runs no witness sweep of its own on the radial disc matrices
        for matrix in (radial_matrix, on.discretize_absolute_radial(120, 30.0)):
            est = on.estimate_norm(matrix, p)
            assert est.method == "p-power-iteration"
            assert est.value >= on.witness_lower_bound(matrix, p).value


class TestJsonInterfaces:
    def test_norm_estimate_round_trip(self, radial_matrix):
        est = on.estimate_norm(radial_matrix, 2.0)
        text = est.to_json()
        payload = json.loads(text)
        assert set(payload) == {"value", "p", "method", "bound_kind", "resolution"}
        assert payload["value"] == est.value and payload["p"] == est.p

    def test_norm_estimate_infinity_p(self, small_matrix):
        est = on.estimate_norm(small_matrix, math.inf)
        assert json.loads(est.to_json())["p"] == "inf"

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

    @pytest.mark.parametrize("name", ["disc", "punctured-disc", "ball2", "bidisc", "hartogs",
                                      "halfplane"])
    @given(seed=st.integers(0, 2 ** 32 - 1),
           moves=st.tuples(*[st.floats(-math.pi, math.pi)] * 2))
    @settings(max_examples=40, deadline=None)
    def test_scan_ratio_invariance(self, name, seed, moves):
        # phase rotations per coordinate, and real translations on the half plane
        domain = dom.domain_by_name(name)
        Z = np.array(dom.sample_interior(domain, 2, seed=seed))
        if domain.kind == "half-plane":
            moved = Z + 2.0 * moves[0]
        else:
            moved = Z * np.exp(1j * np.array(moves[:domain.dim]))

        def ratio(P):
            return np.sqrt(domain.kernel_abs2(P[1], P[0])) / domain.diag(P[0])
        assert abs(ratio(moved) - ratio(Z)) <= 1e-13 * ratio(Z)

    def test_supremum_dominates_sampled_ratios(self):
        rep = on.br_scan(dom.disc())
        rng = np.random.default_rng(2)
        for _ in range(50):
            z = 0.97 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            w = 0.97 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            assert dom.kernel_ratio(dom.disc(), z, w) <= rep.supremum + 1e-9


class TestProductNorms:
    def test_p2_agreement(self):
        big, small_sq = on.product_norm_check(2.0)
        assert abs(big - small_sq) / small_sq <= 0.05

    def test_p4_agreement(self):
        big, small_sq = on.product_norm_check(4.0)
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

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_first_iterate_is_not_of_rank_one(self, monkeypatch, p):
        # X -> G1 X G2, X -> M1 X M2^T and the duality map keep a rank-one array of rank one,
        # so an outer-product start would give the product of the factor iterations
        iterates = []

        def spy(run):
            def wrapped(act, *args, **kwargs):
                def recorded(X):
                    iterates.append(act(X))
                    return iterates[-1]
                return run(recorded, *args, **kwargs)
            return wrapped
        monkeypatch.setattr(on, "_power_sigma", spy(on._power_sigma))
        monkeypatch.setattr(on, "_dual_ascent_pnorm", spy(on._dual_ascent_pnorm))
        factor = on.discretize_absolute_radial()
        est = on.estimate_norm((factor, factor), p)
        assert np.linalg.matrix_rank(iterates[0]) > 1
        assert est.resolution["start"] == {"seed": 11, "noise": 0.1}

    def test_refuses_p_infinity(self, factor):
        with pytest.raises(ValueError):
            on.estimate_norm((factor, factor), math.inf)

    def test_refuses_non_square_factors(self, factor, small_matrix):
        with pytest.raises(ValueError):
            on.estimate_norm((factor, small_matrix), 2.0)
