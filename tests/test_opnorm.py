"""Operator discretization, norm estimation, BR scanning, product norms."""

import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bergman.domains as dom
from bergman import opnorm as on
from bergman import quadrature as quad
from bergman import reproduce
from bergman import transforms as tr
from bergman.errors import (InvalidResolution, NonFiniteValue, PointOutsideDomain,
                            UnsupportedKind)
from bergman.quadrature import QuadratureRule, RuleMeta, _kernel_rows
from test_batched import _br_scan_reference


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

    @pytest.mark.parametrize("kwargs", [dict(radial_n=3), dict(radial_n=True),
                                        dict(radial_n=20.0), dict(sector=-1), dict(sector=1.5),
                                        dict(sector=True)], ids=str)
    def test_radial_counts_must_be_integers(self, kwargs):
        # sector -1 and 1.5 gave norms near sector 0's, radial_n True one node and 8.50
        with pytest.raises(InvalidResolution):
            on.discretize_berezin_radial(**kwargs)
        if "radial_n" in kwargs:
            with pytest.raises(InvalidResolution):
                on.discretize_absolute_radial(**kwargs)

    def test_numpy_integer_counts_are_accepted(self):
        got = on.discretize_berezin_radial(np.int64(20), 30.0, sector=np.int32(1))
        want = on.discretize_berezin_radial(20, 30.0, sector=1)
        assert _bits(got.entries) == _bits(want.entries) and got.meta == want.meta

    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    def test_a_non_finite_entry_is_refused(self, monkeypatch, small_rule, bad):
        # the entries are nonnegative, so one bad entry reaches its row sum
        domain, nodes = dom.disc(), small_rule.nodes
        kernel_abs2 = type(domain).kernel_abs2

        def spoiled(self, a, b):  # the entry of row 3 and column 7 alone
            out = kernel_abs2(self, a, b)
            if not isinstance(a, np.ndarray):  # a rule's open mesh: one array per coordinate
                a = np.stack(np.broadcast_arrays(*a), -1)
            out[np.all(b == nodes[3], axis=-1) & np.all(a == nodes[7], axis=-1)] = bad
            return out
        monkeypatch.setattr(type(domain), "kernel_abs2", spoiled)
        for read in (lambda m: m.row_sums(), lambda m: on.estimate_norm(m, math.inf),
                     lambda m: m.entries):
            matrix = on.discretize_berezin(domain, small_rule, row_nodes=nodes[:5])
            with pytest.raises(ValueError, match="finite"):
                read(matrix)

    def test_single_node_degenerate_rule(self):
        # a rule of one node is refused; the degenerate rule of the origin twice, of total
        # weight pi, still discretizes B1 = 1 there
        meta = RuleMeta("disc", 1, 4, 4, 1.0, 1.0, (1,))
        with pytest.raises(InvalidResolution, match="two or more nodes"):
            QuadratureRule(np.zeros((1, 1), dtype=complex), np.array([math.pi]), meta)
        rule = QuadratureRule(np.zeros((2, 1), dtype=complex), np.full(2, math.pi / 2), meta)
        m = on.discretize_berezin(dom.disc(), rule)
        assert m.entries == pytest.approx(np.full((2, 2), 1 / math.pi))
        assert m.apply(np.ones(2)) == pytest.approx(np.ones(2))

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

    @pytest.mark.parametrize("domain,grid,cuts,order", [
        (dom.disc(), reproduce.ROWS_GRID, (0.0, reproduce.ROW_CUT), 1),
        (dom.disc(), (16, 96), (0.0, reproduce.ROW_CUT), 1),
        (dom.disc(), (12, 45), (0.0, 0.8), 1),
        (dom.disc(), (16, 96), (0.3, 0.7), 1),
        (dom.punctured_disc(), (12, 48), (0.0, reproduce.ROW_CUT), 1),
        (dom.disc(), (16, 96), (0.0, reproduce.ROW_CUT), -1),
    ], ids=["rows-grid", "16x96", "odd-angular", "two-cuts", "punctured", "out-of-order"])
    def test_agrees_with_the_pointwise_pass(self, b1_points, domain, grid, cuts, order):
        # the rows are whole rings of the rule, in rule order or (order -1) in reverse:
        # B1 is invariant on any whole orbit of the rule's rotations
        rule = quad.build_rule(dom.disc(), *grid)
        radius = np.abs(rule.nodes[:, 0])
        width = rule.meta.shape[1]
        rows = rule.nodes[(cuts[0] < radius) & (radius <= cuts[1])]
        rows = rows.reshape(-1, width, 1)[::order].reshape(-1, 1)
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

    @pytest.mark.parametrize("case", ["random", "partial-ring", "patch", "wrong-meta",
                                      "non-rotated", "uneven-weights", "polydisc1"])
    def test_other_rows_and_rules_run_pointwise(self, b1_points, small_rule, case):
        domain, rule, width = dom.disc(), small_rule, small_rule.meta.shape[1]
        rings = small_rule.nodes[:2 * width]
        rows = {"random": np.array(dom.sample_interior(domain, 2 * width, seed=8)),
                "partial-ring": small_rule.nodes[:5]}.get(case, rings)
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
        assert _bits(sums) == _bits(tr._per_diag(domain, rows, rule, tr._unit).real)

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

    @pytest.mark.parametrize("domain", [dom.ball(1), dom.ball(3), dom.polydisc(1),
                                        dom.polydisc(3)], ids=str)
    def test_pair_scan_outside_c2_is_unsupported(self, domain):
        # the ball and polydisc scan grids are pairs of coordinates: no shape error, no scan
        with pytest.raises(UnsupportedKind, match=re.escape(str(domain))):
            on.br_scan(domain)
        with pytest.raises(UnsupportedKind):
            domain.scan_turns(0)

    def test_supremum_dominates_sampled_ratios(self):
        rep = on.br_scan(dom.disc())
        rng = np.random.default_rng(2)
        for _ in range(50):
            z = 0.97 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            w = 0.97 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            assert dom.kernel_ratio(dom.disc(), z, w) <= rep.supremum + 1e-9


@pytest.fixture
def scan_rows(monkeypatch):
    """The (rows, columns) of each ratio array that ``br_scan`` fills."""
    shapes = []
    kernel_rows = on._kernel_rows

    def spy(pair, Z, W, scale):
        shapes.append((len(Z), len(W)))
        return kernel_rows(pair, Z, W, scale)
    monkeypatch.setattr(on, "_kernel_rows", spy)
    return shapes


class TestOrbitScan:
    """br_scan evaluates the first point of each phase orbit of its grids against the grid."""

    @pytest.mark.parametrize("name", ["disc", "punctured-disc", "ball2", "bidisc", "hartogs",
                                      "halfplane"])
    def test_the_full_loop_sees_the_same_extrema(self, name):
        domain = dom.domain_by_name(name)
        rep = on.br_scan(domain)
        sup, arg, inf_seen = _br_scan_reference(domain, [domain.scan_grid(lv) for lv in (0, 1)])
        assert rep.argmax == arg
        if name in ("disc", "punctured-disc"):
            # the loop's level-1 maximum lies on a turned row, whose points are rounded
            assert abs(rep.supremum - sup) <= 1e-13 * sup
            assert abs(rep.resolution["infimum"] - inf_seen) <= 1e-10 * inf_seen
        else:
            assert rep.supremum == sup and rep.resolution["infimum"] == inf_seen

    @pytest.mark.parametrize("name, orbit", [
        ("disc", [4, 8]), ("punctured-disc", [4, 8]), ("ball2", [4, 16]), ("bidisc", [4, 16]),
        ("hartogs", [2, 4]), ("halfplane", [1, 1])])
    def test_one_row_per_orbit(self, scan_rows, name, orbit):
        # 64 + 64 rows on ball2 and the bidisc, against the 256 and 1024 points of the grids;
        # the half plane has no turns and forms the full arrays
        domain = dom.domain_by_name(name)
        rep = on.br_scan(domain)
        sizes = [len(domain.scan_grid(level)) for level in (0, 1)]
        assert scan_rows == [(m // w, m) for m, w in zip(sizes, orbit)]
        assert rep.resolution["orbit"] == orbit
        assert rep.resolution["pairs"] == [m * m // w for m, w in zip(sizes, orbit)]

    @pytest.mark.parametrize("name", ["disc", "bidisc", "hartogs"])
    def test_a_node_off_its_orbit_by_one_ulp_takes_the_full_array(self, monkeypatch,
                                                                   scan_rows, name):
        domain = dom.domain_by_name(name)
        grids = [domain.scan_grid(level) for level in (0, 1)]
        for level, Z in enumerate(grids):
            i = len(domain.scan_turns(level)) + 1  # the second point of the second orbit
            Z[i, 0] = complex(np.nextafter(Z[i, 0].real, 0.0), Z[i, 0].imag)
        monkeypatch.setattr(type(domain), "scan_grid", lambda self, level: grids[level])
        rep = on.br_scan(domain)
        assert scan_rows == [(len(Z), len(Z)) for Z in grids]
        assert rep.resolution["orbit"] == [1, 1]
        sup, arg, inf_seen = _br_scan_reference(domain, grids)
        assert rep.supremum == sup and rep.argmax == arg
        assert rep.resolution["infimum"] == inf_seen

    @pytest.mark.parametrize("name", ["disc", "ball2", "bidisc"])
    @given(radii=st.lists(st.floats(0.0, 0.7), min_size=1, max_size=4),
           counts=st.tuples(st.integers(1, 7), st.integers(1, 7)))
    @settings(max_examples=25, deadline=None)
    def test_random_orbits_keep_the_full_supremum(self, name, radii, counts):
        domain = dom.domain_by_name(name)
        roots = [np.exp(2j * np.pi * np.arange(n) / n) for n in counts[:domain.dim]]
        r = np.array(radii)
        reps = r[:, None] if domain.dim == 1 else dom._pairs(r, r)
        turns = roots[0][:, None] if domain.dim == 1 else dom._pairs(*roots)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(type(domain), "_scan_reps", lambda self, level: reps)
            mp.setattr(type(domain), "scan_turns", lambda self, level: turns)
            rep = on.br_scan(domain)
            Z = domain.scan_grid(0)
            full = float(np.max(_kernel_rows(tr._modulus(domain), Z, Z, domain.positive_diag(Z))))
        assert rep.resolution["orbit"] == [len(turns)] * 2
        assert abs(rep.supremum - full) <= 1e-13 * full


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

    @pytest.mark.parametrize("stalled", ["bidisc", "disc"])
    def test_check_11_fails_on_an_unconverged_estimate(self, monkeypatch, stalled):
        # rel <= 0.05 alone would pass a value read off an iteration that never settled
        product_estimates = on._product_estimates

        def unconverged(p):
            ests = dict(zip(("bidisc", "disc"), product_estimates(p)))
            est = ests[stalled]
            ests[stalled] = dataclasses.replace(
                est, resolution={**est.resolution, "converged": False})
            return ests["bidisc"], ests["disc"]
        healthy = reproduce.check_11_product_norm()
        monkeypatch.setattr(on, "_product_estimates", unconverged)
        result = reproduce.check_11_product_norm()
        assert healthy.passed and healthy.measured["converged"] == {"bidisc": True, "disc": True}
        assert result.measured["rel"] == healthy.measured["rel"] <= 0.05
        assert not result.passed and result.measured["converged"][stalled] is False


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

    def test_p2_records_its_iterations(self, monkeypatch, factor):
        # the record counts the work: each pass makes the 4 products of X -> P1 X P2 and
        # G1 X G2, each of the `squarings` the 2 of Pi -> Pi^2, and the estimate is the plain
        # iteration's sigma at the `iterations` = 2^(squarings + 1) steps they stand for
        calls, products = [], []

        class Counted(np.ndarray):
            def __matmul__(self, other):
                products.append(1)
                return np.ndarray.__matmul__(self, other)

        def counting(G1, G2, start, **kwargs):
            calls.append((G1, G2, start))
            return gram_power_sigma(G1.view(Counted), G2.view(Counted), start, **kwargs)
        gram_power_sigma = on._gram_power_sigma
        monkeypatch.setattr(on, "_gram_power_sigma", counting)
        est = on.estimate_norm((factor, factor), 2.0)
        res = est.resolution
        assert res["converged"] and res["squarings"] > 0
        assert len(products) == 4 * (res["squarings"] + 1) + 2 * res["squarings"]
        assert res["iterations"] == 2 ** (res["squarings"] + 1)
        want = _plain_power_sigmas(*calls[0], res["iterations"])[-1]
        assert abs(est.value - want) <= 1e-11 * want

    def test_factors_need_not_agree(self, factor):
        other = on.discretize_absolute_radial(radial_n=12, depth=20.0)
        got = on.estimate_norm((factor, other), 2.0).value
        want = on.estimate_norm(factor, 2.0).value * on.estimate_norm(other, 2.0).value
        assert abs(got - want) <= 1e-9 * want

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_first_iterate_is_not_of_rank_one(self, monkeypatch, p):
        # X -> G1 X G2, X -> M1 X M2^T and the duality map keep a rank-one array of rank one,
        # so an outer-product start would give the product of the factor iterations; at p = 2
        # the first iterate G1 X G2 is formed here from the arguments of the squared iteration
        iterates = []

        def spy_gram(G1, G2, start, **kwargs):
            iterates.append(G1 @ start @ G2)
            return gram_power_sigma(G1, G2, start, **kwargs)

        def spy_dual(act, *args, **kwargs):
            def recorded(X):
                iterates.append(act(X))
                return iterates[-1]
            return dual_ascent(recorded, *args, **kwargs)
        gram_power_sigma, dual_ascent = on._gram_power_sigma, on._dual_ascent_pnorm
        monkeypatch.setattr(on, "_gram_power_sigma", spy_gram)
        monkeypatch.setattr(on, "_dual_ascent_pnorm", spy_dual)
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


def _plain_power_sigmas(G1, G2, start, steps):
    """sigma after each of ``steps`` plain power steps X -> G1 X G2 from ``start``: the
    iteration that ``_gram_power_sigma`` takes in steps of 2^k."""
    X, sigmas = start / np.linalg.norm(start), []
    for _ in range(steps):
        Y = G1 @ X @ G2
        nrm = float(np.linalg.norm(Y))
        sigmas.append(math.sqrt(nrm))
        X = Y / nrm
    return sigmas


def _random_factor(rng, n, zero_share=0.0, low=0.0):
    """A square OperatorMatrix of n nodes with entries in [low, low + 1), a share of them
    exactly 0."""
    entries = (low + rng.random((n, n))) * (rng.random((n, n)) >= zero_share)
    nodes = np.zeros((n, 1), dtype=complex)
    return on.OperatorMatrix(entries, nodes, nodes, rng.uniform(0.1, 1.0, n))


class TestNormEngineProperties:
    @given(seed=st.integers(0, 2 ** 32 - 1), n1=st.integers(2, 12), n2=st.integers(2, 12))
    @settings(max_examples=40, deadline=None)
    def test_squared_iteration_matches_the_plain_power_iteration(self, seed, n1, n2):
        rng = np.random.default_rng(seed)
        # entries in [0.5, 1.5) keep the Perron gap wide, so both iterations settle
        A1, A2 = _random_factor(rng, n1, low=0.5), _random_factor(rng, n2 + (n2 >= n1), low=0.5)
        est = on.estimate_norm((A1, A2), 2.0)
        M1, M2 = on._scaled(A1, 2.0), on._scaled(A2, 2.0)
        start = rng.random((n1, len(A2.col_weights))) + 0.5
        sigmas = _plain_power_sigmas(M1.T @ M1, M2.T @ M2, start, 200)
        assert est.resolution["converged"]
        assert abs(est.value - sigmas[-1]) <= 1e-11 * sigmas[-1]

    @given(seed=st.integers(0, 2 ** 32 - 1), n1=st.integers(1, 10), n2=st.integers(1, 10),
           zero_share=st.sampled_from([0.0, 0.3, 0.7]), p=st.sampled_from([1.5, 3.0, 4.0]))
    @settings(max_examples=60, deadline=None)
    def test_nonnegative_dual_ascent_is_the_general_path_bit_for_bit(self, seed, n1, n2,
                                                                    zero_share, p):
        rng = np.random.default_rng(seed)
        M1 = _random_factor(rng, n1, zero_share).entries
        M2 = _random_factor(rng, n2, zero_share).entries
        cases = [(lambda x: M1 @ x, lambda x: M1.T @ x, rng.uniform(0.1, 1.0, n1)),
                 (lambda X: M1 @ X @ M2.T, lambda X: M1.T @ X @ M2,
                  rng.uniform(0.1, 1.0, (n1, n2)))]
        for apply, apply_t, x0 in cases:
            general = on._dual_ascent_pnorm(apply, apply_t, p, x0.copy(), False)
            signless = on._dual_ascent_pnorm(apply, apply_t, p, x0.copy(), True)
            assert _bits(np.array([general[0]])) == _bits(np.array([signless[0]]))
            assert general[1:] == signless[1:]

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 8), p=st.sampled_from([1.5, 3.0]),
           kronecker=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_one_negative_entry_takes_the_general_path(self, seed, n, p, kronecker):
        rng = np.random.default_rng(seed)
        paths = []

        def spy(apply, apply_t, p, x0, nonnegative=False, **kwargs):
            paths.append(nonnegative)
            return dual_ascent(apply, apply_t, p, x0, nonnegative, **kwargs)
        dual_ascent = on._dual_ascent_pnorm
        A = _random_factor(rng, n)
        B = _random_factor(rng, n)
        B.entries[divmod(int(rng.integers(n * n)), n)] = -0.25
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(on, "_dual_ascent_pnorm", spy)
            for matrix, nonnegative in ((A, True), (B, False)):
                on.estimate_norm((A, matrix) if kronecker else matrix, p)
                assert paths.pop() is nonnegative
