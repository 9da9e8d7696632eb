"""Operators over point arrays: the blocked pass against per-point references."""

import inspect
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import bergman.domains as dom
from bergman import opnorm as on
from bergman import quadrature as quad
from bergman import reproduce
from bergman import transforms as tr
from bergman.errors import InvalidResolution, NonFiniteValue, PointOutsideDomain

OPERATORS = ("berezin", "berezin_adjoint", "absolute_projection", "bergman_project")

DOMAINS = {
    "disc": (dom.disc(), (12, 48)),
    "punctured-disc": (dom.punctured_disc(), (12, 48)),
    "ball2": (dom.ball(2), (6, 12)),
    "bidisc": (dom.polydisc(2), (5, 12)),
    "hartogs": (dom.hartogs_triangle(), (5, 12)),
}


def _real_symbol(w):
    return np.abs(w if w.ndim == 1 else w[:, 0]) ** 2 + 0.5


def _complex_symbol(w):
    first = w if w.ndim == 1 else w[:, -1]
    return np.exp(1j * first.real) + first


def _reference(op, domain, phi, z, rule, total=quad.compensated_sum):
    """The per-point operator: its summands over the whole rule, then ``total`` of them.

    Each summand is the kernel form times the node coefficient, as in the blocked
    pass: |K|^2 comes from ``kernel_abs2`` and |K| is its root; P alone uses the
    complex kernel.  The Berezin sum is divided by K(z, z) after summing.
    """
    zp = dom.require_inside(domain, z)
    vals = quad.evaluate_on_rule(rule, phi)
    k2 = domain.kernel_abs2(rule.nodes, np.asarray(zp))
    w = rule.weights
    scale = 1.0
    if op == "berezin":
        terms, scale = k2 * (w * vals), dom.kernel_diag(domain, zp)
    elif op == "berezin_adjoint":
        terms = k2 * (w / dom.kernel_diag_values(domain, rule.nodes) * vals)
    elif op == "absolute_projection":
        return total(np.sqrt(k2) * (w * np.abs(vals)))
    else:
        terms = np.conj(dom.kernel_values(domain, zp, rule.nodes)) * (w * vals)
    if np.iscomplexobj(terms):
        return complex(total(terms.real) / scale, total(terms.imag) / scale)
    return complex(total(terms) / scale, 0.0)


def _complex_form(op, domain, phi, z, rule):
    """The operator's summands through the complex kernel, |K|^2 as abs(K)**2: (sum, sum of |terms|)."""
    zp = dom.require_inside(domain, z)
    vals = quad.evaluate_on_rule(rule, phi)
    k = dom.kernel_values(domain, zp, rule.nodes)
    w = rule.weights
    if op == "berezin":
        terms = w * (np.abs(k) ** 2 / dom.kernel_diag(domain, zp)) * vals
    elif op == "berezin_adjoint":
        terms = w * np.abs(k) ** 2 * vals / dom.kernel_diag_values(domain, rule.nodes)
    else:
        terms = w * np.abs(k) * np.abs(vals)
    return complex(np.sum(terms)), float(np.sum(np.abs(terms)))


def _bits(x):
    return np.asarray(x).tobytes()


def _points(domain, m, seed):
    return np.array(dom.sample_interior(domain, m, seed=seed), dtype=complex)


@pytest.fixture(scope="module")
def rules():
    return {name: quad.build_rule(domain, *res) for name, (domain, res) in DOMAINS.items()}


@pytest.mark.parametrize("name", sorted(DOMAINS))
@pytest.mark.parametrize("op", OPERATORS)
@pytest.mark.parametrize("phi", [_real_symbol, _complex_symbol], ids=["real", "complex"])
def test_batched_equals_per_point_bit_for_bit(rules, name, op, phi):
    domain, rule = DOMAINS[name][0], rules[name]
    fn = getattr(tr, op)
    for m in (1, 2, 37):
        points = _points(domain, m, seed=m)
        batched = fn(domain, phi, points, rule)
        assert batched.shape == (m,)
        single = [fn(domain, phi, tuple(z), rule) for z in points]
        assert type(single[0]) is (float if op == "absolute_projection" else complex)
        assert _bits(batched) == _bits(np.array(single))
        assert _bits(single) == _bits([_reference(op, domain, phi, tuple(z), rule)
                                       for z in points])


@pytest.mark.parametrize("name", sorted(DOMAINS))
@pytest.mark.parametrize("op", OPERATORS[:3])
@pytest.mark.parametrize("phi", [_real_symbol, _complex_symbol], ids=["real", "complex"])
def test_real_form_agrees_with_the_complex_kernel(rules, name, op, phi):
    # |K|^2 in real arithmetic moves each summand by a few ulps: 1e-14 of the summed magnitudes
    domain, rule = DOMAINS[name][0], rules[name]
    points = _points(domain, 7, seed=21)
    got = getattr(tr, op)(domain, phi, points, rule)
    for z, value in zip(points, got):
        want, size = _complex_form(op, domain, phi, tuple(z), rule)
        assert abs(value - want) <= 1e-14 * size


# each linear transform, and the operator of its summands' magnitudes
MAGNITUDES = {"berezin": "berezin", "berezin_adjoint": "berezin_adjoint",
              "bergman_project": "absolute_projection"}
# a zero scalar, or magnitudes from 1e-100: near 1e-309 a phi w underflows into subnormals,
# whose fewer than 53 bits no relative bound can hold
_SCALARS = st.just(0j) | st.complex_numbers(min_magnitude=1e-100, max_magnitude=10.0,
                                            allow_nan=False, allow_infinity=False)


@pytest.mark.parametrize("name", sorted(DOMAINS))
@given(a=_SCALARS, b=_SCALARS, m=st.integers(1, 9), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=10, deadline=None)
def test_transforms_are_linear_in_the_symbol(rules, name, a, b, m, seed):
    # T(a phi + b psi) = a T phi + b T psi within 1e-13 of the summed magnitudes
    domain, rule = DOMAINS[name][0], rules[name]
    rng = np.random.default_rng(seed)
    phi, psi = rng.normal(size=(2, len(rule))) + 1j * rng.normal(size=(2, len(rule)))
    points = _points(domain, m, seed=seed)
    for op, size in MAGNITUDES.items():
        T, mag = getattr(tr, op), getattr(tr, size)
        got = T(domain, a * phi + b * psi, points, rule)
        want = a * T(domain, phi, points, rule) + b * T(domain, psi, points, rule)
        bound = (abs(a) * np.real(mag(domain, np.abs(phi), points, rule))
                 + abs(b) * np.real(mag(domain, np.abs(psi), points, rule)))
        assert np.all(np.abs(got - want) <= 1e-13 * bound), op
    # P+ reads |f|: additive over nonnegative symbols and coefficients, and |a|-homogeneous
    P = tr.absolute_projection
    got = P(domain, abs(a) * np.abs(phi) + abs(b) * np.abs(psi), points, rule)
    want = abs(a) * P(domain, phi, points, rule) + abs(b) * P(domain, psi, points, rule)
    assert np.all(np.abs(got - want) <= 1e-13 * want)
    assert np.all(np.abs(P(domain, a * phi, points, rule) - abs(a) * P(domain, phi, points, rule))
                  <= 1e-13 * abs(a) * P(domain, phi, points, rule))


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_discretize_berezin_agrees_with_the_complex_kernel(rules, name):
    domain, rule = DOMAINS[name][0], rules[name]
    rows = _points(domain, 9, seed=22)
    got = on.discretize_berezin(domain, rule, row_nodes=rows).entries
    want = np.abs(domain.kernel(rule.nodes[None], rows[:, None])) ** 2 / domain.diag(rows)[:, None]
    assert np.all(np.abs(got - want) <= 1e-14 * want)


@pytest.mark.parametrize("name", ["disc", "ball2", "bidisc", "hartogs"])
def test_row_sums_agree_with_the_formed_matrix(rules, name):
    # B1 at the rows, |K|^2 w summed and divided after summing, against BLAS sums of the entries
    domain, rule = DOMAINS[name][0], rules[name]
    rows = _points(domain, 37, seed=23)
    matrix = on.discretize_berezin(domain, rule, row_nodes=rows)
    sums = matrix.row_sums()
    want = matrix.entries @ matrix.col_weights
    assert np.all(np.abs(sums - want) <= 1e-14 * want)
    if name == "disc":  # the pass of unit_mass itself, to the bit
        assert _bits(sums) == _bits(tr.unit_mass(domain, rows, rule))


@pytest.fixture(scope="module")
def long_rules():
    # 163,840 disc nodes and 230,400 Hartogs nodes, cut to any length below
    return {"disc": (dom.disc(), quad.build_rule(dom.disc(), 80, 1024)),
            "hartogs": (dom.hartogs_triangle(), quad.build_rule(dom.hartogs_triangle(), 10, 24))}


CHUNK, LEAF = quad._CHUNK, quad._LEAF


def _fsum_of_leaves(row):
    """The summation contract, leaf by leaf: an exact fsum of the np.sum of each 1,024 entries."""
    return math.fsum(float(np.sum(row[i:i + 1024])) for i in range(0, len(row), 1024))


def _walk(patch, rule):
    """Record the tasks of each ``_map`` call and the blocks of rows ``rule._mesh`` forms."""
    spans, blocks, real_map, real_mesh = [], set(), quad._map, rule._mesh
    patch.setattr(quad, "_map", lambda fn, items, entries: spans.append(items)
                  or real_map(fn, items, entries))
    patch.setattr(rule, "_mesh", lambda start, stop: blocks.add((start, stop))
                  or real_mesh(start, stop))
    return spans, blocks


def _assert_spans_of_whole_blocks(spans, blocks, n, most):
    """The blocks tile [0, n) in order, each of two or more nodes from a leaf boundary on;
    each task is one block and, but for a lone node joining the last, of at most ``most``
    nodes or one leaf."""
    blocks = sorted(blocks)
    assert [(s.start, s.stop) for s in spans] == blocks
    edges = [0] + [b for _, b in blocks]
    assert [a for a, _ in blocks] == edges[:-1] and edges[-1] == n
    assert all(b - a >= 2 and a % quad._LEAF == 0 for a, b in blocks)
    assert all(b - a <= max(most, quad._LEAF) for a, b in blocks[:-1])
    assert blocks[-1][1] - blocks[-1][0] <= max(most, quad._LEAF) + 1


@given(name=st.sampled_from(["disc", "hartogs"]),
       n=st.sampled_from([2, LEAF - 1, LEAF, LEAF + 1, 5 * LEAF + 3, 3 * CHUNK + LEAF + 1])
       | st.integers(2, 3 * CHUNK + 2 * LEAF),
       m=st.integers(1, 12), chunk=st.sampled_from([1, 2, 3, 32]),
       block=st.sampled_from([1, 3, 16, 128]), workers=st.sampled_from(["serial", "pool", "many"]))
@settings(max_examples=25, deadline=None)
def test_every_sum_is_the_fsum_of_its_leaf_sums(long_rules, name, n, m, chunk, block, workers):
    # compensated_sum, integrate and the operators, at chunks and kernel blocks of other whole
    # numbers of leaves, serial, pooled and on more workers than cores: each sum is the
    # fsum of the np.sum of each 1,024 summands of the whole row, bit for bit
    assert LEAF == 1024
    domain, full = long_rules[name]
    rule = quad.QuadratureRule(full.nodes[:n], full.weights[:n], full.meta)
    points = _points(domain, m, seed=n)
    threads = 2 * quad._CORES + 1 if workers == "many" else 2
    with pytest.MonkeyPatch.context() as patch, ThreadPoolExecutor(threads) as own:
        patch.setattr(quad, "_CHUNK", chunk * LEAF)
        patch.setattr(quad, "_BLOCK", block * LEAF)
        if workers == "serial":
            patch.setattr(quad, "_POOL", None)
        else:
            patch.setattr(quad, "_BUFFER", 0)  # every call of two or more blocks is pooled
            counting = _lend_pool(patch, own, threads)
        spans, blocks = _walk(patch, rule)
        got = {op: getattr(tr, op)(domain, _complex_symbol, points, rule) for op in OPERATORS}
        integral = quad.integrate(rule, _complex_symbol)
        terms = rule.weights * quad.evaluate_on_rule(rule, _complex_symbol)
        total = quad.compensated_sum(terms.imag)
    # every operator walks the same blocks of whole leaves, one task each
    assert len(spans) == len(OPERATORS) and all(s == spans[0] for s in spans)
    cores = 1 if workers == "serial" else threads
    _assert_spans_of_whole_blocks(spans[0], blocks, n, min(chunk * LEAF, -(-n // cores)))
    if workers != "serial":
        pooled = len(spans[0]) > 1
        assert (counting.calls, counting.items) == (len(OPERATORS) * pooled, len(spans[0]) * pooled)
    assert _bits(total) == _bits(_fsum_of_leaves(terms.imag))
    # summands over 16 decades, so that any other order of the additions rounds apart
    rng = np.random.default_rng(n)
    wide = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
    assert _bits(quad.compensated_sum(wide)) == _bits(_fsum_of_leaves(wide))
    assert _bits(integral) == _bits(complex(_fsum_of_leaves(terms.real),
                                            _fsum_of_leaves(terms.imag)))
    for op in OPERATORS:
        want = [_reference(op, domain, _complex_symbol, tuple(z), rule, _fsum_of_leaves)
                for z in points]
        assert _bits(got[op]) == _bits(np.array(want, dtype=got[op].dtype)), op


@example(name="disc", n=2, m=1, op="bergman_project")
@given(name=st.sampled_from(["disc", "hartogs"]),
       n=st.sampled_from([2, 4000, CHUNK - 1, CHUNK, 2 * CHUNK, CHUNK + 4321, 2 * CHUNK + 7])
       | st.integers(2, 2 * CHUNK + 30000),
       m=st.sampled_from([1, 2, 37]), op=st.sampled_from(OPERATORS))
@settings(max_examples=25, deadline=None)
def test_chunk_boundaries(long_rules, name, n, m, op):
    domain, full = long_rules[name]
    rule = quad.QuadratureRule(full.nodes[:n], full.weights[:n], full.meta)
    points = _points(domain, m, seed=n)
    batched = getattr(tr, op)(domain, _complex_symbol, points, rule)
    ref = [_reference(op, domain, _complex_symbol, tuple(z), rule) for z in points]
    assert _bits(batched) == _bits(np.array(ref, dtype=batched.dtype))


@pytest.mark.parametrize("name", sorted(DOMAINS))
@pytest.mark.parametrize("op", OPERATORS)
def test_one_point_outside_is_refused(rules, name, op):
    domain, rule = DOMAINS[name][0], rules[name]
    points = _points(domain, 5, seed=3)
    points[3] = points[3] / np.max(np.abs(points[3])) * 1.5  # off the closure
    with pytest.raises(PointOutsideDomain):
        getattr(tr, op)(domain, _real_symbol, points, rule)


@pytest.mark.parametrize("op", OPERATORS + ("unit_mass",))
def test_keyword_arguments_reach_the_operator(rules, op):
    domain, rule = DOMAINS["ball2"][0], rules["ball2"]
    points = _points(domain, 3, seed=4)
    fn, symbol = getattr(tr, op), () if op == "unit_mass" else (_real_symbol,)
    assert list(inspect.signature(fn).parameters)[-2:] == ["z", "rule"]
    assert _bits(fn(domain, *symbol, z=points, rule=rule)) == _bits(fn(domain, *symbol, points, rule))


def test_wrong_dimension_is_refused(rules):
    with pytest.raises(ValueError):
        tr.berezin(dom.ball(2), _real_symbol, np.zeros((3, 1), dtype=complex), rules["ball2"])


class _CountingPool:
    """A pool standing in for the module's, counting the calls that reach it: a call is a
    run of submits of one function, and ``items`` counts the last call's submits."""

    def __init__(self, pool):
        self.pool, self.calls, self.items, self._fn = pool, 0, 0, lambda: None

    def submit(self, fn, item):
        if self._fn() is not fn:  # weakly held: a new call's function is a new object
            self.calls, self.items, self._fn = self.calls + 1, 0, weakref.ref(fn)
        self.items += 1
        return self.pool.submit(fn, item)


def _lend_pool(monkeypatch, executor, workers):
    """Make ``executor`` the module pool of ``workers`` threads, counting its calls."""
    counting = _CountingPool(executor)
    monkeypatch.setattr(quad, "_POOL", counting)
    monkeypatch.setattr(quad, "_CORES", workers)
    return counting


@pytest.fixture
def pool(monkeypatch):
    # on a one-core host the module has no pool; lend it one so the pooled path runs
    if quad._POOL:
        yield _lend_pool(monkeypatch, quad._POOL, quad._CORES)
    else:
        with ThreadPoolExecutor(2) as own:
            yield _lend_pool(monkeypatch, own, 2)


@pytest.mark.parametrize("name, m", [pytest.param("disc", None, id="disc"),
                                     pytest.param("hartogs", 300, id="hartogs"),
                                     pytest.param("disc", 2000, id="disc-pooled")])
def test_discretize_berezin_equals_row_loop(pool, rules, name, m):
    domain, rule = DOMAINS[name][0], rules[name]
    rows = rule.nodes if m is None else _points(domain, m, seed=9)
    diag = dom.kernel_diag_values(domain, rows)
    ref = np.empty((len(rows), len(rule)))
    for i, z in enumerate(rows):
        ref[i] = domain.kernel_abs2(rule.nodes, z) / diag[i]
    got = on.discretize_berezin(domain, rule, row_nodes=None if m is None else rows)
    assert _bits(got.entries) == _bits(ref)
    # only the 2000 x 1152 matrix reaches the pool's 2^21 entries
    assert pool.calls == (len(rows) * len(rule) >= quad._BUFFER)


def _br_scan_reference(domain, grids):
    """The per-z scan loop over the levels' grids, each paired with itself, with the tie rule:
    the first level, then z, then w within 1e-12 of the maximum; |K| is the root of kernel_abs2."""
    rows = [(g, z, np.sqrt(domain.kernel_abs2(g, z)) / dom.kernel_diag(domain, z))
            for g in grids for z in g]
    sup = max(float(np.max(r)) for _, _, r in rows)
    cut = sup * (1.0 - 1e-12)
    g, z, r = next(row for row in rows if np.max(row[2]) >= cut)
    j = int(np.flatnonzero(r >= cut)[0])
    return sup, (tuple(z), tuple(g[j])), min(float(np.min(r)) for _, _, r in rows)


@pytest.mark.parametrize("name", ["ball2", "hartogs"])
def test_br_scan_ties_and_blocks_match_the_loop(monkeypatch, name):
    domain = DOMAINS[name][0]
    scan_grid = type(domain).scan_grid
    grids = [scan_grid(domain, level) for level in (0, 1)]
    # each point twice, in two orders, across many row blocks: the first occurrence must win
    doubled = [np.concatenate([g, g[::-1]]) for g in grids]
    monkeypatch.setattr(type(domain), "scan_grid", lambda self, level: doubled[level])
    rep = on.br_scan(domain)
    sup, arg, inf_seen = _br_scan_reference(domain, doubled)
    assert rep.supremum == sup and rep.resolution["infimum"] == inf_seen
    assert rep.argmax == arg
    level = 0 if rep.resolution["sup_base"] >= sup * (1.0 - 1e-12) else 1
    first = [int(np.flatnonzero((doubled[level] == p).all(axis=1))[0]) for p in rep.argmax]
    assert max(first) < len(grids[level])


def _nudged_abs2(kernel_abs2, scale):
    """``kernel_abs2`` times (1 + scale cos(t))^2, so |K| moves by 1 + scale cos(t), where
    t is a fixed function of the pair (a, b)."""
    def nudged(self, a, b):
        t = np.sum(7919.0 * a.real + 7907.0 * a.imag + 104729.0 * b.real + 104723.0 * b.imag,
                   axis=-1)
        return kernel_abs2(self, a, b) * (1.0 + scale * np.cos(t)) ** 2
    return nudged


# 4 ulps splits exact ties, such as the half plane's five; 2e-13 exceeds the rounding of
# turned points: the disc's full array has near-ties 6.4e-14 and 2.6e-13 below its maximum
@pytest.mark.parametrize("scale", [4 * np.finfo(float).eps, 2e-13], ids=["4ulp", "2e-13"])
@pytest.mark.parametrize("name", ["disc", "punctured-disc", "ball2", "bidisc", "halfplane",
                                  "hartogs"])
def test_br_scan_argmax_survives_kernel_noise(monkeypatch, name, scale):
    domain = dom.domain_by_name(name)
    rep = on.br_scan(domain)
    kernel_abs2 = type(domain).kernel_abs2
    for sign in (1.0, -1.0):
        monkeypatch.setattr(type(domain), "kernel_abs2", _nudged_abs2(kernel_abs2, sign * scale))
        nudged = on.br_scan(domain)
        assert nudged.argmax == rep.argmax
        assert abs(nudged.supremum - rep.supremum) <= 2 * scale * rep.supremum


@pytest.fixture(scope="module")
def big_disc_rule():
    return quad.build_rule(dom.disc(), 64, 16384)  # 2^21 nodes, 32 chunks


@pytest.mark.parametrize("op", OPERATORS)
def test_pooled_equals_per_point_bit_for_bit(pool, long_rules, big_disc_rule, op):
    # one point on 2^21 nodes, and 37 points (two groups) across chunk boundaries
    domain, full = long_rules["disc"]
    n = 2 * CHUNK + 7
    cut = quad.QuadratureRule(full.nodes[:n], full.weights[:n], full.meta)
    for rule, m, phi in ((big_disc_rule, 1, _real_symbol), (cut, 37, _complex_symbol)):
        assert m * len(rule) >= quad._BUFFER
        points = _points(domain, m, seed=m)
        calls = pool.calls
        pooled = getattr(tr, op)(domain, phi, points, rule)
        assert pool.calls == calls + 1
        ref = [_reference(op, domain, phi, tuple(z), rule) for z in points]
        assert _bits(pooled) == _bits(np.array(ref, dtype=pooled.dtype))


@pytest.mark.parametrize("pooled", [False, True], ids=["serial", "pooled"])
@pytest.mark.parametrize("n, m, block", [(CHUNK, 37, 1 << 14), (1, 100, 4)], ids=["chunk", "one-node"])
@pytest.mark.parametrize("name", ["disc", "hartogs"])
@pytest.mark.parametrize("op", OPERATORS)
def test_one_chunk_rule_over_many_point_groups(monkeypatch, long_rules, name, n, m, block, pooled,
                                               op):
    # A rule of one chunk splits into blocks, one task each, and each block is reduced over
    # groups of points: at a block of 2^14 entries a leaf-wide block holds 16 points
    # serially and 8 pooled, so the 37 points fill several groups of each of 32 blocks.  A
    # rule of one node is refused; the smallest, of two nodes, runs at a block of 4 entries,
    # where 100 points reach the pool's gate but form one block, so it runs as one task of
    # 100 one-point groups.
    monkeypatch.setattr(quad, "_BLOCK", block)
    monkeypatch.setattr(quad, "_BUFFER", 16 * block)
    domain, full = long_rules[name]
    if n == 1:
        with pytest.raises(InvalidResolution, match="two or more nodes"):
            quad.QuadratureRule(full.nodes[:n], full.weights[:n], full.meta)
        n = 2
    rule = quad.QuadratureRule(full.nodes[:n], full.weights[:n], full.meta)
    points = _points(domain, m, seed=n)
    groups = []
    for form in ("kernel", "kernel_abs2"):  # the point count of each kernel block
        def spy(self, a, b, real=getattr(type(domain), form)):
            groups.append(len(b))
            return real(self, a, b)
        monkeypatch.setattr(type(domain), form, spy)
    with ThreadPoolExecutor(2) as own:
        if pooled:
            counting = _lend_pool(monkeypatch, own, 2)
        else:
            monkeypatch.setattr(quad, "_POOL", None)
        got = getattr(tr, op)(domain, _complex_symbol, points, rule)
    assert 1 < len(groups) and max(groups) < m
    if n == 2:
        assert groups == [1] * m
    if pooled:
        assert m * n >= quad._BUFFER
        assert (counting.calls, counting.items) == ((1, n // LEAF) if n > 2 else (0, 0))
    ref = [_reference(op, domain, _complex_symbol, tuple(z), rule) for z in points]
    assert _bits(got) == _bits(np.array(ref, dtype=got.dtype))


def test_adjoint_evaluates_the_node_diagonal_once(pool, monkeypatch):
    # K(w, w) is evaluated at each node once, one chunk of rows at a time, on the first
    # call alone; the whole node array is never formed
    domain = dom.ball(2)
    rule = quad.build_rule(domain, 12, 24)  # 138,240 nodes: four chunks and a tail
    points = _points(domain, 37, seed=12)
    diag = type(domain).diag
    read = []

    def counting(self, z):
        read.append(z.copy())
        return diag(self, z)
    monkeypatch.setattr(type(domain), "diag", counting)
    calls = pool.calls
    for first in (True, False):
        read.clear()
        tr.berezin_adjoint(domain, _real_symbol, points, rule)
        node_reads = [z for z in read if len(z) != len(points)]
        assert [len(z) for z in node_reads] == ([CHUNK] * 4 + [len(rule) - 4 * CHUNK] if first
                                                 else [])
        if first:
            assert _bits(np.concatenate(node_reads)) == _bits(quad.build_rule(domain, 12, 24).nodes)
    assert "_whole" not in vars(rule) and pool.calls == calls + 2
    # one task per block: 15 of 16 slabs of 576 nodes each, whole leaves too
    assert pool.items == len(rule) // 9216 == 15


def test_more_workers_than_cores_with_fast_switching_agree_with_serial(monkeypatch, long_rules):
    # workers share the output matrix and the summand's inputs, and each keeps the last mesh
    # of a product rule it formed: a lost or crossed update would change a bit against the
    # serial pass
    domain, rule = long_rules["disc"]
    points = _points(domain, 37, seed=8)
    rows = _points(domain, 40, seed=9)
    hartogs = dom.hartogs_triangle()
    fresh = quad.build_rule(hartogs, 10, 24)  # its whole arrays unformed: the mesh forms the nodes

    def both():
        return (tr.bergman_project(domain, _complex_symbol, points, rule),
                on.discretize_berezin(domain, rule, row_nodes=rows).entries,
                tr.berezin(hartogs, _complex_symbol, _points(hartogs, 10, seed=10), fresh))
    monkeypatch.setattr(quad, "_POOL", None)
    serial = both()
    interval = sys.getswitchinterval()
    workers = 2 * quad._CORES + 1
    with ThreadPoolExecutor(workers) as many:
        _lend_pool(monkeypatch, many, workers)
        sys.setswitchinterval(1e-6)
        try:
            pooled = both()
        finally:
            sys.setswitchinterval(interval)
    assert quad._POOL.calls == 3 and "_whole" not in vars(fresh)
    assert [_bits(a) for a in pooled] == [_bits(a) for a in serial]


def test_call_below_the_gate_starts_no_thread():
    script = (
        "import threading, numpy as np\n"
        "import bergman.domains as dom, bergman.quadrature as quad\n"
        "import bergman.transforms as tr, bergman.opnorm as on\n"
        "before = threading.active_count()\n"
        "d = dom.hartogs_triangle(); rule = quad.build_rule(d, 10, 24)\n"
        "assert len(rule) < quad._BUFFER\n"
        "z = dom.sample_interior(d, 1, seed=1)\n"
        "tr.berezin(d, np.ones(len(rule)), z[0], rule)\n"
        "tr.bergman_project(d, np.ones(len(rule)), np.array(z), rule)\n"
        "on.discretize_berezin(dom.disc(), quad.build_rule(dom.disc(), 8, 16))\n"
        "print(before, threading.active_count())\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(quad.__file__)))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.split() == ["1", "1"]


@pytest.mark.skipif(quad._CORES < 2, reason="on one core the module has no pool")
def test_pooled_calls_share_one_thread_per_core():
    # 32 points over 16 chunks of disc nodes: 2^24 entries, 16 tasks
    script = (
        "import threading, numpy as np\n"
        "import bergman.domains as dom, bergman.quadrature as quad, bergman.transforms as tr\n"
        "d = dom.disc(); rule = quad.build_rule(d, 64, 4096)\n"
        "z = np.array(dom.sample_interior(d, 32, seed=1))\n"
        "assert len(rule) == 16 * quad._CHUNK\n"
        "counts = [threading.active_count()]\n"
        "for _ in range(2):\n"
        "    tr.berezin(d, np.ones(len(rule)), z, rule)\n"
        "    counts.append(threading.active_count())\n"
        "print(quad._CORES, *counts)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(quad.__file__)))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    threads, before, first, second = map(int, out.split())
    assert (before, first, second) == (1, 1 + threads, 1 + threads)


@pytest.mark.parametrize("failing", [0, 37], ids=["first-task", "later-task"])
def test_a_failed_pool_task_surfaces_from_the_call(pool, failing):
    # the first failed task in item order raises, whichever thread ran it
    def task(i):
        if i >= failing:
            raise NonFiniteValue(f"task {i}")
        return i
    calls = pool.calls
    with pytest.raises(NonFiniteValue, match=f"task {failing}$"):
        quad._map(task, list(range(100)), quad._BUFFER)
    assert pool.calls == calls + 1


def test_a_failed_pooled_call_leaves_no_task_running(pool):
    # task 0 fails while the others sleep: the call cancels the tasks not yet started and
    # waits for the running ones, so no task starts or finishes after it returns
    lock, started, finished = threading.Lock(), [], []

    def task(i):
        with lock:
            started.append(i)
        time.sleep(0.01 if i == 0 else 0.05)
        if i == 0:
            raise NonFiniteValue("task 0")
        with lock:
            finished.append(i)
    with pytest.raises(NonFiniteValue, match="task 0$"):
        quad._map(task, list(range(6)), quad._BUFFER)
    with lock:
        seen = sorted(started), sorted(finished)
    time.sleep(0.2)
    assert (sorted(started), sorted(finished)) == seen and seen[1] == seen[0][1:]


def _assert_peak_within_buffers(pool):
    # The workers that run at once split one kernel block between them and reduce each
    # block where it lies, so neither the rule nor the number of workers sets the peak:
    # it stays within 0.75 of a 20-point (points x 65,536 nodes) array, which is never
    # formed, on two rules 8.4x apart.  Gathering each 65,536-node chunk into such an
    # array, it reached 30.6 MB.
    domain = dom.hartogs_triangle()
    points = _points(domain, 20, seed=5)
    buffer_bytes = 20 * 65536 * 16
    calls = pool.calls
    for radial_n in (10, 29):  # 230,400 and 1,937,664 nodes
        rule = quad.build_rule(domain, radial_n, 24)
        ones = np.ones(len(rule))
        tracemalloc.start()
        try:
            tr.berezin(domain, ones, points, rule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.75 * buffer_bytes
    assert pool.calls == calls + 2


def test_buffer_bounds_the_working_memory(pool):
    _assert_peak_within_buffers(pool)


def test_buffer_bounds_the_working_memory_of_more_workers_than_cores(monkeypatch):
    workers = 2 * quad._CORES + 1
    with ThreadPoolExecutor(workers) as many:
        _assert_peak_within_buffers(_lend_pool(monkeypatch, many, workers))


# Symbols and integrands are read one chunk of nodes at a time: a lone tail node
# (65,537 nodes), five chunks of the disc rule and eight of the Hartogs rule, the
# last a short one.
CUTS = [pytest.param("disc", 2 * CHUNK + 1, id="lone-tail"),
        pytest.param("disc", 163840, id="three-chunks"),
        pytest.param("hartogs", 230400, id="four-chunks")]


def _cut(long_rules, name, n):
    domain, full = long_rules[name]
    return domain, quad.QuadratureRule(full.nodes[:n], full.weights[:n], full.meta)


@pytest.mark.parametrize("name, n", CUTS)
@pytest.mark.parametrize("op", OPERATORS)
def test_chunked_symbols_equal_the_whole_array_reference(monkeypatch, pool, long_rules, op, name,
                                                         n):
    # 37 points reach the pool's 2^21 entries on each cut; one point runs serially
    domain, rule = _cut(long_rules, name, n)
    points = _points(domain, 37, seed=n)
    fn = getattr(tr, op)
    for phi in (_real_symbol, _complex_symbol):
        ref = [_reference(op, domain, phi, tuple(z), rule) for z in points]
        calls = pool.calls
        pooled = fn(domain, phi, points, rule)
        assert pool.calls == calls + 1
        with monkeypatch.context() as serial_only:
            serial_only.setattr(quad, "_POOL", None)
            serial = fn(domain, phi, points, rule)
        single = fn(domain, phi, points[:1], rule)
        for got, want in ((pooled, ref), (serial, ref), (single, ref[:1])):
            assert _bits(got) == _bits(np.array(want, dtype=got.dtype))


@pytest.mark.parametrize("name, n", CUTS)
def test_integrate_reads_chunk_by_chunk_bit_for_bit(long_rules, name, n):
    # against compensated_sum of the whole summand array, real and imaginary parts apart
    rule = _cut(long_rules, name, n)[1]
    values = _complex_symbol(rule.nodes[:, 0] if rule.dim == 1 else rule.nodes)
    for f in (_real_symbol, _complex_symbol, values):
        whole = rule.weights * quad.evaluate_on_rule(rule, f)
        want = complex(quad.compensated_sum(whole.real), quad.compensated_sum(whole.imag))
        assert _bits(quad.integrate(rule, f)) == _bits(want)


@pytest.mark.parametrize("m, workers", [(1, "serial"), (100, "serial"), (100, "pool"),
                                        (100, "many")])
@pytest.mark.parametrize("op", OPERATORS)
def test_each_node_is_read_once_per_call(monkeypatch, pool, long_rules, op, m, workers):
    # 100 points fill several point groups in each block; each block's symbol values are
    # formed once and read by all its groups, also with more workers than cores and fast
    # switching.  One point reads a chunk a block, 100 points a leaf.
    domain, rule = _cut(long_rules, "disc", 163840)
    points = _points(domain, m, seed=m)
    want = getattr(tr, op)(domain, _complex_symbol, points, rule)
    reads = []

    def counting(w):
        reads.append(w.copy())
        return _complex_symbol(w)
    interval = sys.getswitchinterval()
    with ThreadPoolExecutor(2 * quad._CORES + 1) as many:
        if workers == "serial":
            monkeypatch.setattr(quad, "_POOL", None)
        elif workers == "many":
            pool = _lend_pool(monkeypatch, many, 2 * quad._CORES + 1)
            sys.setswitchinterval(1e-6)
        calls = pool.calls
        blocks = _walk(monkeypatch, rule)[0]
        try:
            got = getattr(tr, op)(domain, counting, points, rule)
        finally:
            sys.setswitchinterval(interval)
    width = CHUNK if m == 1 else LEAF
    if workers != "serial":
        assert pool.calls == calls + 1 and pool.items == len(rule) // width
    assert [len(w) for w in reads] == [s.stop - s.start for s in blocks[0]] == [width] * (
        len(rule) // width)
    assert _bits(np.sort(np.concatenate(reads))) == _bits(np.sort(rule.nodes[:, 0]))
    assert _bits(got) == _bits(want)


@pytest.mark.parametrize("n", [2 * CHUNK + 1, 163840], ids=["lone-tail", "three-chunks"])
@pytest.mark.parametrize("consumer", OPERATORS + ("integrate",))
def test_non_finite_in_the_last_chunk_is_refused(long_rules, consumer, n):
    domain, rule = _cut(long_rules, "disc", n)
    last = rule.nodes[-1, 0]

    def consume(f):
        if consumer == "integrate":
            return quad.integrate(rule, f)
        return getattr(tr, consumer)(domain, f, 0.2 + 0.1j, rule)
    values = np.ones(n, dtype=complex)
    values[-1] = np.nan
    for f in (values, lambda w: np.where(w == last, np.inf, 1.0)):
        with pytest.raises(NonFiniteValue):
            consume(f)


def test_one_point_projection_forms_no_whole_rule_array():
    # P[1/w1] at one point of 1,937,664 Hartogs nodes (30 chunks, run serially): the symbol,
    # its finiteness mask and w / w1 exist one chunk at a time.  Formed over the whole rule,
    # as before, they peaked at 32.6 MB, above N x 16 bytes = 29.6 MB.
    domain = dom.hartogs_triangle()
    rule = quad.build_rule(domain, 29, 24)
    symbol = lambda w: 1.0 / w[:, 0]
    tracemalloc.start()
    try:
        tr.bergman_project(domain, symbol, (0.5, 0.1j), rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 65536 * 16 < len(rule) * 16


# Product rules form each chunk's nodes and weights from their axes until the whole
# arrays are read; from then on the chunks are sliced from those.  Either way the
# sums are the same bits.  16 points reach the pool's 2^21 entries on each rule.
FORMED_RULES = {"disc": (dom.disc(), (80, 1024)), "ball2": (dom.ball(2), (12, 24)),
                "bidisc": (dom.polydisc(2), (8, 24)), "hartogs": (dom.hartogs_triangle(), (10, 24))}


@pytest.mark.parametrize("workers", ["serial", "pool"])
@pytest.mark.parametrize("name", sorted(FORMED_RULES))
def test_formed_rows_equal_the_whole_arrays_in_every_consumer(monkeypatch, pool, name, workers):
    domain, grid = FORMED_RULES[name]
    points = _points(domain, 16, seed=len(name))
    if workers == "serial":
        monkeypatch.setattr(quad, "_POOL", None)
    consumers = [lambda rule, op=op: getattr(tr, op)(domain, _complex_symbol, points, rule)
                 for op in OPERATORS]
    consumers += [lambda rule: tr.unit_mass(domain, points, rule),
                  lambda rule: quad.integrate(rule, _complex_symbol)]
    read = quad.build_rule(domain, *grid)
    read.nodes  # forms the whole arrays, which every consumer then slices
    calls = pool.calls
    for consumer, op in zip(consumers, OPERATORS + ("unit_mass", "integrate")):
        fresh = quad.build_rule(domain, *grid)
        assert len(points) * len(fresh) >= quad._BUFFER
        assert _bits(consumer(fresh)) == _bits(consumer(read))
        # none reads the whole nodes: the adjoint's node diagonal is formed chunk by chunk
        assert "_whole" not in vars(fresh)
    # unit_mass is a product of passes over the factors where the rule has them
    mass = sum(len(points) * len(f) >= quad._BUFFER for f in read.factors or (read,))
    pooled = 2 * (len(OPERATORS) + mass)
    assert pool.calls - calls == (pooled if workers == "pool" else 0)


# Every kind build_rule makes as a tensor product, at small grids: (domain, origin grading,
# largest radial_n, largest angular_n)
MESH_KINDS = {
    "disc": (dom.disc(), None, 6, 9), "punctured-disc": (dom.punctured_disc(), None, 6, 9),
    "bidisc": (dom.polydisc(2), None, 5, 6), "tridisc": (dom.polydisc(3), None, 4, 4),
    "ball2": (dom.ball(2), None, 5, 6), "hartogs": (dom.hartogs_triangle(), None, 5, 6),
    "hartogs-origin": (dom.hartogs_triangle(), 12.0, 5, 6),
}


def _kernel_forms(domain):
    """The forms the operators sum: |K|^2, |K| and conj K."""
    def conj_kernel(a, b):
        k = domain.kernel(a, b)
        return np.conj(k, out=k)
    return {"abs2": domain.kernel_abs2, "modulus": tr._modulus(domain), "conj-K": conj_kernel}


# blocks that cut slabs (lcm(32, 3) exceeds a 12-node block), blocks inside one slab (4 of its
# 32 or 8 nodes, one point), a lone tail node (1,024 = 341 blocks of 3, and one) and blocks of
# one slab each
@example(kind="hartogs", grid=(4, 4), leaf=3, chunk=4, block=7, m=3, pooled=False, seed=1)
@example(kind="hartogs", grid=(4, 4), leaf=1, chunk=4, block=3, m=1, pooled=False, seed=5)
@example(kind="disc", grid=(4, 8), leaf=1, chunk=4, block=2, m=1, pooled=True, seed=2)
@example(kind="bidisc", grid=(4, 4), leaf=3, chunk=1, block=5, m=1, pooled=False, seed=3)
@example(kind="tridisc", grid=(4, 4), leaf=1024, chunk=1, block=200, m=9, pooled=True, seed=4)
@given(kind=st.sampled_from(sorted(MESH_KINDS)),
       grid=st.tuples(st.integers(4, 6), st.integers(4, 9)),
       leaf=st.sampled_from([1, 3, 8, 64, 1024]), chunk=st.integers(1, 4),
       block=st.integers(1, 3000), m=st.integers(1, 9), pooled=st.booleans(),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_kernel_sums_on_the_mesh_equal_them_on_the_explicit_arrays(kind, grid, leaf, chunk, block,
                                                                   m, pooled, seed):
    # The open mesh of a product rule and the rows of its explicit arrays are two layouts of one
    # rule: each form and coefficient sums to the same bits on both, at any leaf, chunk, block
    # and point group (patched alike on both), serial and pooled.
    domain, origin, top_radial, top_angular = MESH_KINDS[kind]
    grid = (min(grid[0], top_radial), min(grid[1], top_angular))
    mesh = quad.build_rule(domain, *grid, origin_grading=origin)
    formed = quad.build_rule(domain, *grid, origin_grading=origin)
    rows = quad.QuadratureRule(formed.rows(), formed._weights(slice(None)), mesh.meta)
    assume(len(mesh) <= 64 * leaf * chunk)  # at most 64 chunks
    points = _points(domain, m, seed=seed)
    with pytest.MonkeyPatch.context() as patch, ThreadPoolExecutor(2) as own:
        patch.setattr(quad, "_LEAF", leaf)
        patch.setattr(quad, "_CHUNK", chunk * leaf)
        patch.setattr(quad, "_BLOCK", block)
        if pooled:
            patch.setattr(quad, "_BUFFER", 0)
            _lend_pool(patch, own, 2)
        else:
            patch.setattr(quad, "_POOL", None)
        for name, form in _kernel_forms(domain).items():
            for coef in (tr._unit, tr._weighted(mesh, _complex_symbol)):
                got = quad._kernel_sums(form, mesh, points, coef)
                want = quad._kernel_sums(form, rows, points, coef)
                assert _bits(got) == _bits(want), name
    assert "_whole" not in vars(mesh)


def _spy_rows(monkeypatch):
    """The rows (start, stop) of each call of ``QuadratureRule.rows``, the node former, and
    whether a kernel block's mesh was handed to it."""
    calls, real = [], quad.QuadratureRule.rows
    def spy(self, s=slice(None), _block=None):
        calls.append((s.start, s.stop, _block is not None))
        return real(self, s, _block)
    monkeypatch.setattr(quad.QuadratureRule, "rows", spy)
    return calls


def test_unit_coefficients_form_no_nodes(monkeypatch):
    # B1 reads the weights alone: neither the ball's mass nor the disc matrix's row sums form
    # an (R, dim) node array.  A callable symbol's nodes are written once per block, from the
    # block's own mesh, and the blocks are whole slabs.
    domain = dom.ball(2)
    rule = quad.build_rule(domain, 12, 24)  # 138,240 nodes of 240 slabs of 576
    points = _points(domain, 3, seed=6)
    disc = quad.build_rule(dom.disc(), 8, 16)
    matrix = on.discretize_berezin(dom.disc(), disc)
    calls = _spy_rows(monkeypatch)
    tr.unit_mass(domain, points, rule)
    matrix.row_sums()
    assert calls == [] and "_whole" not in vars(rule)
    spans, blocks = _walk(monkeypatch, rule)
    tr.berezin(domain, _real_symbol, points, rule)
    assert calls == [(s.start, s.stop, True) for s in spans[0]]
    _assert_spans_of_whole_blocks(spans[0], blocks, len(rule), CHUNK)
    assert all(a % rule.width == 0 for block in blocks for a in block)


# rules of each tensor kind, of 4,096 nodes in slabs of 64 or 128
TENSOR_RULES = {"disc": (dom.disc(), (16, 128)), "bidisc": (dom.polydisc(2), (4, 8)),
                "ball2": (dom.ball(2), (4, 8)), "hartogs": (dom.hartogs_triangle(), (4, 8))}


@pytest.mark.parametrize("op", OPERATORS + ("unit_mass",))
@pytest.mark.parametrize("name", sorted(TENSOR_RULES))
def test_a_callable_symbol_reads_its_blocks_mesh(monkeypatch, name, op):
    # A callable symbol's nodes are written from the mesh its kernel block formed, so one
    # call forms each row's mesh once; the 40 points cut the rule into blocks of whole slabs.
    # Reading the nodes from a mesh of their own, each call formed every row's mesh twice.
    # B1 forms no nodes: its mesh is the kernel's alone, and on a rule of factors the
    # factors' own.
    domain, grid = TENSOR_RULES[name]
    rule = quad.build_rule(domain, *grid)
    points = _points(domain, 40, seed=7)
    if op == "berezin_adjoint":
        rule.node_diag  # kept with the rule, formed once for every call
    formed, former = [], rule.mesh
    def counting(a0, a1):
        mesh = former(a0, a1)
        formed.append(math.prod(np.broadcast_shapes(*(c.shape for c in mesh))))
        return mesh
    monkeypatch.setattr(rule, "mesh", counting)
    if op == "unit_mass":
        calls = _spy_rows(monkeypatch)
        tr.unit_mass(domain, points, rule)
        assert calls == [] and sum(formed) == (0 if rule.factors else len(rule))
    else:
        getattr(tr, op)(domain, _real_symbol, points, rule)
        assert sum(formed) == len(rule) and len(formed) > 1
    assert "_whole" not in vars(rule)


@pytest.mark.parametrize("workers", ["serial", "pool"])
@pytest.mark.parametrize("name, m", [("ball2", 20), ("hartogs", 1)])
def test_one_pass_forms_each_mesh_node_once(monkeypatch, name, m, workers):
    # Blocks of whole slabs, one task each: one pass over the rule forms the open
    # mesh of each slab once.  Walked in chunks of _CHUNK nodes, which cut slabs at their
    # edges, the 20-point pass of check 01 formed 2,541,312 mesh nodes for its 2,322,432 rows.
    if name == "ball2":
        domain, rule = dom.ball(2), reproduce.rule_ball2()
    else:
        domain = dom.hartogs_triangle()
        rule = quad.build_rule(domain, 10, 24)
    points = _points(domain, m, seed=m)
    formed, former = [], rule.mesh
    def counting(a0, a1):
        mesh = former(a0, a1)
        formed.append(math.prod(np.broadcast_shapes(*(c.shape for c in mesh))))
        return mesh
    monkeypatch.setattr(rule, "mesh", counting)
    with ThreadPoolExecutor(2) as own:
        if workers == "pool":
            monkeypatch.setattr(quad, "_BUFFER", 0)
            _lend_pool(monkeypatch, own, 2)
        else:
            monkeypatch.setattr(quad, "_POOL", None)
        quad._kernel_sums(domain.kernel_abs2, rule, points, tr._unit)
    assert sum(formed) == len(rule) and "_whole" not in vars(rule)


def _traced_peak(call):
    """``call()`` and the tracemalloc peak it reached."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("check", [reproduce.check_01_normalization, reproduce.check_09_weak_pairing,
                                   reproduce.check_13_domination], ids=lambda c: c.__name__[:8])
def test_checks_on_big_product_rules_peak_below_48_mb_traced(check):
    # Their rules of 2.3 to 3.7 M nodes are read a chunk at a time, formed from the axes.
    # Built as whole arrays, checks 01, 09 and 13 peaked at 156.7, 156.8 and 103.5 MB traced.
    # Check 01's 20-point passes form no (points x chunk) array: gathering each chunk into
    # one, it peaked at 27.6 MB.
    reproduce.rule_disc_rows(), reproduce.rule_disc()  # cached, shared with other checks
    result, peak = _traced_peak(check)
    assert result.passed and peak < (16e6 if check is reproduce.check_01_normalization else 48e6)


def test_twenty_point_unit_mass_on_the_ball_peaks_below_12_mb_traced():
    # 20 points over the 2.3 M-node ball(2) rule of check 01, pooled: its kernel blocks are
    # reduced where they lie.  Gathering each chunk into a (points x chunk) array, it
    # peaked at 27.6 MB.
    domain, rule = dom.ball(2), reproduce.rule_ball2()
    points = _points(domain, 20, seed=20)
    mass, peak = _traced_peak(lambda: tr.unit_mass(domain, points, rule))
    assert np.all(np.abs(mass - 1.0) < 1e-6) and peak < 12e6
