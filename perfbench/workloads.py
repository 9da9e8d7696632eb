"""The in-process workloads: inputs from the seed, one unit of work, its gate.

Each workload builds its inputs in ``setup`` (timed by run.py as part of
``setup_s``) and then runs units of work.  A unit returns one ``Op`` per
output it checked: its latency and whether it passed the gate.  Latency
percentiles are taken over the ops of point-queries, where one op is one
request, and over whole units elsewhere (``unit_is_request``): a unit of the
other workloads is one request of its user, and the short numpy-bound ops
inside a unit read up to 40% apart between runs on a shared 2-vCPU Xeon VM.
Gates reuse the tolerances pinned in ``bergman.reproduce``, or per-rule
tolerances where the rules are coarser than the reproduction rules.  A
workload may have a ``probe``, which only the traced run calls, after its
timed amount of work; its ops are gated like the others.

The library receives only the generated points and symbols; the seed never
reaches it.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass
from time import perf_counter as _clock

import numpy as np

from bergman import domains as dom
from bergman import hartogs as ht
from bergman import opnorm as on
from bergman import quadrature as quad
from bergman import reproduce
from bergman import transforms as bz


@dataclass
class Op:
    name: str
    seconds: float
    ok: bool
    detail: str = ""


def sample_point(rng, name):
    """A seeded point from the bulk of a domain, away from its singular loci."""
    if name == "disc":
        r = 0.05 + 0.75 * math.sqrt(rng.random())
        return (r * cmath.exp(2j * math.pi * rng.random()),)
    if name == "bidisc":
        return tuple((0.05 + 0.60 * math.sqrt(rng.random())) * cmath.exp(2j * math.pi * rng.random())
                     for _ in range(2))
    if name == "ball2":
        v = rng.normal(size=4)
        v *= 0.7 * rng.random() ** 0.25 / np.linalg.norm(v)
        return (complex(v[0], v[1]), complex(v[2], v[3]))
    if name == "hartogs":
        z1 = (0.15 + 0.55 * rng.random()) * cmath.exp(2j * math.pi * rng.random())
        t = (0.05 + 0.65 * rng.random()) * cmath.exp(2j * math.pi * rng.random())
        return (z1, z1 * t)
    raise ValueError(name)


# ---------------------------------------------------------------------------
# point-queries
# ---------------------------------------------------------------------------

# The four cache-resident rules, built during set-up.
QUERY_RULES = {
    "disc": (dom.disc, 32, 64),
    "ball2": (lambda: dom.ball(2), 12, 24),
    "bidisc": (lambda: dom.polydisc(2), 8, 24),
    "hartogs": (dom.hartogs_triangle, 10, 24),
}
# Worst error allowed on each rule.  Over the sampled regions the largest
# errors of these coarse rules, found on a grid over the regions' extremes,
# are 2.2e-6 (disc), 2.3e-4 (bidisc), 1.1e-3 (ball2) and 1.4e-3 (hartogs);
# each tolerance leaves a margin of about four.  The reproduction suite's
# 1e-8/1e-6 hold on its finer rules only.
QUERY_TOL = {"disc": 1e-5, "ball2": 5e-3, "bidisc": 1e-3, "hartogs": 5e-3}
QUERY_OPS = ("berezin", "berezin_adjoint", "absolute_projection", "bergman_project", "mass")
# Domains of one block of queries; the disc, which the CLI serves most, twice.
# With this mix the median latency falls inside the bidisc group rather than
# on the edge between two groups.
QUERY_MIX = ("disc", "disc", "ball2", "bidisc", "hartogs")


def _one(w):
    return np.ones(len(w))


def _first_coordinate(w):
    return w if w.ndim == 1 else w[:, 0]


class PointQueries:
    """Closed loop, one client: single-point transform calls on four rules."""

    name = "point-queries"
    trace_units = 40
    unit_is_request = False

    def __init__(self, seed, seconds, work_dir, tracer):
        self.seed, self.tracer, self.work_dir = seed, tracer, work_dir
        self.n_blocks = self.trace_units + 12 * max(1, int(seconds))
        self.next_block = 0

    def setup(self):
        with self.tracer.request("bench.setup"):
            self.rules = {}
            for name, (make, radial_n, angular_n) in QUERY_RULES.items():
                domain = make()
                self.rules[name] = (domain, quad.build_rule(domain, radial_n, angular_n))
            rng = np.random.default_rng(self.seed)
            pairs = [(op, name) for op in QUERY_OPS for name in QUERY_MIX]
            self.blocks = []
            for _ in range(self.n_blocks):
                order = rng.permutation(len(pairs))
                block = []
                for i in order:
                    op, name = pairs[i]
                    z = sample_point(rng, name)
                    block.append((op, name, z, dom.kernel_diag(self.rules[name][0], z)))
                self.blocks.append(block)

    def _query(self, op, domain, rule, z):
        if op == "berezin":
            return bz.berezin(domain, _one, z, rule)
        if op == "berezin_adjoint":
            return bz.berezin_adjoint(domain, lambda w: dom.kernel_diag_values(domain, w), z, rule)
        if op == "absolute_projection":
            return bz.absolute_projection(domain, dom.normalized_kernel(domain, z), z, rule)
        if op == "bergman_project":
            return bz.bergman_project(domain, _first_coordinate, z, rule)
        k = dom.normalized_kernel(domain, z)
        return quad.integrate(rule, np.abs(k(rule.nodes)) ** 2).real

    @staticmethod
    def _error(op, value, z, kzz):
        # reproducing identities: B1 = 1, B*[K(w,w)](z) = K(z,z),
        # P+[k_z](z) = sqrt K(z,z), P w1 = z1, ||k_z||^2 = 1
        if op == "berezin_adjoint":
            return abs(value / kzz - 1.0)
        if op == "absolute_projection":
            return abs(value / math.sqrt(kzz) - 1.0)
        if op == "bergman_project":
            return abs(value - z[0])
        return abs(value - 1.0)

    def unit(self):
        block = self.blocks[self.next_block % len(self.blocks)]
        self.next_block += 1
        ops = []
        for op, name, z, kzz in block:
            domain, rule = self.rules[name]
            with self.tracer.request("bench.query"):
                t0 = _clock()
                value = self._query(op, domain, rule, z)
                t1 = _clock()
            err = self._error(op, value, z, kzz)
            ok = err <= QUERY_TOL[name]
            ops.append(Op(f"{op}.{name}", t1 - t0, ok, "" if ok else f"error {err:.3g} at {z}"))
        return ops


    def probe(self):
        """Round trips of the set-up rules through save_rule and load_rule.

        Traced runs only: the timed runs do not serialize, because the
        interpreted loop of ``save_rule`` runs up to twice as slow while other
        tenants load the host, too unsteady for a bounded metric.  The loaded
        nodes and weights must be bit-identical to the built ones and the
        weights must sum to the volume of the domain.
        """
        path = os.path.join(self.work_dir, "rule.bin")
        ops = []
        for name, (domain, rule) in self.rules.items():
            with self.tracer.request("bench.round_trip"):
                t0 = _clock()
                quad.save_rule(rule, path)
                loaded = quad.load_rule(path)
                t1 = _clock()
            os.remove(path)
            same = (np.array_equal(loaded.nodes, rule.nodes)
                    and np.array_equal(loaded.weights, rule.weights))
            mass = abs(float(np.sum(loaded.weights)) / dom.volume(domain) - 1.0)
            ok = same and mass <= 1e-12
            ops.append(Op(f"round_trip.{name}", t1 - t0, ok,
                          "" if ok else f"{name}: identical {same}, weight-sum error {mass:.3g}"))
        return ops


# ---------------------------------------------------------------------------
# operator-reports
# ---------------------------------------------------------------------------

SCAN_DOMAINS = ("disc", "ball2", "bidisc", "halfplane", "punctured-disc", "hartogs")
BLOWUP_EPS = (1e-1, 1e-2, 1e-3, 1e-4)


def _disc_norm_target(p):
    return math.pi * (p + 1.0) / (p * p * math.sin(math.pi / p))


class OperatorReports:
    """What `bergman norm`, `br-scan`, `blowup` and the P+ product check compute."""

    name = "operator-reports"
    unit_is_request = True
    trace_units = 1

    def __init__(self, seed, seconds, work_dir, tracer):
        self.seed, self.tracer = seed, tracer

    def setup(self):
        with self.tracer.request("bench.setup"):
            rng = np.random.default_rng(self.seed)
            self.transform_points = []
            for i in range(20):
                r1 = rng.uniform(0.15, 0.7)
                z1 = r1 * np.exp(2j * np.pi * rng.random())
                z = (z1, z1 * rng.uniform(0.0, 0.7) * np.exp(2j * np.pi * rng.random()))
                self.transform_points.append((0.1 if i % 2 == 0 else 0.01, z))

    # each report returns (ok, detail)

    @staticmethod
    def norm(p):
        if math.isinf(p):
            rule = quad.build_rule(dom.disc(), 24, 112)
            keep = np.abs(rule.nodes[:, 0]) <= 0.88
            est = on.estimate_norm(on.discretize_berezin(dom.disc(), rule,
                                                         row_nodes=rule.nodes[keep]), p)
            return abs(est.value - 1.0) <= 1e-6, f"p=inf {est.value!r}"
        est = on.estimate_norm(on.discretize_berezin_radial(radial_n=200, depth=34.0), p)
        target = _disc_norm_target(p)
        if p == 2.0:
            return abs(est.value - target) <= 0.05 * target, f"p=2 {est.value!r}"
        return 0.8 * target <= est.value <= 1.01 * target, f"p={p:g} {est.value!r}"

    @staticmethod
    def scan(name):
        rep = on.br_scan(dom.domain_by_name(name))
        ok = rep.divergent == (name == "hartogs")
        if name == "disc":
            ok = ok and 3.92 <= rep.supremum <= 4.0
        return ok, f"{name} sup {rep.supremum!r} divergent {rep.divergent}"

    @staticmethod
    def blowup():
        table = ht.blowup_table(list(BLOWUP_EPS), radial_n=160)
        ratios = [r.ratio_quadrature for r in table.rows]
        margin = min(r.ratio_quadrature - r.ratio_lower * 0.99 for r in table.rows)
        monotone = all(a < b for a, b in zip(ratios, ratios[1:]))
        ok = margin >= 0.0 and -0.55 <= table.slope <= -0.45 and monotone
        return ok, f"slope {table.slope!r} margin {margin!r} ratios {ratios}"

    @staticmethod
    def product(p):
        big, small_sq = on.product_norm_check(p)
        rel = abs(big - small_sq) / small_sq
        return rel <= 0.05, f"p={p:g} rel {rel!r}"

    @staticmethod
    def transform(eps, z):
        closed = ht.berezin_blowup_closed(eps, z)
        direct = ht.berezin_blowup_by_quadrature(eps, z)
        rel = abs(direct - closed) / abs(closed)
        return rel <= 1e-4, f"eps {eps} z {z} rel {rel!r}"

    def reports(self):
        yield "norm.p2", lambda: self.norm(2.0)
        yield "norm.p3", lambda: self.norm(3.0)
        yield "norm.pinf", lambda: self.norm(math.inf)
        for name in SCAN_DOMAINS:
            yield f"br_scan.{name}", lambda name=name: self.scan(name)
        yield "blowup", self.blowup
        yield "product.p2", lambda: self.product(2.0)
        yield "product.p3", lambda: self.product(3.0)
        for eps, z in self.transform_points:
            yield "transform", lambda eps=eps, z=z: self.transform(eps, z)

    def unit(self):
        ops = []
        for name, report in self.reports():
            with self.tracer.request(f"bench.{name}"):
                t0 = _clock()
                ok, detail = report()
                t1 = _clock()
            ops.append(Op(name, t1 - t0, ok, "" if ok else detail))
        return ops


# ---------------------------------------------------------------------------
# reproduce, in process (the traced run; the timed run drives the CLI)
# ---------------------------------------------------------------------------

# The unit-mass rules of check 01, probed directly for kernel and integrate
# costs per node.
PROBE_RULES = (("disc", dom.disc, "rule_disc_rows"), ("ball2", lambda: dom.ball(2), "rule_ball2"),
               ("bidisc", lambda: dom.polydisc(2), "rule_bidisc"),
               ("hartogs", dom.hartogs_triangle, "rule_hartogs"))
PROBE_POINTS = 3


class Reproduce:
    """The thirteen checks, builders first so each check's time is its own."""

    name = "reproduce"
    unit_is_request = True
    trace_units = 1

    def __init__(self, seed, seconds, work_dir, tracer):
        self.seed, self.tracer = seed, tracer
        # the cached rule and matrix builders, in definition order
        self.builders = {name: obj for name, obj in vars(reproduce).items()
                         if not name.startswith("_") and hasattr(obj, "cache_clear")}
        self.checks = [fn.__name__ for fn in reproduce.ALL_CHECKS]

    def setup(self):
        pass

    def unit(self):
        ops = []
        for cached in self.builders.values():
            cached.cache_clear()
        for name in self.builders:
            with self.tracer.request(f"bench.{name}"):
                t0 = _clock()
                getattr(reproduce, name)()
                t1 = _clock()
            ops.append(Op(name, t1 - t0, True))
        for name in self.checks:
            with self.tracer.request(f"bench.{name}"):
                t0 = _clock()
                res = getattr(reproduce, name)()
                t1 = _clock()
            ops.append(Op(name, t1 - t0, bool(res.passed),
                          "" if res.passed else f"{name}: {res.measured}"))
        return ops

    def probe(self):
        """Kernel evaluation and integration timed directly on the cached rules."""
        rng = np.random.default_rng(self.seed)
        for name, make, builder in PROBE_RULES:
            domain = make()
            rule = getattr(reproduce, builder)()
            for _ in range(PROBE_POINTS):
                z = sample_point(rng, name)
                with self.tracer.request("bench.probe"):
                    kzz = dom.kernel_diag(domain, z)
                    k = dom.kernel_values(domain, z, rule.nodes)
                    quad.integrate(rule, np.abs(k) ** 2 / kzz)
        return []


WORKLOADS = {cls.name: cls for cls in (Reproduce, PointQueries, OperatorReports)}


# ---------------------------------------------------------------------------
# per-layer metrics from a traced run
# ---------------------------------------------------------------------------

DOMAINS4 = ("disc", "ball2", "bidisc", "hartogs")
TRANSFORMS = ("berezin", "berezin_adjoint", "absolute_projection", "bergman_project")


def layer_metrics(summary, probe=None) -> dict:
    """Every per-layer metric, as {name: (value, unit)}.

    Totals (``.s``, counts, bytes) cover the whole traced run; ``.ms`` values
    are medians per call.  A layer the workload never calls reads 0.  With
    ``probe`` set, the per-node costs (reproduce) and the rule round trips
    (point-queries) come from the probe spans instead.
    """
    s = summary
    probe = probe or summary
    per_node = probe if probe.count("domains.kernel_values") else s
    m = {}
    for d in DOMAINS4:
        m[f"domains.kernel_values.ns_per_node.{d}"] = (
            per_node.ns_per_item("domains.kernel_values", d), "ns/node")
    m["domains.kernel_values.node_evals"] = (s.count("domains.kernel_values"), "count")
    m["quadrature.integrate.ns_per_node"] = (per_node.ns_per_item("quadrature.integrate"), "ns/node")
    for d in DOMAINS4:
        m[f"quadrature.build_rule.s.{d}"] = (s.total_s("quadrature.build_rule", d), "s")
    for d in DOMAINS4:
        m[f"quadrature.nodes.{d}"] = (s.count("quadrature.build_rule", d), "count")
    m["quadrature.node_bytes"] = (s.nbytes("quadrature.build_rule"), "bytes")
    written, read = probe.nbytes("quadrature.save_rule"), probe.nbytes("quadrature.load_rule")
    for op, nbytes in (("save_rule", written), ("load_rule", read)):
        secs = probe.total_s(f"quadrature.{op}")
        m[f"quadrature.{op}.s"] = (secs, "s")
        m[f"quadrature.{op}.mb_per_s"] = (nbytes / secs / 1e6 if secs else 0.0, "MB/s")
        m[f"quadrature.{op}.bytes"] = (nbytes, "bytes")
    m["quadrature.io_bytes"] = (written + read, "bytes")
    for op in TRANSFORMS:
        for d in DOMAINS4:
            m[f"transforms.{op}.ms.{d}"] = (s.median_ms(f"transforms.{op}", d), "ms")
    m["opnorm.discretize_berezin.s"] = (s.total_s("opnorm.discretize_berezin"), "s")
    m["opnorm.discretize_berezin.entries"] = (s.count("opnorm.discretize_berezin"), "count")
    for p in ("p2", "p3", "pinf"):
        m[f"opnorm.estimate_norm.ms.{p}"] = (s.median_ms("opnorm.estimate_norm", p), "ms")
    m["opnorm.estimate_norm.iterations.p3"] = (s.median_count("opnorm.estimate_norm", "p3"), "count")
    for d in SCAN_DOMAINS:
        m[f"opnorm.br_scan.ms.{d}"] = (s.median_ms("opnorm.br_scan", d), "ms")
    m["opnorm.br_scan.pairs"] = (s.count_under("domains.kernel_values", "opnorm.br_scan"), "count")
    for p in ("p2", "p3"):
        m[f"opnorm.product_norm_check.ms.{p}"] = (s.median_ms("opnorm.product_norm_check", p), "ms")
    m["hartogs.blowup_table.s"] = (s.total_s("hartogs.blowup_table"), "s")
    for fn in ("berezin_blowup_closed", "berezin_blowup_by_quadrature", "kernel_series"):
        m[f"hartogs.{fn}.ms"] = (s.median_ms(f"hartogs.{fn}"), "ms")
    for fn in reproduce.ALL_CHECKS:
        short = "_".join(fn.__name__.split("_")[:2])  # check_01
        m[f"reproduce.{short}.s"] = (s.total_s(f"reproduce.{fn.__name__}"), "s")
    for layer in ("domains", "quadrature", "transforms", "opnorm", "hartogs", "reproduce", "bench"):
        m[f"{layer}.self_s"] = (s.self_time.get(layer, 0.0), "s")
    return m
