"""The desk-scale reproduction suite.

Thirteen checks pin the toolkit against its analytic targets: normalization
of the kernels, the averaging identities of the Berezin transform, the
adjoint witness 1/3, the disc p-norm values, the Hartogs kernel identities,
the norm-ratio blow-up of the singular symbol family, the weak-pairing limit, the Boas
integrability classifier, product multiplicativity of P+, a Schur-test
probe, and pointwise domination by P+.

Each check records the grids it ran on, so a failure is reproducible at the
same resolution.  Everything is seeded and deterministic.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from bergman import transforms as bz
from bergman import domains as dom
from bergman import hartogs as ht
from bergman import opnorm as on
from bergman import quadrature as quad


@dataclass
class CheckResult:
    ident: int
    name: str
    passed: bool
    measured: dict
    tolerance: str
    seconds: float = 0.0
    resolution: dict = field(default_factory=dict)

    def row(self) -> dict:
        return {
            "id": self.ident, "name": self.name, "passed": self.passed,
            "measured": self.measured, "tolerance": self.tolerance,
            "resolution": self.resolution,
        }


# ---------------------------------------------------------------------------
# rules and row sums: cached only what two or more checks share
# ---------------------------------------------------------------------------
# A builder without a cache is called by each of its readers, so its rule lives
# no longer than the check that reads it.  A product rule keeps only its axes, but
# a cached one would also keep any whole node or weight array a reader formed.

@lru_cache(maxsize=None)
def rule_disc():
    return quad.build_rule(dom.disc(), *dom.disc().default_grid)


# The "rows" of checks 02 and 04 and of `bergman norm --p inf`: the disc Berezin
# operator with columns on the disc(*ROWS_GRID) rule and rows at its nodes with
# |z| <= ROW_CUT, where the column rule resolves B1 = 1.
ROWS_GRID = (24, 112)
ROW_CUT = 0.88


def row_nodes(rule) -> np.ndarray:
    """The (rows, 1) nodes of the disc ``rule`` with |z| <= ROW_CUT."""
    return rule.nodes[np.abs(rule.nodes[:, 0]) <= ROW_CUT]


@lru_cache(maxsize=None)
def rule_disc_rows():
    return quad.build_rule(dom.disc(), *ROWS_GRID)


def rule_disc_fine():
    return quad.build_rule(dom.disc(), 64, 128)


def rule_bidisc():
    return quad.build_rule(dom.polydisc(2), 16, 48)


def rule_ball2():
    return quad.build_rule(dom.ball(2), 28, 48)


def rule_hartogs():
    return quad.build_rule(dom.hartogs_triangle(), *dom.hartogs_triangle().default_grid)


def rule_hartogs_origin():
    # heavy origin grading absorbs |w1|^(-2+2 eps) down to eps = 0.02
    return quad.build_rule(dom.hartogs_triangle(), 32, 24, origin_grading=12.0)


def rule_hartogs_radial():
    # the blow-up symbols are radial in |w1|; spend nodes radially
    return quad.build_rule(dom.hartogs_triangle(), 64, 4, origin_grading=15.0)


@lru_cache(maxsize=None)
def berezin_row_sums():
    """The row sums of the rows operator, B1 at its rows: no matrix is formed.

    Checks 02 and 04 read these, and `bergman norm --p inf` takes its maximum
    by the same ``OperatorMatrix.row_sums`` of ``discretize_berezin``, the
    blocked compensated pass of ``transforms.unit_mass``: the rows are 36 whole
    rings of the rule, so it runs at one row per ring.
    """
    rule = rule_disc_rows()
    return on.discretize_berezin(dom.disc(), rule, row_nodes=row_nodes(rule)).row_sums()


def _rel(a, b):
    return abs(a - b) / abs(b)


def _one(w):
    return np.ones(len(w))


def _grid(rule) -> dict:
    """The grid a check ran on, read from the rule itself."""
    return asdict(rule.meta) | {"nodes": len(rule)}


# ---------------------------------------------------------------------------
# the thirteen checks
# ---------------------------------------------------------------------------

def check_01_normalization() -> CheckResult:
    cases = [
        (dom.disc(), rule_disc_rows, 1e-8, 101),
        (dom.ball(2), rule_ball2, 1e-6, 102),
        (dom.polydisc(2), rule_bidisc, 1e-8, 103),
        (dom.hartogs_triangle(), rule_hartogs, 1e-6, 104),
    ]
    n_points = 20
    measured = {}
    grids = []
    passed = True
    for domain, make_rule, tol, seed in cases:
        rule = make_rule()
        # ||k_z||^2 = int |K(w,z)|^2 / K(z,z) dV(w) = B1(z); a product over the factors where the rule has them
        points = np.array(dom.sample_interior(domain, n_points, seed=seed))
        masses = bz.unit_mass(domain, points, rule)
        worst = float(np.max(np.abs(masses - 1.0)))
        measured[domain.kind] = worst
        passed &= worst <= tol
        grid = _grid(rule)
        if rule.factors:
            grid["factors"] = [_grid(f) for f in rule.factors]
        if len(rule.factors) > 1:
            # the full-dimensional blocked pass at the first point witnesses the factored sum
            direct = float(bz.berezin(domain, _one, points[:1], rule)[0].real)
            gap = abs(masses[0] - direct) / direct
            measured[f"{domain.kind}_factored_vs_direct"] = gap
            passed &= gap <= 1e-13
        grids.append(grid)
    return CheckResult(1, "normalized kernel has unit mass", passed, measured,
                       "1e-8 disc/bidisc, 1e-6 ball/hartogs; factored vs direct 1e-13 relative",
                       resolution={"rules": grids, "points": n_points})


def check_02_b_one() -> CheckResult:
    domain = dom.disc()
    rule = rule_disc_rows()
    vals = bz.berezin(domain, _one, np.array(dom.sample_interior(domain, 20, seed=2)), rule)
    worst_pt = float(np.max(np.abs(vals - 1.0)))
    row_sums = berezin_row_sums()
    worst_row = float(np.max(np.abs(row_sums - 1.0)))
    passed = worst_pt <= 1e-8 and worst_row <= 1e-6
    return CheckResult(2, "B1 = 1 pointwise and on matrix rows", passed,
                       {"pointwise": worst_pt, "rowsum": worst_row},
                       "1e-8 points, 1e-6 rows",
                       resolution={"rule": _grid(rule), "points": len(vals),
                                   "rows": len(row_sums), "row_cut": f"|z| <= {ROW_CUT}"})


def _bump(c, r):
    def f(w):
        d2 = np.abs(w - c) ** 2 / r ** 2
        return np.where(d2 < 1.0, (1.0 - d2) ** 3, 0.0)
    return f


def check_03_adjoint() -> CheckResult:
    domain = dom.disc()
    rule = rule_disc()
    val = bz.berezin_adjoint(domain, _one, 0j, rule).real
    dev_third = abs(val - 1.0 / 3.0)

    rng = np.random.default_rng(33)
    worst_dual = 0.0
    patch_rules = []  # per trial: B phi outer/inner, B* psi outer/inner
    for _ in range(5):
        c1 = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45))
        c2 = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45))
        r1 = rng.uniform(0.15, 0.25)
        r2 = rng.uniform(0.15, 0.25)
        phi, psi = _bump(c1, r1), _bump(c2, r2)
        # four distinct support-adapted rules keep both double quadratures
        # independent while integrating the compactly supported bumps exactly
        pa_out = quad.disc_patch_rule(c2, r2, 24, 32)
        pa_in = quad.disc_patch_rule(c1, r1, 26, 36)
        pb_out = quad.disc_patch_rule(c1, r1, 30, 40)
        pb_in = quad.disc_patch_rule(c2, r2, 32, 44)
        bphi = bz.berezin(domain, phi, pa_out.nodes, pa_in)
        lhs = bz.pairing(pa_out, bphi, psi(pa_out.nodes[:, 0])).real
        bstar = bz.berezin_adjoint(domain, psi, pb_out.nodes, pb_in)
        rhs = bz.pairing(pb_out, phi(pb_out.nodes[:, 0]), np.conj(bstar)).real
        worst_dual = max(worst_dual, abs(lhs - rhs) / abs(lhs))
        patch_rules.append([_grid(r) for r in (pa_out, pa_in, pb_out, pb_in)])
    passed = dev_third <= 1e-8 and worst_dual <= 1e-6
    return CheckResult(3, "adjoint transform: witness 1/3 and duality", passed,
                       {"adjoint_one_at_zero_dev": dev_third, "duality_rel": worst_dual},
                       "1e-8 and 1e-6 relative",
                       resolution={"rule": _grid(rule), "patch_rules": patch_rules})


def _disc_norm(p: float) -> float:
    """The Berezin transform's L^p norm on the disc (Dostanic): pi (p + 1) / (p^2 sin(pi / p))."""
    return math.pi * (p + 1.0) / (p * p * math.sin(math.pi / p))


def check_04_disc_norms() -> CheckResult:
    radial = on.discretize_berezin_radial()
    est2 = on.estimate_norm(radial, 2.0)
    target2 = _disc_norm(2.0)
    ok2 = abs(est2.value - target2) <= 0.05 * target2

    # the maximal row sum, the very float `bergman norm --p inf` reports
    row_sums = berezin_row_sums()
    pinf = float(np.max(row_sums))
    ok_inf = abs(pinf - 1.0) <= 1e-6

    wit3 = on.witness_lower_bound(radial, 3.0)
    target3 = _disc_norm(3.0)
    ok3 = 0.8 * target3 <= wit3.value <= 1.01 * target3
    passed = ok2 and ok_inf and ok3
    return CheckResult(4, "disc p-norms: 3pi/4 at p=2, 1 at p=inf, p=3 witness", passed,
                       {"p2": est2.value, "p2_target": target2,
                        "pinf": pinf, "p3_witness": wit3.value,
                        "p3_target": target3},
                       "5% at p=2; 1e-6 at p=inf; [0.8, 1.01] x target at p=3",
                       resolution={"radial": radial.meta, "rows": len(row_sums),
                                   "rows_rule": _grid(rule_disc_rows()),
                                   "p2": {"method": est2.method,
                                          "converged": est2.resolution["converged"]},
                                   "p3": {key: wit3.resolution[key]
                                          for key in ("witness", "family_size")}})


def check_05_hartogs_kernel() -> CheckResult:
    domain = dom.hartogs_triangle()
    rng = np.random.default_rng(55)
    worst_series = 0.0
    for _ in range(20):
        z1 = rng.uniform(0.2, 0.8) * np.exp(2j * np.pi * rng.random())
        w1 = rng.uniform(0.2, 0.8) * np.exp(2j * np.pi * rng.random())
        z = (z1, z1 * rng.uniform(0.0, 0.8) * np.exp(2j * np.pi * rng.random()))
        w = (w1, w1 * rng.uniform(0.0, 0.8) * np.exp(2j * np.pi * rng.random()))
        exact = dom.kernel(domain, w, z)
        series = ht.kernel_series(w, z)
        worst_series = max(worst_series, abs(series - exact) / abs(exact))

    worst_path = 0.0
    delta = 0.5
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        got = dom.kernel_ratio(domain, (delta, 0.0), (eps, 0.0))
        want = delta * (1 - delta ** 2) ** 2 / (eps * (1 - delta * eps) ** 2)
        worst_path = max(worst_path, _rel(got, want))

    reports = {d.kind: on.br_scan(d) for d in (dom.disc(), dom.ball(2), dom.polydisc(2),
                                               dom.upper_half_plane(), dom.hartogs_triangle())}
    flags = {kind: rep.divergent for kind, rep in reports.items()}
    sup_disc = reports["disc"].supremum
    flags_ok = (flags["hartogs"] and not flags["disc"] and not flags["ball"]
                and not flags["polydisc"] and not flags["half-plane"])
    passed = (worst_series <= 1e-8 and worst_path <= 1e-10 and flags_ok
              and 3.92 <= sup_disc <= 4.0)
    return CheckResult(5, "Hartogs kernel: series, ratio path, BR flags", passed,
                       {"series_rel": worst_series, "path_rel": worst_path,
                        "disc_sup": sup_disc, "flags": flags},
                       "1e-8 series; 1e-10 path; disc sup in [3.92, 4]",
                       resolution={"series_truncation": ht.SERIES_TRUNCATION,
                                   "scan": {kind: {key: rep.resolution[key] for key in
                                                   ("levels", "orbit", "sup_base", "sup_fine")}
                                            for kind, rep in reports.items()}})


def check_06_blowup_symbol_norm() -> CheckResult:
    rule = rule_hartogs_radial()
    worst = 0.0
    for eps in (0.5, 0.1, 0.02):
        got = quad.integrate(rule, lambda w: ht.blowup_symbol_values(eps, w) ** 2).real
        worst = max(worst, _rel(got, math.pi ** 2 / (2 * eps)))
    return CheckResult(6, "blow-up symbol norm: pi^2/(2 eps) by quadrature", worst <= 5e-3,
                       {"worst_rel": worst}, "0.5% for eps in {0.5, 0.1, 0.02}",
                       resolution={"rule": _grid(rule)})


def check_07_blowup_transform() -> CheckResult:
    rng = np.random.default_rng(77)
    worst = 0.0
    for eps in (0.1, 0.01):
        for _ in range(10):
            r1 = rng.uniform(0.15, 0.7)
            z1 = r1 * np.exp(2j * np.pi * rng.random())
            z = (z1, z1 * rng.uniform(0.0, 0.7) * np.exp(2j * np.pi * rng.random()))
            closed = ht.berezin_blowup_closed(eps, z)
            direct = ht.berezin_blowup_by_quadrature(eps, z)
            worst = max(worst, _rel(direct, closed))
    # the generic rule-driven route agrees as well where its grading suffices
    z = (0.3 + 0.0j, 0.1 + 0.0j)
    rule = rule_hartogs_origin()
    generic = bz.berezin(dom.hartogs_triangle(), lambda w: ht.blowup_symbol_values(0.1, w),
                         z, rule).real
    generic_rel = _rel(generic, ht.berezin_blowup_closed(0.1, z))
    passed = worst <= 1e-4 and generic_rel <= 1e-4
    return CheckResult(7, "closed-form blow-up transform vs direct quadrature", passed,
                       {"worst_rel": worst, "generic_rule_rel": generic_rel},
                       "1e-4 relative, eps in {0.1, 0.01}",
                       resolution={"substitution": dict(ht.DIRECT_NODES), "generic": _grid(rule)})


def check_08_blowup() -> CheckResult:
    table = ht.blowup_table(ht.BLOWUP_EPS)
    margin = min(r.ratio_quadrature - r.ratio_lower * 0.99 for r in table.rows)
    monotone = all(a.ratio_quadrature < b.ratio_quadrature
                   for a, b in zip(table.rows, table.rows[1:]))
    passed = margin >= 0.0 and -0.55 <= table.slope <= -0.45 and monotone
    panels = [{"t=1-|z1|^2": [lo, hi], "grading_toward_0": g, "nodes": ht.L2_NODES}
              for lo, hi, g in ht.L2_PANELS]
    phi = {f"x < {ht.PHI_SPLIT}": "direct", f"x >= {ht.PHI_SPLIT}": "DLMF 15.8.10",
           "terms": ht.PHI_TERMS}
    return CheckResult(8, "blow-up of the transform-to-symbol norm ratio", passed,
                       {"slope": table.slope, "min_margin": margin,
                        "ratios": [r.ratio_quadrature for r in table.rows]},
                       "ratio >= bound - 1%; slope in [-0.55, -0.45]",
                       resolution={"eps": list(ht.BLOWUP_EPS), "panels": panels, "phi": phi})


def check_09_weak_pairing() -> CheckResult:
    worst_closed = max(abs(ht.weak_pairing(j) - math.pi * (1 - j ** -2))
                       for j in range(2, 11))
    rule = rule_hartogs()
    qv = ht.weak_pairing_by_quadrature(3, rule)
    qdev = _rel(qv, math.pi * (1 - 1.0 / 9.0))
    passed = worst_closed <= 1e-8 and qdev <= 1e-4
    return CheckResult(9, "weak pairing along (1/j, 0)", passed,
                       {"closed_dev": worst_closed, "quadrature_rel": qdev},
                       "1e-8 closed (j=2..10); 1e-4 quadrature (j=3)",
                       resolution={"rule": _grid(rule)})


def check_10_boas() -> CheckResult:
    profile = dom.boas_profile()
    cases = [(j, k) for j in range(5) for k in range(5)]
    mistakes = sum(math.isfinite(dom.monomial_l2_norm2(profile, (j, k))) != (j < k)
                   for j, k in cases)
    norm_rule = {"gauss_legendre_nodes": [dom.MONOMIAL_NODES, 2 * dom.MONOMIAL_NODES],
                 "variable": "u = r/(1+r)" if math.isinf(profile.r1_max) else "r",
                 "rel_agreement": dom.MONOMIAL_REL_AGREEMENT}
    return CheckResult(10, "Boas integrability classifier j < k", mistakes == 0,
                       {"mistakes": mistakes}, "exact on 0 <= j, k <= 4",
                       resolution={"cases": len(cases), "norm_rule": norm_rule})


def check_11_product_norm() -> CheckResult:
    # the estimates of product_norm_check(2.0), keeping the Kronecker estimate's record; an
    # estimate that did not converge fails the check whatever its value
    est, factor = on._product_estimates(2.0)
    big, small_sq = est.value, factor.value ** 2
    rel = abs(big - small_sq) / small_sq
    converged = {"bidisc": est.resolution["converged"], "disc": factor.resolution["converged"]}
    return CheckResult(11, "P+ norm multiplies across the bidisc",
                       rel <= 0.05 and all(converged.values()),
                       {"bidisc": big, "disc_squared": small_sq, "rel": rel,
                        "converged": converged},
                       "5% at p=2", resolution=est.resolution)


def check_12_schur_probe() -> CheckResult:
    domain = dom.disc()
    f = lambda w: (1.0 - np.abs(w)) ** -0.3
    radii = 1.0 - np.logspace(math.log10(0.04), math.log10(0.6), 80)
    weight = (1.0 - radii) ** -0.3
    rules = (rule_disc(), rule_disc_fine())
    maxima = [float(np.max(bz.absolute_projection(domain, f, radii[:, None].astype(complex), rule)
                           / weight)) for rule in rules]
    growth = maxima[1] / maxima[0]
    passed = math.isfinite(maxima[1]) and growth < 1.05
    return CheckResult(12, "Schur probe: P+ rho^-0.3 / rho^-0.3 stays put", passed,
                       {"max_base": maxima[0], "max_fine": maxima[1], "growth": growth},
                       "finite, growth < 5% under refinement doubling",
                       resolution={"rules": [_grid(rule) for rule in rules],
                                   "radii": {"count": len(radii),
                                             "range": [float(radii.min()), float(radii.max())]}})


def check_13_domination() -> CheckResult:
    domain = dom.disc()
    rule = rule_disc()
    seed, trials, C = 13, 50, 4.0
    rng = np.random.default_rng(seed)
    all_ok = True
    for _ in range(trials):
        c = rng.standard_normal(6) * np.array([1.0, 0.6, 0.6, 0.8, 0.4, 0.4])

        def phi(w, c=c):
            return (c[0] + c[1] * w.real + c[2] * w.imag + c[3] * np.abs(w) ** 2
                    + c[4] * (w ** 2).real + c[5] * (w ** 2).imag)

        r = 0.05 + 0.83 * math.sqrt(rng.random())
        z = (r * np.exp(2j * np.pi * rng.random()),)
        all_ok &= bz.pointwise_domination(domain, phi, z, C, rule)

    # on the Hartogs triangle no fixed constant dominates: the blow-up symbol defeats C = 4
    hrule = rule_hartogs_origin()
    hres = bz.pointwise_domination(dom.hartogs_triangle(),
                                   lambda w: ht.blowup_symbol_values(0.02, w),
                                   (0.5, 0.0), C, hrule)
    passed = all_ok and not hres
    return CheckResult(13, f"pointwise domination |B phi| <= {C:g} P+|phi| on the disc", passed,
                       {"disc_all_hold": all_ok, "hartogs_counterexample_holds": hres},
                       f"{trials} random symbol/point pairs; Hartogs must fail",
                       resolution={"rule": _grid(rule), "hartogs_rule": _grid(hrule), "C": C,
                                   "seed": seed, "points": trials})


ALL_CHECKS = [
    check_01_normalization, check_02_b_one, check_03_adjoint, check_04_disc_norms,
    check_05_hartogs_kernel, check_06_blowup_symbol_norm, check_07_blowup_transform,
    check_08_blowup, check_09_weak_pairing, check_10_boas, check_11_product_norm,
    check_12_schur_probe, check_13_domination,
]


def run_all() -> list[CheckResult]:
    results = []
    for fn in ALL_CHECKS:
        t0 = time.perf_counter()
        res = fn()
        res.seconds = time.perf_counter() - t0
        results.append(res)
    return results
