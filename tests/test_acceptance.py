"""The acceptance gate: one test per reproduction criterion.

Each test runs its check at the pinned resolution and tolerance and prints a
pass/fail line with the measured quantities; `bergman reproduce` runs the
same checks from the command line.
"""

from bergman import reproduce
from bergman.quadrature import QuadratureRule


def _run(check):
    result = check()
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {result.ident}: {result.name} -> {result.measured} "
          f"(tolerance: {result.tolerance})")
    assert result.passed, (result.name, result.measured, result.tolerance)


def test_criterion_01_normalized_kernels_unit_mass():
    _run(reproduce.check_01_normalization)


def test_criterion_02_b_one_pointwise_and_rows():
    _run(reproduce.check_02_b_one)


def test_criterion_03_adjoint_witness_and_duality():
    _run(reproduce.check_03_adjoint)


def test_criterion_04_disc_p_norms():
    _run(reproduce.check_04_disc_norms)


def test_criterion_05_hartogs_kernel_and_br_flags():
    _run(reproduce.check_05_hartogs_kernel)


def test_criterion_06_blowup_symbol_norm():
    _run(reproduce.check_06_blowup_symbol_norm)


def test_criterion_07_blowup_transform_closed_vs_quadrature():
    _run(reproduce.check_07_blowup_transform)


def test_criterion_08_blowup_rate():
    _run(reproduce.check_08_blowup)


def test_criterion_09_weak_pairing():
    _run(reproduce.check_09_weak_pairing)


def test_criterion_10_boas_classifier():
    _run(reproduce.check_10_boas)


def test_criterion_11_product_norms():
    _run(reproduce.check_11_product_norm)


def test_criterion_12_schur_probe():
    _run(reproduce.check_12_schur_probe)


def test_criterion_13_pointwise_domination():
    _run(reproduce.check_13_domination)


def test_run_all_caches_only_what_several_checks_share():
    # each check that reads a big Hartogs rule builds it, so the rule lives as long
    # as its reader; only the small disc rules and row sums stay cached
    reproduce.run_all()
    cached = {name: fn for name, fn in vars(reproduce).items() if hasattr(fn, "cache_info")}
    assert set(cached) == {"rule_disc", "rule_disc_rows", "berezin_row_sums"}
    for fn in cached.values():
        held = fn() if fn.cache_info().currsize else None  # a hit: the cached object
        assert not (isinstance(held, QuadratureRule) and len(held) > 10 ** 6)
