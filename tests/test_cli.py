"""Command-line interface: payload shapes, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from bergman import cli, reproduce
from bergman import hartogs as ht
from bergman.domains import polydisc
from bergman.opnorm import BRScanReport, NormEstimate, br_scan


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestKernelCommand:
    def test_disc_value(self, capsys):
        code, out, _ = run_cli(capsys, ["kernel", "--domain", "disc", "--z", "0", "--w", "0"])
        assert code == 0
        payload = json.loads(out)
        assert payload["kernel"][0] == pytest.approx(1 / math.pi)

    def test_hartogs_point(self, capsys):
        code, out, _ = run_cli(capsys, ["kernel", "--domain", "hartogs",
                                        "--z", "0.5,0", "--w", "0.5,0"])
        assert code == 0
        payload = json.loads(out)
        assert payload["kernel"][0] == pytest.approx(1 / (math.pi ** 2 * 0.25 * 0.75 ** 2))

    def test_imaginary_suffix_i(self, capsys):
        code, out, _ = run_cli(capsys, ["kernel", "--domain", "disc",
                                        "--z", "0.3+0.1i", "--w", "0.2-0.4i"])
        assert code == 0


class TestBerezinCommand:
    def test_constant_symbol_is_one(self, capsys):
        code, out, _ = run_cli(capsys, ["berezin", "--domain", "disc",
                                        "--symbol", "one", "--z", "0.3+0.1i"])
        assert code == 0
        payload = json.loads(out)
        assert payload["berezin"][0] == pytest.approx(1.0, abs=1e-8)

    def test_unknown_symbol_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, ["berezin", "--domain", "disc",
                                        "--symbol", "nope", "--z", "0"])
        assert code == 2
        assert "symbol" in err


class TestNormCommand:
    def test_p2_matches_known_norm_value(self, capsys):
        code, out, _ = run_cli(capsys, ["norm", "--domain", "disc", "--p", "2"])
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["value"] - 3 * math.pi / 4) <= 0.05 * 3 * math.pi / 4
        assert payload["bound_kind"] == "approximate"

    def test_p_infinity(self, capsys):
        code, out, _ = run_cli(capsys, ["norm", "--domain", "disc", "--p", "inf",
                                        "--radial-n", "16", "--angular-n", "96"])
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(1.0, abs=1e-5)

    def test_p_infinity_matrix_agrees_with_the_matrix_free_row_sums(self, capsys):
        # the CLI and checks 02 and 04 share one matrix-free route, the blocked B1 pass
        # over the rows, so `norm --p inf` reports check 04's pinf to the bit
        code, out, _ = run_cli(capsys, ["norm", "--domain", "disc", "--p", "inf"])
        assert code == 0
        value, sums = json.loads(out)["value"], reproduce.berezin_row_sums()
        assert json.loads(out)["resolution"]["rows"] == len(sums)
        assert json.loads(out)["resolution"]["rings"] == 36  # B1 once per rotation ring
        assert value == float(np.max(sums))

    def test_p2_is_check_04s_value(self, capsys):
        # both read the radial grid opnorm.BEREZIN_RADIAL
        code, out, _ = run_cli(capsys, ["norm", "--p", "2"])
        assert code == 0
        assert json.loads(out)["value"] == reproduce.check_04_disc_norms().measured["p2"]


class TestScanAndBlowup:
    def test_br_scan_disc(self, capsys):
        code, out, _ = run_cli(capsys, ["br-scan", "--domain", "disc"])
        assert code == 0
        payload = json.loads(out)
        assert payload["divergent"] is False
        assert 3.9 <= payload["supremum"] <= 4.0

    def test_br_scan_hartogs(self, capsys):
        code, out, _ = run_cli(capsys, ["br-scan", "--domain", "hartogs"])
        payload = json.loads(out)
        assert payload["divergent"] is True

    def test_blowup_default_slope_in_band(self, capsys, tmp_path):
        path = os.path.join(tmp_path, "table.csv")
        code, _, err = run_cli(capsys, ["blowup", "--radial-n", "120", "--out", path])
        assert code == 0
        slope = float(err.split("slope:")[1])
        assert -0.55 <= slope <= -0.45

    def test_default_blowup_is_check_08s_table(self, capsys, monkeypatch):
        # both read hartogs.BLOWUP_EPS and hartogs.L2_NODES
        tables, blowup_table = [], ht.blowup_table

        def recorded(*args, **kwargs):
            tables.append(blowup_table(*args, **kwargs))
            return tables[-1]
        monkeypatch.setattr(ht, "blowup_table", recorded)
        code, out, _ = run_cli(capsys, ["blowup"])
        assert code == 0 and reproduce.check_08_blowup().passed
        cli_table, check_table = tables
        assert cli_table == check_table and out == check_table.to_csv()

    def test_blowup_csv(self, capsys, tmp_path):
        path = os.path.join(tmp_path, "table.csv")
        code, out, err = run_cli(capsys, ["blowup", "--eps", "1e-1,1e-2",
                                          "--radial-n", "96", "--out", path])
        assert code == 0
        lines = Path(path).read_text().strip().split("\n")
        assert lines[0] == "eps,norm_f,lower_bound_Bf,ratio_lower,ratio_quadrature"
        assert len(lines) == 3
        assert "slope" in err


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ["br-scan", "--domain", "disc", "--grading", "3"],
        ["br-scan", "--domain", "disc", "--format", "csv"],
        ["kernel", "--domain", "disc", "--z", "0", "--w", "0", "--radial-n", "8"],
        ["blowup", "--eps", "1e-1,1e-2", "--domain", "hartogs"],
        ["reproduce", "--domain", "disc"],
    ], ids=["br-scan --grading", "br-scan --format", "kernel --radial-n", "blowup --domain",
            "reproduce --domain"])
    def test_ignored_flag_is_config_error(self, capsys, argv):
        code, _, err = run_cli(capsys, argv)
        assert code == 2
        assert "unrecognized arguments" in err

    def test_p_near_one_is_a_typed_error(self, capsys):
        # dual ascent overflows at p = 1.001; it once exited 0 with a NaN-iterated 0.9994
        code, out, err = run_cli(capsys, ["norm", "--domain", "disc", "--p", "1.001"])
        assert (code, out) == (2, "")
        assert "non-finite iterate" in err

    @pytest.mark.parametrize("p", ["2", "3"])
    def test_angular_n_at_finite_p_is_config_error(self, capsys, p):
        # the radial-sector matrix of p = 2, 3 has no angular grid to size
        code, out, err = run_cli(capsys, ["norm", "--domain", "disc", "--p", p,
                                          "--angular-n", "5"])
        assert code == 2
        assert out == ""
        assert "--angular-n" in err


class TestResolutionFlags:
    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("argv", [
        ["blowup", "--eps", "1e-1,1e-2", "--radial-n"],
        ["norm", "--domain", "disc", "--p", "2", "--radial-n"],
        ["norm", "--domain", "disc", "--p", "inf", "--radial-n"],
        ["berezin", "--domain", "disc", "--z", "0.3", "--radial-n"],
        ["berezin", "--domain", "disc", "--z", "0.3", "--angular-n"],
        ["berezin", "--domain", "disc", "--z", "0.3", "--grading"],
    ], ids=["blowup", "norm p=2", "norm p=inf", "berezin radial", "berezin angular",
            "berezin grading"])
    def test_nonpositive_resolution_is_config_error(self, capsys, argv, value):
        # 0 is a given value, not an unset flag that falls back to the default
        code, out, err = run_cli(capsys, argv + [value])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_grading_is_config_error(self, capsys, value):
        code, out, err = run_cli(capsys, ["berezin", "--domain", "disc", "--z", "0.3",
                                          "--grading", value])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("eps", ["1e-300", "1e-320"])
    def test_non_finite_blowup_is_config_error(self, capsys, eps):
        code, out, err = run_cli(capsys, ["blowup", "--eps", f"1e-2,{eps}"])
        assert code == 2
        assert out == ""
        assert "not finite" in err or "overflows" in err


class TestDeterminism:
    def test_identical_payloads(self, capsys):
        argv = ["br-scan", "--domain", "disc"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2

    def test_norm_payload_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, ["norm", "--domain", "disc", "--p", "3",
                                        "--radial-n", "120"])
        assert code == 0
        payload = json.loads(out)
        assert payload["bound_kind"] == "lower"


class TestPayloadFormat:
    def test_float_rendering_round_trips(self):
        from bergman import jsonfmt
        import numpy as np
        rng = np.random.default_rng(1)
        for x in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200):
            assert float(json.loads(jsonfmt.dumps({"x": float(x)}))["x"]) == float(x)

    def test_strings_round_trip(self):
        from bergman import jsonfmt
        text = 'a\nb\tc\x01d"e\\f \u00e9\u2202'
        assert json.loads(jsonfmt.dumps({text: [text, "plain"]})) == {text: [text, "plain"]}
        assert jsonfmt.dumps("domain") == '"domain"'
        assert jsonfmt.dumps([True, False, None, 3, -7, np.int64(2)]) == "[true,false,null,3,-7,2]"

    @pytest.mark.parametrize("argv,report", [
        (["norm", "--domain", "disc", "--p", "2"], NormEstimate),
        (["br-scan", "--domain", "disc"], BRScanReport),
    ], ids=["norm", "br-scan"])
    def test_payload_keys_are_the_report_fields(self, capsys, argv, report):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert list(json.loads(out)) == [f.name for f in fields(report)]

    def test_br_scan_argmax_nests_points_of_re_im_pairs(self, capsys):
        code, out, _ = run_cli(capsys, ["br-scan", "--domain", "bidisc"])
        assert code == 0
        z, w = br_scan(polydisc(2)).argmax
        assert json.loads(out)["argmax"] == [[[c.real, c.imag] for c in z],
                                             [[c.real, c.imag] for c in w]]

    def test_symbol_with_a_control_character_gives_valid_json(self, capsys):
        code, out, _ = run_cli(capsys, ["berezin", "--domain", "disc", "--z", "0.3",
                                        "--symbol", "blowup:0.5\n", "--radial-n", "8",
                                        "--angular-n", "16"])
        assert code == 0
        assert json.loads(out)["symbol"] == "blowup:0.5\n"


class TestConfigErrors:
    def test_unknown_domain(self, capsys):
        code, _, err = run_cli(capsys, ["kernel", "--domain", "torus", "--z", "0", "--w", "0"])
        assert code == 2

    def test_bad_point(self, capsys):
        code, _, _ = run_cli(capsys, ["kernel", "--domain", "disc", "--z", "x", "--w", "0"])
        assert code == 2

    def test_point_outside(self, capsys):
        code, _, _ = run_cli(capsys, ["kernel", "--domain", "disc", "--z", "2.0", "--w", "0"])
        assert code == 2

    def test_wrong_dimension(self, capsys):
        code, _, _ = run_cli(capsys, ["kernel", "--domain", "hartogs", "--z", "0.5", "--w", "0.1,0"])
        assert code == 2

    def test_missing_subcommand(self, capsys):
        assert cli.main([]) == 2

    def test_repeated_eps(self, capsys):
        code, out, err = run_cli(capsys, ["blowup", "--eps", "0.1,0.1"])
        assert code == 2
        assert out == "" and "distinct" in err and "slope" not in err

    def test_radial_n_below_the_floor(self, capsys):
        code, out, err = run_cli(capsys, ["norm", "--p", "2", "--radial-n", "3"])
        assert code == 2 and out == "" and "radial_n" in err


class TestReproduceCommand:
    def test_subset_report_and_exit_codes(self, capsys, tmp_path, monkeypatch):
        fast = [reproduce.check_10_boas, reproduce.check_06_blowup_symbol_norm]
        monkeypatch.setattr(reproduce, "ALL_CHECKS", fast)
        path = os.path.join(tmp_path, "report.json")
        code, out, _ = run_cli(capsys, ["reproduce", "--out", path])
        assert code == 0
        assert "PASS" in out and "2/2 checks passed" in out
        rows = json.loads(Path(path).read_text())
        assert len(rows) == 2 and all(r["passed"] for r in rows)

    def test_failure_exit_code(self, capsys, monkeypatch):
        def failing():
            return reproduce.CheckResult(99, "always fails", False, {}, "none")
        monkeypatch.setattr(reproduce, "ALL_CHECKS", [failing])
        code, out, _ = run_cli(capsys, ["reproduce"])
        assert code == 1
        assert "FAIL" in out

    def test_csv_report(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(reproduce, "ALL_CHECKS", [reproduce.check_10_boas])
        path = os.path.join(tmp_path, "report.csv")
        code, _, _ = run_cli(capsys, ["reproduce", "--out", path, "--format", "csv"])
        assert code == 0
        lines = Path(path).read_text().strip().split("\n")
        assert lines[0] == "id,name,passed"
        assert lines[1].startswith("10,")

    def test_csv_report_is_byte_identical(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(reproduce, "ALL_CHECKS", [reproduce.check_10_boas])
        payloads = []
        for name in ("a.csv", "b.csv"):
            path = os.path.join(tmp_path, name)
            assert run_cli(capsys, ["reproduce", "--out", path, "--format", "csv"])[0] == 0
            with open(path, "rb") as fh:
                payloads.append(fh.read())
        assert payloads[0] == payloads[1]

    def test_records_name_the_rules_used(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(reproduce, "ALL_CHECKS", [
            reproduce.check_03_adjoint, reproduce.check_04_disc_norms,
            reproduce.check_06_blowup_symbol_norm, reproduce.check_07_blowup_transform,
            reproduce.check_09_weak_pairing, reproduce.check_10_boas,
            reproduce.check_11_product_norm, reproduce.check_12_schur_probe])
        path = os.path.join(tmp_path, "report.json")
        assert run_cli(capsys, ["reproduce", "--out", path])[0] == 0
        adjoint, norms, symbol, transform, weak, boas, product, schur = (
            r["resolution"] for r in json.loads(Path(path).read_text()))
        assert (adjoint["rule"]["radial_n"], adjoint["rule"]["angular_n"]) == (32, 64)
        assert len(adjoint["patch_rules"]) == 5
        for trial in adjoint["patch_rules"]:
            assert [(g["radial_n"], g["angular_n"], g["nodes"]) for g in trial] == [
                (24, 32, 24 * 32), (26, 36, 26 * 36), (30, 40, 30 * 40), (32, 44, 32 * 44)]
            assert all(g["region"].startswith("patch(") for g in trial)
        assert (norms["radial"]["radial_n"], norms["radial"]["depth"]) == (200, 34.0)
        assert norms["radial"]["reduction"] == "radial-sector"
        assert (norms["rows_rule"]["radial_n"], norms["rows_rule"]["angular_n"]) == (24, 112)
        assert 0 < norms["rows"] < norms["rows_rule"]["nodes"]
        assert norms["p2"] == {"method": "weighted-svd", "converged": True}
        assert norms["p3"]["family_size"] > 0 and len(norms["p3"]["witness"]) == 2
        assert (symbol["rule"]["radial_n"], symbol["rule"]["angular_n"],
                symbol["rule"]["origin_grading"]) == (64, 4, 15.0)
        assert transform["substitution"] == {"radial_n": 160, "s_n": 120, "angular_n": 128}
        assert (transform["generic"]["radial_n"], transform["generic"]["angular_n"],
                transform["generic"]["origin_grading"]) == (32, 24, 12.0)
        assert transform["generic"]["nodes"] == len(reproduce.rule_hartogs_origin())
        assert [(f["kind"], f["radial_n"], f["depth"]) for f in product["factors"]] == [
            ("absolute", 120, 30.0)] * 2
        assert product["rows"] == 120 ** 2 and product["converged"]
        assert weak["rule"]["domain"] == "hartogs"
        assert (weak["rule"]["radial_n"], weak["rule"]["angular_n"]) == (20, 48)
        assert weak["rule"]["nodes"] == len(reproduce.rule_hartogs()) == 40 ** 2 * 48 ** 2
        assert boas["norm_rule"] == {"gauss_legendre_nodes": [64, 128], "variable": "u = r/(1+r)",
                                     "rel_agreement": 1e-11}
        assert [(g["radial_n"], g["angular_n"], g["nodes"]) for g in schur["rules"]] == [
            (32, 64, 64 * 64), (64, 128, 128 * 128)]

    @pytest.fixture
    def fresh_row_sums(self):
        reproduce.berezin_row_sums.cache_clear()
        yield
        reproduce.berezin_row_sums.cache_clear()

    def test_unit_mass_rows_and_scan_records(self, capsys, tmp_path, monkeypatch, fresh_row_sums):
        # a cut other than the pinned one shows that the record and `norm --p inf` both read it
        monkeypatch.setattr(reproduce, "ROW_CUT", 0.8)
        monkeypatch.setattr(reproduce, "ALL_CHECKS", [
            reproduce.check_01_normalization, reproduce.check_02_b_one,
            reproduce.check_05_hartogs_kernel])
        path = os.path.join(tmp_path, "report.json")
        assert run_cli(capsys, ["reproduce", "--out", path])[0] == 0
        unit, rows, kernel = json.loads(Path(path).read_text())
        disc, ball, bidisc, hartogs = unit["resolution"]["rules"]
        assert "factors" not in ball
        assert [(f["radial_n"], f["angular_n"], f["nodes"]) for f in disc["factors"]] == [
            (24, 112, 48 * 112)]
        assert [(f["domain"], f["radial_n"], f["angular_n"], f["nodes"])
                for f in bidisc["factors"]] == [("disc", 16, 48, 32 * 48)] * 2
        assert [(f["domain"], f["origin_grading"], f["nodes"]) for f in hartogs["factors"]] == [
            ("disc", 3.0, 40 * 48), ("disc", 1.0, 40 * 48)]
        assert bidisc["nodes"] == (32 * 48) ** 2 and hartogs["nodes"] == (40 * 48) ** 2
        for kind in ("polydisc", "hartogs"):
            assert 0.0 <= unit["measured"][f"{kind}_factored_vs_direct"] <= 1e-13
        assert rows["resolution"]["row_cut"] == "|z| <= 0.8"
        # `norm --p inf` reads the same row matrix
        code, out, _ = run_cli(capsys, ["norm", "--p", "inf"])
        assert code == 0 and json.loads(out)["resolution"]["rows"] == rows["resolution"]["rows"]
        assert kernel["resolution"]["series_truncation"] == 90
        scan = kernel["resolution"]["scan"]
        assert sorted(scan) == ["ball", "disc", "half-plane", "hartogs", "polydisc"]
        assert all(s["levels"] == 2 for s in scan.values())
        assert scan["hartogs"]["sup_fine"] >= 10 * scan["hartogs"]["sup_base"]
        assert max(scan["disc"]["sup_base"], scan["disc"]["sup_fine"]) == kernel["measured"]["disc_sup"]

    def test_blowup_record_names_its_method(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(reproduce, "ALL_CHECKS", [reproduce.check_08_blowup])
        payloads = []
        for name in ("a.json", "b.json"):
            path = os.path.join(tmp_path, name)
            assert run_cli(capsys, ["reproduce", "--out", path])[0] == 0
            with open(path, "rb") as fh:
                payloads.append(fh.read())
        assert payloads[0] == payloads[1]
        res = json.loads(payloads[0])[0]["resolution"]
        assert [(p["t=1-|z1|^2"], p["grading_toward_0"], p["nodes"]) for p in res["panels"]] == [
            ([0.1, 1.0], 1.0, 160), ([0.001, 0.1], 1.0, 160), ([0.0, 0.001], 3.0, 160)]
        assert res["phi"] == {"x < 0.5": "direct", "x >= 0.5": "DLMF 15.8.10", "terms": 60}


def _spy(monkeypatch, module, name, calls):
    """Replace ``module.name`` by a wrapper that appends each call's arguments to ``calls``."""
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, spy)


class TestDerivedRecords:
    """Each count, seed and constant a check records is the one it used."""

    def test_check_01_points(self, monkeypatch):
        calls = []
        _spy(monkeypatch, reproduce.dom, "sample_interior", calls)
        res = reproduce.check_01_normalization()
        assert len(calls) == 4
        assert {args[1] for args, _ in calls} == {res.resolution["points"]}

    def test_check_10_cases(self, monkeypatch):
        calls = []
        _spy(monkeypatch, reproduce.dom, "monomial_l2_norm2", calls)
        res = reproduce.check_10_boas()
        assert len(calls) == res.resolution["cases"]

    def test_check_05_scan_orbits(self, monkeypatch):
        reports = []
        real = reproduce.on.br_scan

        def spy(domain):
            reports.append(real(domain))
            return reports[-1]
        monkeypatch.setattr(reproduce.on, "br_scan", spy)
        scan = reproduce.check_05_hartogs_kernel().resolution["scan"]
        assert {kind: record["orbit"] for kind, record in scan.items()} == {
            "disc": [4, 8], "ball": [4, 16], "polydisc": [4, 16], "half-plane": [1, 1],
            "hartogs": [2, 4]}
        assert [record["orbit"] for record in scan.values()] == [
            rep.resolution["orbit"] for rep in reports]

    def test_check_12_radii(self, monkeypatch):
        calls = []
        _spy(monkeypatch, reproduce.bz, "absolute_projection", calls)
        res = reproduce.check_12_schur_probe()
        radii = res.resolution["radii"]
        for args, _ in calls:
            z = args[2]
            assert radii["count"] == len(z)
            assert radii["range"] == [float(np.min(z.real)), float(np.max(z.real))]

    def test_check_13_seed_points_and_constant(self, monkeypatch):
        seeds, calls = [], []
        _spy(monkeypatch, np.random, "default_rng", seeds)
        _spy(monkeypatch, reproduce.bz, "pointwise_domination", calls)
        res = reproduce.check_13_domination()
        assert [args for args, _ in seeds] == [(res.resolution["seed"],)]
        disc_calls = [args for args, _ in calls if args[0].kind == "disc"]
        assert len(disc_calls) == res.resolution["points"]
        assert {args[3] for args, _ in calls} == {res.resolution["C"]}


def test_scipy_stays_off_the_import_path():
    # the package, the CLI and the two checks that once used scipy import numpy only
    script = (
        "import sys\n"
        "import bergman, bergman.cli\n"
        "from bergman import reproduce\n"
        "assert reproduce.check_08_blowup().passed and reproduce.check_10_boas().passed\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.strip() == "[]"
