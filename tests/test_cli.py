"""Command-line interface: payload shapes, determinism, exit codes."""

import json
import math
import os

import pytest

from bergman import cli, reproduce


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

    def test_blowup_csv(self, capsys, tmp_path):
        path = os.path.join(tmp_path, "table.csv")
        code, out, err = run_cli(capsys, ["blowup", "--eps", "1e-1,1e-2",
                                          "--radial-n", "96", "--out", path])
        assert code == 0
        lines = open(path).read().strip().split("\n")
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


class TestReproduceCommand:
    def test_subset_report_and_exit_codes(self, capsys, tmp_path, monkeypatch):
        fast = [reproduce.check_10_boas, reproduce.check_06_blowup_symbol_norm]
        monkeypatch.setattr(reproduce, "ALL_CHECKS", fast)
        path = os.path.join(tmp_path, "report.json")
        code, out, _ = run_cli(capsys, ["reproduce", "--out", path])
        assert code == 0
        assert "PASS" in out and "2/2 checks passed" in out
        rows = json.loads(open(path).read())
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
        lines = open(path).read().strip().split("\n")
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
