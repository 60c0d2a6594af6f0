import json
import math

import pytest

from rvcocycle.cli import (
    UsageError,
    fmt12,
    load_config,
    main,
    parse_rep,
    parse_theta_range,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
DIAG_REP = "2,0,0,0.5,2,0,0,0.5"
ROT_REP = None  # fixtures cover the elliptic cases


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_parse_rep_ok(self):
        a, b = parse_rep(DIAG_REP)
        assert a.a == 2.0 and b.d == 0.5

    def test_parse_rep_wrong_count(self):
        with pytest.raises(UsageError):
            parse_rep("1,0,0,1")

    def test_parse_rep_bad_det(self):
        with pytest.raises(UsageError, match="determinant"):
            parse_rep("1,0,0,2,1,0,0,1")

    def test_parse_rep_bad_number(self):
        with pytest.raises(UsageError):
            parse_rep("1,0,0,1,1,0,x,1")

    def test_parse_rep_entry_past_unscaled_size(self):
        with pytest.raises(UsageError, match="2\\^500"):
            parse_rep("1e160,0,0,1e-160,2,0,0,0.5")
        with pytest.raises(UsageError):
            parse_rep("nan,0,0,1,2,0,0,0.5")

    def test_parse_theta_range(self):
        assert parse_theta_range("0.1:1.5") == (0.1, 1.5)
        with pytest.raises(UsageError):
            parse_theta_range("1.5:0.1")
        with pytest.raises(UsageError):
            parse_theta_range("nonsense")

    def test_fmt12(self):
        assert fmt12(math.log(2.0)) == "0.693147180560"
        assert fmt12(float("nan")) == "nan"
        assert fmt12(2.0) == "2.00000000000"
        assert fmt12(0.0) == "0.000000000000"


class TestConfig:
    def test_load_and_normalize(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("# comment\nmax-steps = 10\nalpha=0.5\n\n")
        cfg = load_config(str(p))
        assert cfg == {"max_steps": "10", "alpha": "0.5"}

    def test_bad_line(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("no equals sign\n")
        with pytest.raises(UsageError):
            load_config(str(p))

    def test_flags_beat_config(self, capsys, tmp_path):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(f"fixture = commuting-elliptic\nalpha = {GOLDEN}\n"
                           "iters = 100\n")
        # Config supplies everything; the flag overrides iters.
        code, out, _ = run(capsys, "lyapunov", "--config", str(cfgfile),
                           "--iters", "250")
        assert code == 0
        assert json.loads(out)["nIters"] == 250

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "classify", "--config", "/no/such/file",
                           "--fixture", "generic-elliptic")
        assert code == 2
        assert "config" in err


class TestExitCodes:
    def test_usage_error_no_rep(self, capsys):
        code, _, err = run(capsys, "classify")
        assert code == 2 and "representation" in err

    def test_usage_error_unknown_fixture(self, capsys):
        code, _, err = run(capsys, "classify", "--fixture", "nope")
        assert code == 2 and "unknown fixture" in err

    def test_usage_error_rep_and_fixture(self, capsys):
        code, _, _ = run(capsys, "classify", "--rep", DIAG_REP,
                         "--fixture", "generic-elliptic")
        assert code == 2

    def test_runtime_error_degenerate(self, capsys):
        # Parabolic generator: classification refuses, exit 1.
        code, _, err = run(capsys, "renorm", "--rep", "1,1,0,1,2,0,0,0.5",
                           "--alpha", str(GOLDEN))
        assert code == 1

    def test_success(self, capsys):
        code, _, _ = run(capsys, "classify", "--fixture", "generic-elliptic")
        assert code == 0

    def test_usage_error_huge_entry(self, capsys):
        code, out, err = run(capsys, "classify", "--rep",
                             "1e160,0,0,1e-160,2,0,0,0.5")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


    @pytest.mark.parametrize("argv, flag", [
        (("lyapunov", "--iters", "0"), "--iters"),
        (("lyapunov", "--samples", "0"), "--samples"),
        (("lyapunov", "--samples", "-1"), "--samples"),
        (("scan", "--chi-iters", "-1", "--grid", "2"), "--chi-iters"),
    ])
    def test_usage_error_bad_count(self, capsys, argv, flag):
        alpha = () if argv[0] == "scan" else ("--alpha", str(GOLDEN))
        code, out, err = run(capsys, *argv, "--fixture", "commuting-hyperbolic",
                             *alpha)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and flag in err
        assert err.count("\n") == 1

    def test_usage_error_negative_seed(self, capsys, tmp_path):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("seed = -1\n")
        for extra in (("--seed", "-1"), ("--config", str(cfgfile))):
            code, out, err = run(capsys, "lyapunov", "--fixture",
                                 "commuting-hyperbolic", "--alpha", "0.3",
                                 "--iters", "10", *extra)
            assert code == 2, extra
            assert out == ""
            assert err.startswith("error:") and "--seed" in err
            assert err.count("\n") == 1

    @pytest.mark.parametrize("flag, value", [
        ("--max-steps", "0"),
        ("--max-digit", "0"),
        ("--trace-bound", "-1"),
        ("--trace-bound", "nan"),
    ])
    def test_usage_error_bad_budget(self, capsys, tmp_path, flag, value):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(f"{flag[2:]} = {value}\n")
        for extra in ((flag, value), ("--config", str(cfgfile))):
            code, out, err = run(capsys, "renorm", "--fixture",
                                 "commuting-elliptic", "--alpha", "0.3",
                                 *extra)
            assert code == 2, extra
            assert out == ""
            assert err.startswith("error:") and flag in err
            assert err.count("\n") == 1


class TestClassify:
    def test_generic_elliptic(self, capsys):
        code, out, _ = run(capsys, "classify", "--fixture", "generic-elliptic")
        assert code == 0
        doc = json.loads(out)
        assert doc["type"] == "EE"
        assert doc["inK"] is True
        assert doc["c"] > 2.0
        assert doc["residual"] < 1e-10

    def test_rep_flag(self, capsys):
        code, out, _ = run(capsys, "classify", "--rep", DIAG_REP)
        assert code == 0
        assert json.loads(out)["type"] == "HH+"


class TestRenorm:
    def test_immediate_hyperbolic_json(self, capsys):
        code, out, _ = run(capsys, "renorm", "--fixture", "commuting-hyperbolic",
                           "--alpha", str(GOLDEN))
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "hyperbolic"
        assert doc["steps"][0]["winner"] == "-"
        assert doc["certificate"]["mu"] == pytest.approx(2.0)

    def test_bounded_json(self, capsys):
        code, out, _ = run(capsys, "renorm", "--fixture", "commuting-elliptic",
                           "--alpha", str(GOLDEN), "--max-steps", "20")
        doc = json.loads(out)
        assert code == 0
        assert doc["verdict"] == "bounded"
        assert len(doc["steps"]) == 20
        for s in doc["steps"]:
            assert s["winner"] in ("t", "b")
            assert s["type"] in ("EE", "EH", "HE", "HH+", "HH-")

    def test_finite_order(self, capsys):
        code, out, _ = run(capsys, "renorm", "--fixture", "commuting-elliptic",
                           "--alpha", "0.375")
        doc = json.loads(out)
        assert code == 0
        assert doc["verdict"] == "finite"
        assert "spectrumMember" in doc["certificate"]

    def test_half_terminates_before_first_step(self, capsys):
        # alpha = 1/2 has period 2: membership is |tr AB| <= 2.
        code, out, _ = run(capsys, "renorm", "--fixture", "generic-elliptic",
                           "--alpha", "0.5")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "finite"
        assert doc["steps"] == []

    def test_trace_past_float_range_is_null(self, capsys):
        # Step 2 (run 922) has tr B and tr AB past the float range.
        code, out, _ = run(capsys, "renorm", "--fixture", "generic-elliptic",
                           "--alpha", "0.6667870446192837")
        assert code == 0

        def reject(name):
            raise ValueError(f"non-strict JSON constant {name}")

        doc = json.loads(out, parse_constant=reject)
        step2 = next(s for s in doc["steps"] if s["n"] == 2)
        assert step2["y"] is None
        assert math.isfinite(step2["x"])

    def test_missing_alpha(self, capsys):
        code, _, _ = run(capsys, "renorm", "--fixture", "commuting-elliptic")
        assert code == 2

    def test_out_file_roundtrip(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        code, _, _ = run(capsys, "renorm", "--fixture", "commuting-hyperbolic",
                         "--alpha", str(GOLDEN), "--out", str(out_path))
        assert code == 0
        on_disk = out_path.read_text()
        code, stdout, _ = run(capsys, "renorm", "--fixture",
                              "commuting-hyperbolic", "--alpha", str(GOLDEN))
        assert stdout == on_disk  # byte-identical re-serialization


class TestLyapunov:
    def test_log_two(self, capsys):
        code, out, _ = run(capsys, "lyapunov", "--fixture",
                           "commuting-hyperbolic", "--alpha", str(GOLDEN),
                           "--iters", "2000")
        assert code == 0
        assert json.loads(out)["chi"] == pytest.approx(math.log(2.0), abs=1e-9)

    def test_large_entries_strict_json(self, capsys):
        # Entries of 1e5 overflowed the orbit vectors' v.v to NaN.
        code, out, _ = run(capsys, "lyapunov", "--rep",
                           "1e5,0,0,1e-5,1e5,0,0,1e-5", "--alpha", "0.3",
                           "--iters", "1000")
        assert code == 0

        def reject(name):
            raise ValueError(f"non-strict JSON constant {name}")
        doc = json.loads(out, parse_constant=reject)
        assert doc["chi"] == pytest.approx(math.log(1e5), abs=1e-9)


class TestScan:
    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "scan", "--fixture", "generic-elliptic",
                           "--theta", "0.3:1.2", "--grid", "8",
                           "--chi-iters", "0", "--max-steps", "20")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "theta,alpha,verdict,chi,steps,mu_lower"
        assert len(lines) == 9
        thetas = [float(l.split(",")[0]) for l in lines[1:]]
        assert thetas == sorted(thetas)

    def test_csv_golden_file(self, capsys):
        # Frozen output for the diagonal fixture: every point decides
        # hyperbolic at step 0 with mu = 2.
        code, out, _ = run(capsys, "scan", "--rep", DIAG_REP,
                           "--theta", "0.3:0.5", "--grid", "3",
                           "--chi-iters", "0")
        assert code == 0
        want = (
            "theta,alpha,verdict,chi,steps,mu_lower\n"
            "0.300000000000,0.309336249610,hyperbolic,nan,0,2.00000000000\n"
            "0.400000000000,0.422793218738,hyperbolic,nan,0,2.00000000000\n"
            "0.500000000000,0.546302489844,hyperbolic,nan,0,2.00000000000\n"
        )
        assert out == want

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "scan", "--fixture", "generic-elliptic",
                           "--theta", "0.3:1.2", "--grid", "6",
                           "--chi-iters", "0", "--max-steps", "15",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["points"]) == 6
        for p in doc["candidateSpectrumPoints"]:
            assert p["verdict"] in ("bounded", "finite_in")


class TestRefine:
    def test_refine_json(self, capsys):
        code, out, _ = run(capsys, "refine", "--fixture", "generic-elliptic",
                           "--theta", "0.3:1.2", "--depth", "5",
                           "--max-steps", "20", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["points"]
        for iv in doc["certifiedHyperbolicIntervals"]:
            assert iv["thetaLo"] < iv["thetaHi"]


class TestMCG:
    def test_mcg_json(self, capsys):
        code, out, _ = run(capsys, "mcg", "--rep", DIAG_REP,
                           "--alpha", str(GOLDEN), "--steps", "8")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["twistWord"]) == 8
        assert doc["witness"]["kind"] == "hyperbolic"
        assert all(isinstance(n, int) for n in doc["normsL1"])

    def test_mcg_bounded(self, capsys):
        code, out, _ = run(capsys, "mcg", "--fixture", "commuting-elliptic",
                           "--alpha", str(GOLDEN), "--steps", "8",
                           "--max-steps", "30")
        assert code == 0
        assert json.loads(out)["witness"]["kind"] == "bounded"


    def test_run_past_max_digit_is_an_error(self, capsys):
        # 1/alpha = 200.5: the first run is 199 steps long.
        code, out, err = run(capsys, "mcg", "--fixture", "commuting-elliptic",
                             "--alpha", "0.004987531172069825", "--steps", "5",
                             "--max-digit", "100")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


class TestVerifyLemmas:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify-lemmas", "--draws", "10")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3
        for line in lines:
            assert ": pass (" in line
