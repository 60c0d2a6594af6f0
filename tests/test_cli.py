import json
import math
import os
import string
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rvcocycle.cli import (
    OPTIONS,
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


def strict_json(text):
    """text parsed as strict JSON, which has no NaN or Infinity."""
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")
    return json.loads(text, parse_constant=reject)


# Each command's numeric options; classify has none.
NUMERIC_OPTIONS = {
    "renorm": ("alpha", "max_steps", "max_digit", "trace_bound"),
    "lyapunov": ("alpha", "iters", "samples", "seed"),
    "scan": ("grid", "chi_iters", "max_steps", "max_digit", "trace_bound"),
    "refine": ("depth", "max_steps", "max_digit", "trace_bound"),
    "mcg": ("alpha", "steps", "max_steps", "max_digit", "trace_bound"),
    "verify-lemmas": ("draws", "seed"),
}
# The numeric options whose range holds 0; -1 is out of every range.
ZERO_IN_RANGE = {"chi_iters", "seed"}


@st.composite
def invalid_numeric_options(draw):
    """A command, one of its numeric options, and a value outside the
    option's range: 0 or -1, nan, +-inf, or letters, which no numeric
    option reads (float reads some of them, as nan or inf)."""
    command = draw(st.sampled_from(sorted(NUMERIC_OPTIONS)))
    name = draw(st.sampled_from(NUMERIC_OPTIONS[command]))
    special = ["-1", "nan", "inf", "-inf"]
    if name not in ZERO_IN_RANGE:
        special.append("0")
    value = draw(st.sampled_from(special)
                 | st.text(string.ascii_letters, min_size=1, max_size=8))
    return command, name, value


class TestParsing:
    def test_parse_rep_ok(self):
        p = parse_rep(DIAG_REP)
        assert p.A.a == 2.0 and p.B.d == 0.5

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
        assert fmt12(-0.0) == "-0.000000000000"
        assert fmt12(math.inf) == "inf.000000000"
        assert fmt12(-math.inf) == "-inf.000000000"

    @settings(max_examples=2000, deadline=None)
    @given(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                     st.integers(10**11, 10**13).map(lambda k: k / 2.0)))
    def test_fmt12_matches_numpy(self, x):
        # numpy's positional formatting to 12 significant digits, padded
        # to 12 digits; the halves are exact ties at the 13th digit.
        np = pytest.importorskip("numpy")
        s = np.format_float_positional(x, precision=12, unique=False,
                                       fractional=False)
        sig = len(s.replace("-", "").replace(".", "").lstrip("0"))
        if sig == 0:
            s = s[:s.index("0")] + "0." + "0" * 12
        elif sig < 12:
            s = s + ("" if "." in s else ".") + "0" * (12 - sig)
        assert fmt12(x) == s


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

    def test_keys_of_other_commands_are_ignored(self, capsys, tmp_path):
        # One file serves several commands: classify reads no seed, format,
        # alpha or draws.
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("fixture = generic-elliptic\nseed = -5\n"
                           "format = xml\nalpha = 0.3\ndraws = 0\n")
        code, out, _ = run(capsys, "classify", "--config", str(cfgfile))
        assert code == 0
        assert json.loads(out)["type"] == "EE"

    def test_unknown_key_is_a_usage_error(self, capsys, tmp_path):
        # A misspelt max_steps would leave the default budget in force.
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("fixture = commuting-elliptic\nmax_step = 5\n")
        code, out, err = run(capsys, "renorm", "--alpha", str(GOLDEN),
                             "--config", str(cfgfile))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "max_step" in err

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

    def test_contracted_start_vector_scans(self, capsys):
        # At theta = -1.4 both diagonal letters contract e_1, whose orbit
        # vector underflowed to zero within 500 steps; the norm of the
        # orbit product reads chi of at least ln 2 there.
        code, out, err = run(capsys, "scan", "--fixture", "commuting-hyperbolic",
                             "--theta=-1.4:-0.2", "--grid", "12",
                             "--chi-iters", "500")
        assert (code, err) == (0, "")
        theta, _, verdict, chi = out.splitlines()[1].split(",")[:4]
        assert (float(theta), verdict) == (-1.4, "hyperbolic")
        assert float(chi) >= math.log(2.0)

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
        lyapunov = ("lyapunov", "--fixture", "commuting-hyperbolic",
                    "--alpha", "0.3", "--iters", "10")
        for command in (lyapunov, ("verify-lemmas", "--draws", "1")):
            for extra in (("--seed", "-1"), ("--config", str(cfgfile))):
                code, out, err = run(capsys, *command, *extra)
                assert code == 2, extra
                assert out == ""
                assert err.startswith("error:") and "--seed" in err
                assert err.count("\n") == 1

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_usage_error_bad_mcg_steps(self, capsys, tmp_path, value):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(f"steps = {value}\n")
        for extra in (("--steps", value), ("--config", str(cfgfile))):
            code, out, err = run(capsys, "mcg", "--fixture", "commuting-elliptic",
                                 "--alpha", str(GOLDEN), *extra)
            assert code == 2, extra
            assert out == ""
            assert err.startswith("error:") and "--steps" in err
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


    @pytest.mark.parametrize("argv", [
        ("classify", "--fixture", "generic-elliptic", "--seed", "1"),
        ("lyapunov", "--fixture", "commuting-hyperbolic", "--alpha", "0.3",
         "--iters", "10", "--format", "json"),
        ("verify-lemmas", "--draws", "1", "--max-steps", "5"),
    ])
    def test_usage_error_option_the_command_does_not_read(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("classify", "--fixture", "generic-elliptic", "--bogus", "1"),
        (),
    ], ids=["unknown-flag", "missing-command"])
    def test_usage_error_from_argparse(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["refine", "--help"])
        assert exc.value.code == 0
        assert "--theta" in capsys.readouterr().out

    def test_numeric_options_match_the_table(self):
        for command in ("classify", *NUMERIC_OPTIONS):
            numeric = {name for name, opt in OPTIONS.items()
                       if command in opt.commands.split()
                       and opt.conv in (int, float)}
            assert numeric == set(NUMERIC_OPTIONS.get(command, ())), command

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(invalid_numeric_options())
    def test_usage_error_invalid_numeric_value(self, capsys, tmp_path, case):
        # Every value here is invalid, so no case starts a run.
        command, name, value = case
        flag = "--" + name.replace("_", "-")
        base = [] if command == "verify-lemmas" else ["--fixture", "commuting-elliptic"]
        if name != "alpha" and "alpha" in NUMERIC_OPTIONS[command]:
            base += ["--alpha", "0.3"]
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(f"{flag[2:]} = {value}\n")
        for extra in ((f"{flag}={value}",), ("--config", str(cfgfile))):
            code, out, err = run(capsys, command, *base, *extra)
            assert code == 2, extra
            assert out == ""
            assert err.startswith("error:") and flag in err
            assert err.count("\n") == 1

    @pytest.mark.parametrize("spec", ["0:inf", "-inf:1", "nan:1"])
    def test_usage_error_non_finite_theta(self, capsys, tmp_path, spec):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(f"theta = {spec}\n")
        # "--theta=" keeps argparse from reading "-inf:1" as an option.
        for extra in ((f"--theta={spec}",), ("--config", str(cfgfile))):
            code, out, err = run(capsys, "scan", "--fixture", "generic-elliptic",
                                 "--grid", "4", *extra)
            assert code == 2, extra
            assert out == ""
            assert err.startswith("error:") and "--theta" in err
            assert err.count("\n") == 1

    @pytest.mark.parametrize("spec", ["0.1:1e300", "3:4", "-4:-3.5"])
    def test_usage_error_theta_past_one_period(self, capsys, tmp_path, spec):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(f"theta = {spec}\n")
        for extra in ((f"--theta={spec}",), ("--config", str(cfgfile))):
            code, out, err = run(capsys, "refine", "--fixture", "generic-elliptic",
                                 "--depth", "1", *extra)
            assert code == 2, extra
            assert out == ""
            assert err.startswith("error:") and "--theta" in err
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

    def test_strict_json_past_the_float_range(self, capsys):
        # Entries inside the 2^500 limit whose Fricke residual overflows:
        # z^2 and xyz are both inf, and their difference NaN, which
        # strict JSON has no word for.
        code, out, _ = run(capsys, "classify", "--rep",
                           "1e100,0,0,1e-100,1e100,1,0,1e-100")
        assert code == 0
        doc = strict_json(out)
        assert doc["type"] == "HH+"
        assert doc["x"] == doc["y"] == 1e100
        assert doc["residual"] is None


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
        doc = strict_json(out)
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


class TestOut:
    @pytest.mark.parametrize("argv", [
        ("classify", "--fixture", "generic-elliptic"),
        ("lyapunov", "--fixture", "commuting-hyperbolic", "--alpha", str(GOLDEN),
         "--iters", "2000"),
    ])
    def test_out_file_takes_the_document(self, capsys, tmp_path, argv):
        out_path = tmp_path / "doc.json"
        code, out, _ = run(capsys, *argv, "--out", str(out_path))
        assert code == 0
        assert out == ""
        _, stdout, _ = run(capsys, *argv)
        assert out_path.read_text() == stdout


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

        doc = strict_json(out)
        assert doc["chi"] == pytest.approx(math.log(1e5), abs=1e-9)

    def test_ten_billion_steps(self, capsys):
        # The float 0.3 has a digit near 9e14: every orbit takes long powers
        # of one letter, as a few squares each.
        code, out, _ = run(capsys, "lyapunov", "--fixture", "generic-elliptic",
                           "--alpha", "0.3", "--iters", "10000000000")
        assert code == 0
        doc = json.loads(out)
        assert doc["nIters"] == 10**10 and math.isfinite(doc["chi"])

    @pytest.mark.parametrize("argv", [
        ("lyapunov", "--fixture", "generic-elliptic", "--alpha", "0.3"),
        ("scan", "--fixture", "generic-elliptic", "--theta", "0.05:1.5",
         "--grid", "6", "--chi-iters", "500"),
    ], ids=["lyapunov", "scan"])
    def test_runs_without_numpy(self, argv):
        # numpy is a test dependency only: with its import blocked, the
        # commands that estimate exponents still run.
        src = Path(__file__).resolve().parent.parent / "src"
        code = ("import sys; sys.modules['numpy'] = None; "
                "from rvcocycle.cli import main; sys.exit(main(sys.argv[1:]))")
        proc = subprocess.run([sys.executable, "-c", code, *argv],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout


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

    def test_csv_zero_exponent_prints_zero(self, capsys):
        # The commuting-elliptic letters are rotations: chi is 0
        # and its estimate is round-off, which the chi column does not show.
        code, out, _ = run(capsys, "scan", "--fixture", "commuting-elliptic",
                           "--grid", "6")
        assert code == 0
        rows = [l.split(",") for l in out.strip().split("\n")[1:]]
        assert [r[2] for r in rows] == ["finite_in"] * 6
        assert [r[3] for r in rows] == ["0.000000000000"] * 6

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

    def test_json_degenerate_points_are_null(self, capsys):
        # theta 0, pi/4 (slope 1) and pi/2 are chart boundaries.
        code, out, _ = run(capsys, "scan", "--fixture", "generic-elliptic",
                           "--theta", "0:1.5707963267948966", "--grid", "3",
                           "--format", "json")
        assert code == 0
        doc = strict_json(out)
        assert [p["verdict"] for p in doc["points"]] == ["degenerate"] * 3
        assert [(p["alpha"], p["chi"]) for p in doc["points"]] == [(None, None)] * 3


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

    def test_refine_json_boundary_is_null(self, capsys):
        code, out, _ = run(capsys, "refine", "--fixture", "generic-elliptic",
                           "--theta", "0:0.3", "--depth", "2",
                           "--max-steps", "20", "--format", "json")
        assert code == 0
        first, *rest = strict_json(out)["points"]  # sorted by theta
        assert (first["theta"], first["verdict"], first["alpha"]) == \
            (0.0, "degenerate", None)
        assert all(p["alpha"] is not None for p in rest)


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


# Recorded renorm and mcg runs: argv, exit code and the stdout document
# (null on an error), one per verdict kind and mcg witness.
DECISIONS = json.loads((Path(__file__).parent / "data" /
                        "cli_decisions.json").read_text())


def assert_matches(got, want, where="stdout"):
    """Ints, strings, bools and nulls equal, and floats within a relative
    1e-12, since libm can differ in the last bits between machines."""
    if isinstance(want, float):
        assert isinstance(got, float) and math.isclose(got, want, rel_tol=1e-12), \
            (where, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), (where, got)
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), (where, got)
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


class TestDecisionGoldens:
    @pytest.mark.parametrize("name", list(DECISIONS))
    def test_matches_recorded_run(self, capsys, name):
        case = DECISIONS[name]
        code, out, err = run(capsys, *case["argv"])
        assert code == case["exit"]
        if case["stdout"] is None:
            assert out == "" and err.startswith("error:")
        else:
            assert_matches(json.loads(out), case["stdout"])

    def test_every_outcome_is_recorded(self):
        verdicts, witnesses, codes = set(), set(), set()
        for case in DECISIONS.values():
            doc = case["stdout"]
            codes.add((case["argv"][0], case["exit"]))
            if doc is None:
                continue
            if case["argv"][0] == "renorm":
                kind = doc["verdict"]
                if kind == "finite":
                    kind += "-in" if doc["certificate"]["spectrumMember"] else "-out"
                elif kind == "hyperbolic":
                    kind += "-at-0" if doc["steps"][0]["n"] == 0 else "-later"
                verdicts.add(kind)
            else:
                w = doc["witness"]
                witnesses.add((w["kind"], w.get("mu", w.get("maxTraceNorm")) is None))
        assert verdicts == {"hyperbolic-at-0", "hyperbolic-later", "bounded",
                            "finite-in", "finite-out", "undecided"}
        assert witnesses == {("hyperbolic", False), ("hyperbolic", True),
                             ("bounded", False), ("bounded", True)}
        assert codes == {("renorm", 0), ("mcg", 0), ("mcg", 1)}

    def test_assert_matches_tolerance(self):
        assert_matches({"a": [1, 2.0, None, True]}, {"a": [1, 2.0 * (1 + 1e-13), None, True]})
        for got, want in (({"a": 2.0 * (1 + 1e-11)}, {"a": 2.0}), ({"a": 1.0}, {"a": 1}),
                          ({"a": 1}, {"a": True}), ({"b": 1}, {"a": 1}),
                          ([1, 2], [1]), ("x", "y")):
            with pytest.raises(AssertionError):
                assert_matches(got, want)


class TestVerifyLemmas:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify-lemmas", "--draws", "10")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3
        for line in lines:
            assert ": pass (" in line

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_usage_error_no_draws(self, capsys, tmp_path, value):
        # Zero or negative draws check nothing, so they cannot pass.
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(f"draws = {value}\n")
        for extra in (("--draws", value), ("--config", str(cfgfile))):
            code, out, err = run(capsys, "verify-lemmas", *extra)
            assert code == 2, extra
            assert out == ""
            assert err.startswith("error:") and "--draws" in err
            assert err.count("\n") == 1
