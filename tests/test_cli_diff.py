"""The comparison of tools/cli_diff.py and its crash and strict-JSON
reports, on made-up outputs (no subprocess), and the coverage of its
command matrix."""

import importlib.util
import json
from pathlib import Path

from rvcocycle.cli import COMMANDS, main
from rvcocycle.hypgeom import hh_minus_canonical_pair
from rvcocycle.iet import Rotation2IET, run_steps

_PATH = Path(__file__).resolve().parent.parent / "tools" / "cli_diff.py"
_spec = importlib.util.spec_from_file_location("cli_diff", _PATH)
cli_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_diff)

SCAN = ("scan", "--fixture", "generic-elliptic")
MCG = ("mcg", "--fixture", "commuting-elliptic", "--alpha", "0.3")
CSV = b"theta,alpha\n0.1,0.2\n0.3,0.4\n"


def test_identical_outputs_differ_nowhere():
    runs = {SCAN: (0, CSV), MCG: (1, b"")}
    assert cli_diff.differences(runs, dict(runs)) == []


def test_exit_code_and_stdout_differences():
    base = {SCAN: (0, CSV), MCG: (0, b"{}\n")}
    head = {SCAN: (0, CSV.replace(b"0.4", b"0.5")), MCG: (1, b"")}
    assert cli_diff.differences(base, head) == [
        "rvcocycle scan --fixture generic-elliptic: stdout differs at line 3",
        "rvcocycle mcg --fixture commuting-elliptic --alpha 0.3: exit 0 -> 1",
    ]


def test_a_longer_stdout_or_a_missing_command_differs():
    base = {SCAN: (0, CSV)}
    head = {SCAN: (0, CSV + b"0.5,0.6\n"), MCG: (0, b"{}\n")}
    assert cli_diff.differences(base, head) == [
        "rvcocycle scan --fixture generic-elliptic: stdout differs at line 4",
        "rvcocycle mcg --fixture commuting-elliptic --alpha 0.3: run on one side only",
    ]


def test_matrix_runs_every_command_once():
    cmds = cli_diff.matrix()
    assert len(set(cmds)) == len(cmds)
    assert set(COMMANDS) <= {args[0] for args in cmds}
    for fmt in ("csv", "json"):
        for command in ("scan", "refine"):
            assert any(a[0] == command and a[-1] == fmt for a in cmds)


def test_tracebacks_are_reported_with_their_side():
    crash = b"Traceback (most recent call last):\n  ...\nZeroDivisionError\n"
    base = {SCAN: (1, b"", crash), MCG: (1, b"", b"error: run too long\n")}
    head = {SCAN: (1, b"", b"error: underflow\n"), MCG: (0, b"{}\n", crash)}
    assert cli_diff.crashes(base, "base") == [
        "rvcocycle scan --fixture generic-elliptic: traceback on the base side",
    ]
    assert cli_diff.crashes(head, "head") == [
        "rvcocycle mcg --fixture commuting-elliptic --alpha 0.3: "
        "traceback on the head side",
    ]
    # The stderr text is not compared.
    assert cli_diff.differences(base, head) == [
        "rvcocycle mcg --fixture commuting-elliptic --alpha 0.3: exit 1 -> 0",
    ]


def test_non_strict_json_is_reported_with_its_side():
    renorm = ("renorm", "--fixture", "generic-elliptic", "--alpha", "0.3")
    scan_csv = (*SCAN, "--format", "csv")
    scan_json = (*SCAN, "--format", "json")
    runs = {renorm: (0, b'{"x": NaN}\n', b""), scan_csv: (0, b"NaN,1\n", b""),
            scan_json: (0, b'{"alpha": null}\n', b""), MCG: (1, b"", b"error\n")}
    (line,) = cli_diff.non_strict_json(runs, "head")
    assert line.startswith("rvcocycle renorm --fixture generic-elliptic "
                           "--alpha 0.3: non-strict JSON on the head side")
    runs[scan_json] = (0, b'{"alpha": Infinity}\n', b"")
    assert len(cli_diff.non_strict_json(runs, "base")) == 2


def test_matrix_holds_a_scan_of_chart_boundaries():
    boundary = ("scan", "--fixture", "generic-elliptic", "--theta",
                "0:1.5707963267948966", "--grid", "3", "--format", "json")
    assert boundary in cli_diff.matrix()


def test_config_command_reads_the_config_file(tmp_path, monkeypatch, capsys):
    (config,) = [a for a in cli_diff.matrix() if "--config" in a]
    assert config[config.index("--config") + 1] == cli_diff.CONFIG_NAME
    (tmp_path / cli_diff.CONFIG_NAME).write_text(cli_diff.CONFIG_TEXT)
    monkeypatch.chdir(tmp_path)
    assert main(list(config)) == 0
    doc = json.loads(capsys.readouterr().out)
    # The fixture and the trace bound come from the file (the default bound
    # gives "bounded"), the step budget from the flag that beats it.
    assert doc["verdict"] == "undecided" and len(doc["steps"]) == 12


def test_matrix_classifies_two_hyperbolic_letters(capsys):
    a, b = hh_minus_canonical_pair(0.7, 1.2, 0.9)
    assert cli_diff.HH_PAIRS[1] == ",".join(map(repr, (*a.entries(), *b.entries())))
    types = []
    for rep in cli_diff.HH_PAIRS:
        assert ("renorm", "--rep", rep, "--alpha", cli_diff.GOLDEN) in cli_diff.matrix()
        assert main(["classify", "--rep", rep]) == 0
        types.append(json.loads(capsys.readouterr().out)["type"])
    assert types == ["HH+", "HH-"]


def test_matrix_holds_trajectories_ending_on_the_last_run():
    # One with a_1 >= 2 (3/8) and one with a_1 = 1 (61/64), each as many
    # steps as its expansion has runs.
    for alpha, steps in (("0.375", "3"), ("0.953125", "2")):
        assert ("mcg", "--fixture", "generic-elliptic", "--alpha", alpha,
                "--steps", steps) in cli_diff.matrix()
        assert len(list(run_steps(Rotation2IET(float(alpha))))) == int(steps)


def test_matrix_holds_scaled_letters(capsys):
    # Letters inside the CLI's limit whose products are stored scaled: each
    # command ends without a traceback, and classify prints strict JSON
    # although its Fricke residual is past the float range.  The renorm
    # command loses its level 1 to a product past the float range, and is
    # one of the precision commands below.
    classify, renorm = cli_diff.SCALED_COMMANDS
    for args in cli_diff.SCALED_COMMANDS:
        assert args in cli_diff.matrix()
    assert main(list(classify)) == 0
    out = capsys.readouterr().out
    assert cli_diff.non_strict_json({classify: (0, out, "")}, "head") == []
    assert renorm in cli_diff.PRECISION_COMMANDS


def test_matrix_holds_precision_losses(capsys):
    # A level that loses float precision ends the decision Undecided, with
    # exit 0 and strict JSON, where it once exited 1 blaming the input.
    for args in cli_diff.PRECISION_COMMANDS:
        assert args in cli_diff.matrix()
        assert main(list(args)) == 0
        out = capsys.readouterr().out
        assert cli_diff.non_strict_json({args: (0, out, "")}, "head") == []
        assert json.loads(out)["verdict"] == "undecided"
