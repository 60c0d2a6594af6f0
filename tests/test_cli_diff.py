"""The comparison of tools/cli_diff.py, on made-up outputs (no
subprocess), and the coverage of its command matrix."""

import importlib.util
from pathlib import Path

from rvcocycle.cli import COMMANDS

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
