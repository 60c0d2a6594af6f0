"""Run a fixed matrix of rvcocycle CLI commands in two source checkouts and
print each command whose stdout or exit code differs.

    python3 tools/cli_diff.py BASE HEAD

BASE and HEAD are the roots of two source checkouts.  Each command of
matrix() runs as `python3 -m rvcocycle.cli ARGS` with PYTHONPATH set to the
checkout's src/, one process at a time, in one temporary directory that
holds the config file CONFIG_TEXT, so both checkouts read the same file.
The matrix holds every command on the three fixtures at several angles,
mcg at the bounded benchmark's trajectory length and at exactly the
length of two expansions, lyapunov at a dyadic angle whose orbits reach
the one-piece last level, scan and refine as both
CSV and JSON, scan with exponents whose orbits walk the induction deeper
than the decision, a scan of chart boundaries only, exponents of letters
that contract e_1, classify and renorm on an HH+ and an HH- pair,
classify and renorm on scaled letters (entries inside the 2^500 limit
whose products pass the float range), two decisions that lose float
precision forming a level, one --config command, and usage and runtime
errors.
stdout must be byte-identical; stderr is not compared, but each command
whose stderr holds a Python traceback is reported with its side, and so
is each command that exits 0 with a JSON document on stdout (--format
json, and every classify, renorm, lyapunov and mcg) that is not strict
JSON, which has no NaN or Infinity.  The exit code is 0 when no command
differs and none crashes or prints non-strict JSON on the head side,
else 1.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

FIXTURES = ("commuting-hyperbolic", "commuting-elliptic", "generic-elliptic")
GOLDEN = "0.6180339887498949"
# Irrational-looking, short (dyadic), half, a run past the digit cap
# (0.3), and a last moved letter that is hyperbolic (0.953125).
ALPHAS = (GOLDEN, "0.41421356237", "0.375", "0.5", "0.3", "0.953125")
# Both charts, tan theta > 0 and < 0; "=" keeps argparse from reading a
# leading "-" as an option.
THETAS = ("--theta=0.05:1.5", "--theta=-1.4:-0.2")
# A near-rational angle of the bounded benchmark's draw: 32 runs, one of
# them long, walked as its trajectory is there (40 steps, budget 60).
BOUNDED_ALPHA = "0.30769497215185276"
# The config command reads a comment, a dashed key, and a key its flag beats.
CONFIG_NAME = "rvcocycle.cfg"
CONFIG_TEXT = ("# a budget for renorm\nfixture = commuting-elliptic\n"
               "max-steps = 20\ntrace_bound = 1\n")
# Pairs of two hyperbolic letters, which no fixture is: an HH+ pair, and
# hypgeom.hh_minus_canonical_pair(0.7, 1.2, 0.9), an HH- pair.
HH_PAIRS = ("2,0,0,0.5,2,1,1,1",
            "1.4190675485932571,0.0,0.0,0.7046880897187136,"
            "0.2730856374184304,0.6535355505571933,-0.6535355505571931,"
            "2.097844799066104")
# Letters inside the CLI's 2^500 limit whose products are stored scaled:
# upper-triangular letters with entries 1e+-100, whose tr AB squared and
# Fricke residual pass the float range, and diag(3e150, 1/3e150) with a
# quarter turn, whose square's small entry underflows.
SCALED_COMMANDS = (
    ("classify", "--rep", "1e100,0,0,1e-100,1e100,1,0,1e-100"),
    ("renorm", "--rep", "3e150,0,0,3.3333333333333335e-151,0,-1,1,0",
     "--alpha", "0.3"),
)
# Decisions that lose float precision forming a level, and end Undecided:
# the scaled renorm command above, whose level 1 is a power whose product
# is not finite, and a Top run of 910,397,634 whose power of an elliptic
# letter decays to entries whose det underflows to 0.
PRECISION_COMMANDS = (
    SCALED_COMMANDS[1],
    ("renorm", "--fixture", "generic-elliptic", "--alpha", "0.1952356944794555",
     "--max-digit", "1000000000000", "--max-steps", "200"),
)
TRACEBACK = b"Traceback (most recent call last)"
# The commands whose stdout is always one JSON document.
JSON_COMMANDS = ("classify", "renorm", "lyapunov", "mcg")


def matrix() -> list[tuple[str, ...]]:
    """The commands, as argument tuples."""
    cmds: list[tuple[str, ...]] = []
    for fx in FIXTURES:
        pair = ("--fixture", fx)
        cmds.append(("classify", *pair))
        for alpha in ALPHAS:
            cmds.append(("renorm", *pair, "--alpha", alpha))
            cmds.append(("mcg", *pair, "--alpha", alpha, "--steps", "8"))
        cmds += [
            ("renorm", *pair, "--alpha", GOLDEN, "--max-steps", "20"),
            ("renorm", *pair, "--alpha", GOLDEN, "--max-steps", "4",
             "--trace-bound", "1"),
            ("renorm", *pair, "--alpha", GOLDEN, "--max-digit", "5"),
            ("mcg", *pair, "--alpha", GOLDEN, "--steps", "8", "--max-steps", "20"),
            ("mcg", *pair, "--alpha", "0.3", "--steps", "3"),
            ("mcg", *pair, "--steps", "40", "--max-steps", "60",
             "--alpha", BOUNDED_ALPHA),
            ("lyapunov", *pair, "--alpha", GOLDEN, "--iters", "2000"),
            ("lyapunov", *pair, "--alpha", "0.3", "--iters", "100000",
             "--samples", "3", "--seed", "5"),
        ]
        if fx == "generic-elliptic":
            # Orbits of 1e5 steps at the dyadic 0.375 reach the last level
            # of the induction, of one piece, walked as one power.
            cmds.append(("lyapunov", *pair, "--alpha", "0.375", "--iters", "100000"))
            # Trajectories exactly as long as the expansion, so their last
            # q_n is the last twist's row plus q_(n-1): 3/8 = [0; 2, 1, 2]
            # (a_1 >= 2) and 61/64 = [0; 1, 20, 3] (a_1 = 1).
            cmds += [("mcg", *pair, "--alpha", "0.375", "--steps", "3"),
                     ("mcg", *pair, "--alpha", "0.953125", "--steps", "2")]
        # Exponents of 1e5 steps walk deeper levels of the induction than
        # the decision stops at, on the table the decision formed.
        cmds.append(("scan", *pair, THETAS[0], "--grid", "12", "--chi-iters",
                     "100000", "--format", "json"))
        for theta in THETAS:
            for fmt in ("csv", "json"):
                cmds.append(("scan", *pair, theta, "--grid", "12",
                             "--chi-iters", "500", "--format", fmt))
                cmds.append(("refine", *pair, theta, "--depth", "4",
                             "--max-steps", "20", "--format", fmt))
    for rep in HH_PAIRS:
        cmds.append(("classify", "--rep", rep))
        cmds.append(("renorm", "--rep", rep, "--alpha", GOLDEN))
    cmds += [
        *SCALED_COMMANDS,
        PRECISION_COMMANDS[1],
        # theta 0, pi/4 and pi/2 are chart boundaries: degenerate points.
        ("scan", "--fixture", "generic-elliptic", "--theta", "0:1.5707963267948966",
         "--grid", "3", "--format", "json"),
        # At chart theta = -1.4 of commuting-hyperbolic both letters,
        # diag(0.5, 2) and diag(0.0625, 16), contract e_1 (alpha = 0.7979):
        # chi is alpha ln 16 + (1 - alpha) ln 2, and an orbit vector started
        # at e_1 read 0 at 100 steps and underflowed to zero by 500.
        ("scan", "--fixture", "commuting-hyperbolic", "--theta=-1.4:-0.2",
         "--grid", "4", "--chi-iters", "100"),
        ("scan", "--fixture", "commuting-hyperbolic", "--theta=-1.4:-0.2",
         "--grid", "12", "--chi-iters", "500"),
        ("lyapunov", "--rep", "0.5,0,0,2,0.0625,0,0,16",
         "--alpha", "0.7978837154828904", "--iters", "500"),
        ("verify-lemmas", "--draws", "10"),
        ("renorm", "--config", CONFIG_NAME, "--alpha", GOLDEN, "--max-steps", "12"),
        # Usage errors (exit 2).
        ("classify",),
        ("classify", "--fixture", "nope"),
        ("classify", "--rep", "1,0,0,2,1,0,0,1"),
        ("renorm", "--fixture", "generic-elliptic"),
        ("renorm", "--fixture", "generic-elliptic", "--alpha", "1.5"),
        ("scan", "--fixture", "generic-elliptic", "--theta", "1:0"),
        ("mcg", "--fixture", "generic-elliptic", "--alpha", GOLDEN, "--grid", "3"),
        ("nonsense",),
        # Runtime errors (exit 1).
        ("renorm", "--rep", "1,1,0,1,2,0,0,0.5", "--alpha", GOLDEN),
        ("mcg", "--rep", "1,1,0,1,2,0,0,0.5", "--alpha", "0.3", "--steps", "4"),
        ("mcg", "--fixture", "commuting-elliptic", "--alpha", "0.3", "--steps", "4"),
    ]
    return cmds


def run_all(checkout: Path, cmds: list[tuple[str, ...]], cwd: Path) -> dict:
    """{args: (exit code, stdout, stderr)} for each command run in checkout,
    with cwd as the working directory."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    out = {}
    for args in cmds:
        proc = subprocess.run([sys.executable, "-m", "rvcocycle.cli", *args],
                              cwd=cwd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE)
        out[args] = (proc.returncode, proc.stdout, proc.stderr)
    return out


def differences(base: dict, head: dict) -> list[str]:
    """One line per command whose exit code or stdout differs between the
    two results of run_all, or that only one of them ran."""
    lines = []
    for args in dict.fromkeys([*base, *head]):
        shown = "rvcocycle " + " ".join(args)
        if args not in base or args not in head:
            lines.append(f"{shown}: run on one side only")
            continue
        (code_b, out_b), (code_h, out_h) = base[args][:2], head[args][:2]
        if code_b != code_h:
            lines.append(f"{shown}: exit {code_b} -> {code_h}")
        elif out_b != out_h:
            rows_b, rows_h = out_b.splitlines(), out_h.splitlines()
            at = next((i for i, (b, h) in enumerate(zip(rows_b, rows_h)) if b != h),
                      min(len(rows_b), len(rows_h)))
            lines.append(f"{shown}: stdout differs at line {at + 1}")
    return lines


def crashes(runs: dict, side: str) -> list[str]:
    """One line per command of a run_all result whose stderr holds a
    Python traceback, naming side."""
    return [f"rvcocycle {' '.join(args)}: traceback on the {side} side"
            for args, (_, _, err) in runs.items() if TRACEBACK in err]


def prints_json(args: tuple[str, ...]) -> bool:
    """Whether the command's stdout is one JSON document."""
    return args[0] in JSON_COMMANDS or any(
        args[i:i + 2] == ("--format", "json") for i in range(len(args)))


def _reject(name: str):
    raise ValueError(f"non-strict JSON constant {name}")


def non_strict_json(runs: dict, side: str) -> list[str]:
    """One line per command of a run_all result that exits 0 with a JSON
    document on stdout that strict JSON does not parse, naming side."""
    lines = []
    for args, (code, out, _) in runs.items():
        if code == 0 and prints_json(args):
            try:
                json.loads(out, parse_constant=_reject)
            except ValueError as exc:
                lines.append(f"rvcocycle {' '.join(args)}: "
                             f"non-strict JSON on the {side} side ({exc})")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path, help="root of the baseline checkout")
    ap.add_argument("head", type=Path, help="root of the changed checkout")
    args = ap.parse_args(argv)
    cmds = matrix()
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / CONFIG_NAME).write_text(CONFIG_TEXT)
        base, head = (run_all(p.resolve(), cmds, Path(tmp))
                      for p in (args.base, args.head))
    lines = differences(base, head)
    head_faults = crashes(head, "head") + non_strict_json(head, "head")
    base_faults = crashes(base, "base") + non_strict_json(base, "base")
    for line in lines + base_faults + head_faults:
        print(line)
    print(f"{len(lines)} of {len(cmds)} commands differ")
    return 1 if lines or head_faults else 0


if __name__ == "__main__":
    sys.exit(main())
