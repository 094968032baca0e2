"""Run one list of gaplab commands at two local revisions and compare outputs.

Usage, from the root of a gaplab checkout:

    python3 scripts/compare_revisions.py [--base REV] [--commands FILE]

It compares the working tree against the revision ``--base`` (default HEAD,
so uncommitted changes against the last commit; after a commit, HEAD~1).
The base is checked out with ``git worktree add --detach`` into a temporary
directory (``TMPDIR`` chooses where) and removed afterwards.

Each line of the command file is one gaplab command line (``#`` starts a
comment).  It runs as ``python -m gaplab ...`` in a fresh empty directory,
so experiments should pass ``--out-dir .``; a relative path to a missing
directory exercises the I/O failure path.  The script compares the exit
code, stdout, stderr and every file the command wrote, line by line:

- a line that parses as JSON is compared as a structure, any other line
  field by field between commas;
- a number that is a float on either side counts towards the largest float
  difference of its command;
- every other value, line count, file name or exit code must be identical,
  and each difference is printed as a mismatch.

The table gives, per command, the largest float difference and the number
of non-float mismatches.  The exit code is 0 when no command has a
non-float mismatch and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_COMMANDS = Path(__file__).resolve().parent / "commands.txt"


def read_commands(path: Path) -> list[list[str]]:
    out = []
    for line in path.read_text().splitlines():
        body = line.split("#", 1)[0].strip()
        if body:
            out.append(shlex.split(body))
    return out


def run(tree: Path, argv: list[str], scratch: Path) -> dict:
    """Exit code, stdout, stderr and written files of one command."""
    scratch.mkdir(parents=True)
    env = {"PATH": os.environ.get("PATH", os.defpath),
           "PYTHONPATH": str(tree / "src"), "PYTHONHASHSEED": "0",
           "LC_ALL": "C", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    p = subprocess.run([sys.executable, "-m", "gaplab", *argv], cwd=scratch,
                       env=env, capture_output=True, text=True)
    files = {str(f.relative_to(scratch)): f.read_text()
             for f in sorted(scratch.rglob("*")) if f.is_file()}
    return {"exit": p.returncode, "stdout": p.stdout, "stderr": p.stderr,
            "files": files}


def _value(field: str):
    try:
        return json.loads(field)
    except ValueError:
        return field


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def compare(a, b, where: str, report: dict) -> None:
    """Fold the differences between the values a and b into ``report``."""
    if _is_number(a) and _is_number(b) and (isinstance(a, float)
                                            or isinstance(b, float)):
        report["float"] = max(report["float"], abs(a - b))
    elif isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            report["mismatches"].append(f"{where}: keys {sorted(a)} != {sorted(b)}")
            return
        for key in a:
            compare(a[key], b[key], f"{where}.{key}", report)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            report["mismatches"].append(f"{where}: length {len(a)} != {len(b)}")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            compare(x, y, f"{where}[{i}]", report)
    elif a != b:
        report["mismatches"].append(f"{where}: {str(a)[:60]!r} != {str(b)[:60]!r}")


def compare_text(a: str, b: str, where: str, report: dict) -> None:
    la, lb = a.splitlines(), b.splitlines()
    if len(la) != len(lb):
        report["mismatches"].append(f"{where}: {len(la)} lines != {len(lb)}")
        return
    for i, (x, y) in enumerate(zip(la, lb), start=1):
        try:
            compare(json.loads(x), json.loads(y), f"{where}:{i}", report)
        except ValueError:
            compare([_value(f) for f in x.split(",")],
                    [_value(f) for f in y.split(",")], f"{where}:{i}", report)


def compare_runs(base: dict, head: dict) -> dict:
    report = {"float": 0.0, "mismatches": []}
    compare(base["exit"], head["exit"], "exit", report)
    compare_text(base["stdout"], head["stdout"], "stdout", report)
    compare_text(base["stderr"], head["stderr"], "stderr", report)
    if base["files"].keys() != head["files"].keys():
        report["mismatches"].append(
            f"files: {sorted(base['files'])} != {sorted(head['files'])}")
    for name in sorted(base["files"].keys() & head["files"].keys()):
        compare_text(base["files"][name], head["files"][name], name, report)
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD", help="revision (default HEAD)")
    ap.add_argument("--commands", type=Path, default=DEFAULT_COMMANDS,
                    help="command list (default scripts/commands.txt)")
    args = ap.parse_args(argv)
    commands = read_commands(args.commands)
    with tempfile.TemporaryDirectory(prefix="gaplab-compare-") as tmp:
        base = Path(tmp) / "base"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach",
                        "--quiet", str(base), args.base], check=True)
        try:
            failed = 0
            print(f"{'max |float diff|':>16}  {'mismatches':>10}  command")
            for i, cmd in enumerate(commands):
                runs = Path(tmp) / f"run{i}"
                report = compare_runs(run(base, cmd, runs / "base"),
                                      run(ROOT, cmd, runs / "head"))
                failed += bool(report["mismatches"])
                print(f"{report['float']:>16.3g}  {len(report['mismatches']):>10}"
                      f"  {shlex.join(cmd)}")
                for m in report["mismatches"][:5]:
                    print(f"{'':>30}{m}")
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove",
                            "--force", str(base)], check=False)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
