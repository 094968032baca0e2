"""Command-line front door for the lab.

Subcommands map one-to-one onto experiment drivers and spectral one-shots:

    sample    emit Haar tuples as quaternion rows
    spectrum  per-level top eigenvalues for one tuple (CSV to stdout)
    gap       per-level gap bounds, optionally with the min-max optimizer
    scan      zero_one_scan experiment (record file + summary line)
    orbit     orbit_invariance experiment
    charvar   level_set_walk experiment
    lps       lps_benchmark experiment

One command serves the four experiment kinds: each flag's destination is
the ``ExperimentConfig`` field of the same name.

Every command is a pure function of its flags: seeds are mandatory wherever
randomness enters (no wall-clock seeding), rows are emitted in deterministic
order whatever the worker count, and reruns produce byte-identical primary
output, record files included.  CSV rows go to stdout; summaries are single
JSON lines on stderr or in ``--out``; record files follow the lab's JSONL
layout.

Exit codes: 0 success, 2 input/config error, 3 numerical failure, 4 I/O
failure.  Input errors are plain ``ValueError``s, from the flag checks here
and from the library alike; ``main`` maps the numerical ``ValueError``
subclasses to 3 before the rest map to 2.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path

import numpy as np

from .charvar import LevelSetSamplingError
from .group import GroupElement, GroupTuple, haar_sample, haar_tuple
from .irreps import MAX_LEVEL
from .lab import (
    LPS_EDGE,
    ExperimentConfig,
    NonFiniteError,
    json_line,
    lps_preset,
    record_filename,
    run_experiment,
)
from .spectral import lambda1_estimate, level_gap_bounds, minmax_gap_estimate

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def read_tuple_file(path) -> GroupTuple:
    """Parse a tuple file: one generator per line, four fields w x y z.

    Blank lines and '#' comments are skipped; rows must be unit quaternions
    to within 1e-9 (then renormalized).
    """
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ValueError(f"cannot read tuple file {path}: {e}") from e
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 4:
            raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
        try:
            w, x, y, z = (float(p) for p in parts)
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {e}") from e
        norm = (w * w + x * x + y * y + z * z) ** 0.5
        if not abs(norm - 1.0) <= 1e-9:  # NaN-safe
            raise ValueError(f"{path}:{lineno}: row is not a unit quaternion "
                             f"(norm {norm:.12g})")
        rows.append(GroupElement(w, x, y, z))
    if len(rows) < 2:
        raise ValueError(f"{path}: a tuple file needs at least 2 rows")
    return GroupTuple(rows)


def _resolve_tuple(args) -> GroupTuple:
    sources = [args.tuple_file is not None, args.seed is not None,
               getattr(args, "lps", False)]
    if sum(sources) != 1:
        raise ValueError("choose exactly one tuple source: --tuple-file, "
                         "--seed, or --lps")
    if args.seed is not None:
        if args.n is None:
            raise ValueError("--n is required with --seed")
        return haar_tuple(np.random.default_rng(args.seed), args.n)
    if args.tuple_file is not None:
        t, source = read_tuple_file(args.tuple_file), args.tuple_file
    else:
        t, source = lps_preset(), "--lps"
    if args.n is not None and args.n != len(t):
        raise ValueError(f"--n {args.n} conflicts with the {len(t)} "
                         f"generators of {source}")
    return t


def cmd_sample(args) -> int:
    if args.n < 2:
        raise ValueError("--n must be >= 2")
    if args.count < 1:
        raise ValueError("--count must be >= 1")
    rng = np.random.default_rng(args.seed)
    blocks = []
    for _ in range(args.count):
        rows = [" ".join(json_line(c) for c in haar_sample(rng).coords())
                for _ in range(args.n)]
        blocks.append("\n".join(rows))
    sys.stdout.write("\n\n".join(blocks) + "\n")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    t = _resolve_tuple(args)
    if not 1 <= args.cutoff <= MAX_LEVEL:
        raise ValueError(f"--cutoff must lie in [1, {MAX_LEVEL}]")
    # --out opens before the sweep, so a bad path fails before any row, and
    # for appending, so a failed sweep leaves an existing file as it was
    try:
        out = open(args.out, "a") if args.out else contextlib.nullcontext(sys.stderr)
    except OSError as e:
        raise OSError(f"cannot write summary to {args.out}: {e}") from e
    with out as f:
        report = lambda1_estimate(t, args.cutoff)
        for k, lam in report.per_level:
            print(f"{k},{json_line(lam)}")
        summary = {
            "n": len(t),
            "cutoff_J": report.cutoff_J,
            "lambda1_J": report.lambda1_J,
            "gap_proxy": report.gap_proxy,
        }
        if args.lps:
            summary["margin"] = LPS_EDGE - report.lambda1_J
        if args.out:
            f.truncate(0)
        print(json_line(summary), file=f)
    return EXIT_OK


def cmd_gap(args) -> int:
    t = _resolve_tuple(args)
    if (args.level is None) == (args.cutoff is None):
        raise ValueError("choose exactly one of --level and --cutoff")
    flag, value = (("--level", args.level) if args.level is not None
                   else ("--cutoff", args.cutoff))
    if not 1 <= value <= MAX_LEVEL:
        raise ValueError(f"{flag} must lie in [1, {MAX_LEVEL}]")
    levels = [value] if args.level is not None else list(range(1, value + 1))
    for k in levels:
        if args.minmax:
            lg = minmax_gap_estimate(t, k, restarts=args.restarts,
                                     iters=args.iters)
            tail = json_line(lg.minmax_estimate)
        else:
            lg = level_gap_bounds(t, k)
            tail = ""
        print(f"{k},{json_line(lg.lambda_max)},{json_line(lg.lower)},"
              f"{json_line(lg.upper)},{tail}")
    return EXIT_OK


# Parsed values that steer the run; every other one is a config field.
RUN = {"command", "func", "out_dir", "threads", "resume"}


def cmd_experiment(args) -> int:
    config = ExperimentConfig(**{k: v for k, v in vars(args).items()
                                 if k not in RUN})
    try:
        record = run_experiment(config, out_dir=args.out_dir,
                                threads=args.threads, resume=args.resume)
    except OSError as e:
        path = Path(args.out_dir) / record_filename(config)
        if path.exists():
            raise OSError(
                f"{e}; the partial record {path} is intact, rerun with the "
                f"same flags plus --resume to continue") from e
        raise OSError(f"cannot write a record in {args.out_dir}: {e}") from e
    print(json_line({"summary": record.summary}))
    print(f"record: {record.path}", file=sys.stderr)
    return EXIT_OK


class _Formatter(argparse.ArgumentDefaultsHelpFormatter):
    def __init__(self, prog):
        super().__init__(prog, width=78)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaplab",
        description="Spectral-gap laboratory for tuples of rotations.",
        formatter_class=_Formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text, formatter_class=_Formatter,
                           description=help_text)
        p.set_defaults(func=fn)
        return p

    p = add("sample", cmd_sample, "Emit Haar-random tuples as quaternion rows.")
    p.add_argument("--n", type=int, required=True, help="int: tuple rank")
    p.add_argument("--count", type=int, required=True,
                   help="int: number of tuples")
    p.add_argument("--seed", type=int, required=True, help="int: random seed")

    p = add("spectrum", cmd_spectrum,
            "Per-level top eigenvalues 'k,lambda_max' for one tuple.")
    p.add_argument("--n", type=int, help="int: rank for --seed tuples")
    p.add_argument("--cutoff", type=int, required=True,
                   help="int: sweep levels k = 1..cutoff")
    p.add_argument("--seed", type=int, help="int: Haar tuple seed")
    p.add_argument("--tuple-file", help="path: tuple file (w x y z rows)")
    p.add_argument("--lps", action="store_true",
                   help="use the (1+2i)/sqrt5-type preset (n=3)")
    p.add_argument("--out", help="path: write the summary JSON line here "
                                 "instead of stderr")

    p = add("gap", cmd_gap,
            "Per-level gap rows 'k,lambda_max,lower,upper,minmax'.")
    p.add_argument("--n", type=int, help="int: rank for --seed tuples")
    p.add_argument("--seed", type=int, help="int: Haar tuple seed")
    p.add_argument("--tuple-file", help="path: tuple file (w x y z rows)")
    p.add_argument("--level", type=int, help="int: single level k")
    p.add_argument("--cutoff", type=int, help="int: sweep levels 1..cutoff")
    p.add_argument("--minmax", action="store_true",
                   help="run the min-max optimizer per level")
    p.add_argument("--restarts", type=int, default=16,
                   help="int: optimizer restarts")
    p.add_argument("--iters", type=int, default=300,
                   help="int: optimizer iterations per restart")

    def add_experiment(name, kind, help_text):
        p = add(name, cmd_experiment, help_text)
        p.set_defaults(kind=kind)
        p.add_argument("--seed", type=int, required=True,
                       help="int: root seed (mandatory; no wall-clock seeding)")
        p.add_argument("--out-dir", default=".",
                       help="path: directory for the record file")
        p.add_argument("--threads", type=int,
                       default=os.environ.get("GAPLAB_THREADS") or "1",
                       help="int: worker threads (env GAPLAB_THREADS)")
        p.add_argument("--resume", action="store_true",
                       help="continue a partial record file")
        return p

    p = add_experiment("scan", "zero_one_scan",
                       "Zero-one scan: Haar tuples, cutoff spectra, gap "
                       "indicator distribution.")
    p.add_argument("--n", type=int, required=True, help="int: tuple rank")
    p.add_argument("--cutoff", type=int, default=40, dest="cutoff_J",
                   metavar="CUTOFF", help="int: level cutoff J")
    p.add_argument("--samples", type=int, required=True,
                   help="int: number of Haar tuples")
    p.add_argument("--threshold", type=float, default=1e-3,
                   help="float: gap indicator threshold")

    p = add_experiment("orbit", "orbit_invariance",
                       "Random Nielsen walk from one Haar tuple; invariance "
                       "and stability checks.")
    p.add_argument("--n", type=int, required=True, help="int: tuple rank")
    p.add_argument("--walk", type=int, required=True, dest="walk_length",
                   metavar="WALK", help="int: number of moves")
    p.add_argument("--cutoff", type=int, default=6, dest="cutoff_J",
                   metavar="CUTOFF", help="int: level cutoff J")
    p.add_argument("--threshold", type=float, default=1e-3,
                   help="float: gap indicator threshold")

    p = add_experiment("charvar", "level_set_walk",
                       "Pairs on one commutator-trace fiber plus a fiber "
                       "walk (n=2).")
    p.set_defaults(n=2)
    p.add_argument("--target", type=float, required=True,
                   help="float: fiber trace target in (-2, 2)")
    p.add_argument("--tol", type=float, required=True,
                   help="float: rejection band half-width")
    p.add_argument("--samples", type=int, required=True,
                   help="int: fiber samples")
    p.add_argument("--walk", type=int, default=1000, dest="walk_length",
                   metavar="WALK", help="int: fiber walk steps")
    p.add_argument("--cutoff", type=int, default=6, dest="cutoff_J",
                   metavar="CUTOFF", help="int: level cutoff J")
    p.add_argument("--threshold", type=float, default=0.1,
                   help="float: gap indicator threshold")
    p.add_argument("--max-tries", type=int, default=1_000_000,
                   help="int: rejection budget per sample")

    p = add_experiment("lps", "lps_benchmark",
                       "Per-level spectra of the (1+2i)/sqrt5-type preset "
                       "against the 2*sqrt(5) edge.")
    p.set_defaults(n=3)
    p.add_argument("--cutoff", type=int, default=24, dest="cutoff_J",
                   metavar="CUTOFF", help="int: level cutoff J")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # LinAlgError and NonFiniteError subclass ValueError, so they go first
    except (LevelSetSamplingError, np.linalg.LinAlgError, NonFiniteError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as e:
        print(f"i/o failure: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
