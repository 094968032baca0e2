"""The benchmark's workloads: gaplab command lines and their output checks.

Each workload is one fixed flag shape of the ``gaplab`` CLI, sized so that
one process runs for a few seconds on a 2-core machine.  The benchmark seed
becomes the ``--seed`` flag; gaplab sees nothing else of the benchmark.

A check returns the indices of the failed rows (record rows, or CSV lines
for ``gap``) plus one message per problem.  A problem with the whole output,
such as a wrong summary, fails every row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import reference

# Workload sizes: each process runs about 3-5 s on 2 cores, most of it work.
SWEEP_SAMPLES = 16
SWEEP_CUTOFF = 60  # the deepest level gaplab supports (irreps.MAX_LEVEL)
ORBIT_WALK = 1500
FIBER_SAMPLES = 800
FIBER_WALK = 5000
FIBER_TARGET = 0.0
FIBER_TOL = 0.01
MINMAX_CUTOFF = 12

# lambda_max must agree with the exact-diagonalization reference to within
# this.  gaplab's symmetric-power construction loses accuracy geometrically
# in k: its deviation is about 1e-14 at k = 10, 2e-11 at k = 40 and up to
# 2.6e-8 at k = 60, so a 1e-8 tolerance would reject about 1% of rows at the
# deepest level.  1e-7 still rejects any wrong level outright.
LAMBDA_TOL = 1e-7
SUM_TOL = 1e-12


@dataclass
class Output:
    """What one gaplab process produced."""

    stdout: str
    rows: list = field(default_factory=list)  # record rows or CSV lines


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    subcommand: tuple
    rows: int
    threads: int | None  # gaplab worker threads; None: no --threads flag
    writes_record: bool

    def argv(self, seed: int, out_dir: str | None) -> list[str]:
        args = [*self.subcommand, "--seed", str(seed)]
        if self.threads is not None:
            args += ["--threads", str(self.threads)]
        if self.writes_record:
            args += ["--out-dir", out_dir]
        return args


def workloads(nproc: int) -> dict[str, Workload]:
    orbit_threads = min(2, nproc)
    table = [
        Workload(
            "sweep",
            "single-threaded irreps + dense eigensolve at the deepest level, k <= 60",
            ("scan", "--n", "2", "--cutoff", str(SWEEP_CUTOFF),
             "--samples", str(SWEEP_SAMPLES)),
            SWEEP_SAMPLES, 1, True),
        Workload(
            "orbit",
            "thousands of shallow rows (k <= 6) on the lab thread pool: "
            "per-call irreps overhead, Nielsen moves, record I/O",
            ("orbit", "--n", "3", "--cutoff", "6", "--walk", str(ORBIT_WALK)),
            ORBIT_WALK, orbit_threads, True),
        Workload(
            "fiber",
            "rejection sampling of a commutator-trace fiber: quaternion "
            "arithmetic in group and charvar, bypasses deep irreps",
            ("charvar", "--target", repr(FIBER_TARGET), "--tol", repr(FIBER_TOL),
             "--cutoff", "6", "--samples", str(FIBER_SAMPLES),
             "--walk", str(FIBER_WALK)),
            FIBER_SAMPLES + FIBER_WALK, 1, True),
        Workload(
            "minmax",
            "the spectral min-max optimizer loop; no record file, almost no irreps",
            ("gap", "--n", "2", "--cutoff", str(MINMAX_CUTOFF), "--minmax"),
            MINMAX_CUTOFF, None, False),
    ]
    return {w.name: w for w in table}


def parse_record(text: str) -> list:
    """The row objects of a JSONL record file (config and summary lines
    left out)."""
    rows = []
    for line in text.splitlines()[1:]:
        obj = json.loads(line)
        if "summary" not in obj:
            rows.append(obj)
    return rows


def _stdout_summary(out: Output) -> dict:
    return json.loads(out.stdout)["summary"]


class Checker:
    """Output checks for one workload at one seed.

    The sweep reference is computed on first use and kept for the repeats.
    """

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self._reference: dict[int, list[float]] = {}
        self.max_dev = 0.0  # sweep: largest |lambda - reference| seen

    def check(self, out: Output) -> tuple[set, list[str]]:
        bad: set = set()
        problems: list[str] = []
        try:
            getattr(self, "_check_" + self.workload.name)(out, bad, problems)
        except (ValueError, KeyError, TypeError, IndexError) as e:
            problems.append(f"unreadable output: {e!r}")
        self._whole(bad, problems, len(out.rows) == self.workload.rows,
                    f"{len(out.rows)} rows, expected {self.workload.rows}")
        if problems and not bad:
            bad = set(range(self.workload.rows))
        return bad, problems

    def _whole(self, bad, problems, ok: bool, message: str):
        if not ok:
            problems.append(message)
            bad.update(range(self.workload.rows))

    def _row_errors(self, out, bad, problems):
        for i, r in enumerate(out.rows):
            if "error" in r or r.get("index") != i:
                bad.add(i)
                problems.append(f"row {i}: {r.get('error', 'index out of order')}")

    def _check_sweep(self, out: Output, bad, problems):
        summary = _stdout_summary(out)
        self._whole(bad, problems, summary["errors"] == 0, "summary reports errors")
        self._row_errors(out, bad, problems)
        n = 2
        for i, r in enumerate(out.rows):
            lams = r["per_level"]
            ref = self.reference(i)
            devs = [abs(a - b) for a, b in zip(lams, ref)]
            self.max_dev = max(self.max_dev, max(devs, default=0.0))
            reasons = []
            if len(lams) != SWEEP_CUTOFF:
                reasons.append(f"{len(lams)} levels")
            if any(v > 2.0 * n for v in lams):
                reasons.append("lambda > 2n")
            if any(d > LAMBDA_TOL for d in devs):
                reasons.append(f"lambda off the reference by {max(devs):.2e}")
            if abs(r["lambda1_J"] - max(lams)) > SUM_TOL:
                reasons.append("lambda1_J != max_k lambda_max")
            if abs(r["gap_proxy"] - (2.0 * n - r["lambda1_J"])) > SUM_TOL:
                reasons.append("gap_proxy != 2n - lambda1_J")
            if reasons:
                bad.add(i)
                problems.append(f"row {i}: " + ", ".join(reasons))

    def reference(self, index: int) -> list[float]:
        if index not in self._reference:
            quats = reference.scan_tuple(self.seed, index, 2)
            self._reference[index] = reference.lambda_max_levels(quats, SWEEP_CUTOFF)
        return self._reference[index]

    def _check_orbit(self, out: Output, bad, problems):
        summary = _stdout_summary(out)
        self._whole(bad, problems, summary["errors"] == 0, "summary reports errors")
        self._whole(bad, problems, summary["stability_pass_rate"] == 1,
                    f"stability_pass_rate {summary['stability_pass_rate']}")
        self._row_errors(out, bad, problems)
        for i, r in enumerate(out.rows):
            if r.get("stability_ok") is not True:
                bad.add(i)
                problems.append(f"row {i}: stability check failed")

    def _check_fiber(self, out: Output, bad, problems):
        summary = _stdout_summary(out)
        self._whole(bad, problems, summary["errors"] == 0, "summary reports errors")
        self._whole(bad, problems, summary["max_g_drift_walk"] < 1e-9,
                    f"max_g_drift_walk {summary['max_g_drift_walk']}")
        self._whole(bad, problems, summary["max_fiber_dev"] <= FIBER_TOL,
                    f"max_fiber_dev {summary['max_fiber_dev']}")
        self._row_errors(out, bad, problems)
        for i, r in enumerate(out.rows):
            if r["phase"] == "fiber" and abs(r["commutator_trace"] - FIBER_TARGET) > FIBER_TOL:
                bad.add(i)
                problems.append(f"row {i}: off the fiber")

    def _check_minmax(self, out: Output, bad, problems):
        for i, line in enumerate(out.rows):
            k, lam, lower, upper, est = line.split(",")
            ok = (int(k) == i + 1 and float(lam) <= 4.0
                  and float(lower) <= float(est) <= float(upper))
            if not ok:
                bad.add(i)
                problems.append(f"line {i + 1}: not lower <= estimate <= upper: {line}")
