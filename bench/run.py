"""gaplab benchmark: end-to-end CLI runs and a per-layer traced run.

Usage, from the root of a gaplab checkout:

    python3 bench/run.py --workload sweep [--seed 1] [--seconds 50] [--trace 0|1]

With ``--trace 0`` every measured process is a fresh, untraced
``python -m gaplab ...``; the run reports the end-to-end metrics.  With
``--trace 1`` the same untraced runs are followed by one traced process
(``bench/traced_main.py`` under ``-X importtime``), and the run reports the
per-layer metrics.  Human-readable lines come first; the last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.

Operations are gaplab output rows (record rows, or CSV lines for ``gap``)
plus the set-up probes; a row fails when it carries an ``error`` field, when
its process exits nonzero, or when an output check rejects it.  The exit code
is 0 whenever a result line was printed, and 2 when the checkout holds no
gaplab sources to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import spans
import workloads

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # not used while tuning; for validating later claims
MIN_REPEATS = 3
RUN_LIMIT_S = 170.0  # children still running this long after start are killed
BLAS_THREADS = 1  # so gaplab threads x BLAS threads <= nproc

BENCH_DIR = Path(__file__).resolve().parent
PROBE = ("import time, gaplab.cli as c; c.build_parser(); "
         "print(time.monotonic_ns(), c.__file__)")


@dataclass
class Proc:
    """One finished child process."""

    start_ns: int
    end_ns: int
    code: int
    maxrss_kb: int
    stdout: str
    stderr: str

    @property
    def wall_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def child_env(src: Path) -> dict:
    """A pinned environment: gaplab from ``src``, BLAS threads fixed, no
    GAPLAB_THREADS fallback, nothing else inherited but PATH."""
    blas = str(BLAS_THREADS)
    return {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": str(src),
        "PYTHONHASHSEED": "0",
        "LC_ALL": "C",
        "OPENBLAS_NUM_THREADS": blas,
        "OMP_NUM_THREADS": blas,
        "MKL_NUM_THREADS": blas,
    }


def spawn(cmd: list, env: dict, cwd: Path, scratch: Path, timeout: float) -> Proc:
    """Run ``cmd`` to completion, killing it after ``timeout`` seconds; wall
    time spans spawn to exit and the peak RSS is the child's own, from wait4."""
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic_ns()
        p = subprocess.Popen(cmd, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                             stdout=out, stderr=err)
        killer = threading.Timer(timeout, p.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            killer.cancel()
        end = time.monotonic_ns()
        p.returncode = os.waitstatus_to_exitcode(status)
    return Proc(start, end, p.returncode, usage.ru_maxrss,
                out_path.read_text(), err_path.read_text())


class Runner:
    """Spawns probes and gaplab processes for one workload and checks them."""

    def __init__(self, root: Path, work: Path, workload: workloads.Workload, seed: int):
        self.root = root
        self.work = work
        self.workload = workload
        self.seed = seed
        self.src = root / "src"
        self.env = child_env(self.src)
        self.checker = workloads.Checker(workload, seed)
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.expected: str | None = None  # digest of the first run's outputs
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def _spawn(self, cmd: list, scratch: Path) -> Proc:
        timeout = max(self.deadline - time.monotonic(), 0.1)
        return spawn(cmd, self.env, self.root, scratch, timeout)

    def _scratch(self) -> Path:
        self.count += 1
        d = self.work / f"p{self.count:03d}"
        d.mkdir()
        return d

    def probe(self) -> float | None:
        """Seconds from spawn until gaplab.cli is imported and its parser built."""
        p = self._spawn([sys.executable, "-c", PROBE], self._scratch())
        self.attempted += 1
        fields = p.stdout.split(maxsplit=1)
        if p.code != 0 or len(fields) != 2 or not Path(fields[1].strip()).is_relative_to(self.src):
            self.failed += 1
            self.problems.append(f"setup probe failed (exit {p.code}): {p.stderr[-300:]}")
            return None
        return (int(fields[0]) - p.start_ns) / 1e9

    def invoke(self, traced: bool = False):
        """Run the workload once; returns (Proc, rows completed, record bytes,
        traced metrics or None)."""
        scratch = self._scratch()
        out_dir = scratch / "out"
        out_dir.mkdir()
        argv = self.workload.argv(self.seed, str(out_dir))
        if traced:
            metrics_path = scratch / "spans.json"
            cmd = [sys.executable, "-X", "importtime", str(BENCH_DIR / "traced_main.py"),
                   str(metrics_path), str(self.workload.threads or 1), *argv]
        else:
            cmd = [sys.executable, "-m", "gaplab", *argv]
        p = self._spawn(cmd, scratch)
        record_text = ""
        records = sorted(out_dir.glob("*.jsonl"))
        if records:
            record_text = records[0].read_text()
        out = workloads.Output(stdout=p.stdout)
        try:
            if self.workload.writes_record:
                out.rows = workloads.parse_record(record_text)
            else:
                out.rows = p.stdout.splitlines()
        except ValueError as e:
            self.problems.append(f"unreadable record: {e!r}")
        bad, problems = self.checker.check(out)
        if p.code != 0:
            bad = set(range(self.workload.rows))
            problems.append(f"exit {p.code}: {p.stderr[-300:]}")
        # Outputs must repeat byte for byte, traced or not; the record's last
        # line carries the run's own wall clock and is left out.
        digest = hashlib.sha256(
            (p.stdout + "\n".join(record_text.splitlines()[:-1])).encode()).hexdigest()
        if self.expected is None:
            self.expected = digest
        elif digest != self.expected:
            bad = set(range(self.workload.rows))
            problems.append("outputs differ from the first run"
                            + (" (traced run)" if traced else ""))
        self.attempted += self.workload.rows
        self.failed += len(bad)
        self.problems.extend(problems)
        traced_metrics = None
        if traced and p.code == 0:
            traced_metrics = json.loads(metrics_path.read_text())
            traced_metrics["cli.import_s"], traced_metrics["cli.import_scipy_s"] = \
                spans.import_times(p.stderr)
        record_bytes = sum(f.stat().st_size for f in records)
        return p, len(out.rows), record_bytes, traced_metrics


def cpu_jiffies() -> list[int] | None:
    """The machine's aggregate CPU counters from /proc/stat, if readable."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def environment(workload: workloads.Workload) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": openblas,
        "blas_threads": BLAS_THREADS,
        "gaplab_threads": workload.threads,
        "loadavg_before": os.getloadavg(),
    }


def measure(runner: Runner, seconds: float, trace: bool) -> dict:
    """The untraced loop, then (with ``trace``) one traced process.

    Returns {metric name: (value, sample count)}.
    """
    runner.probe()  # warm-up: compiles bytecode and fills the page cache
    setups, procs = [], []
    start = time.monotonic()
    while True:
        s = runner.probe()
        if s is not None:
            setups.append(s)
        procs.append(runner.invoke())
        if len(procs) >= MIN_REPEATS and time.monotonic() - start >= seconds:
            break
    if not setups:
        return {}
    print("# setup_s samples: " + " ".join(f"{s:.3f}" for s in setups))
    print("# wall_s samples:  " + " ".join(f"{p.wall_s:.3f}" for p, *_ in procs))
    setup_s = statistics.median(setups)
    wall_s = statistics.median(p.wall_s for p, *_ in procs)
    result = {
        "setup_s": (setup_s, len(setups)),
        "wall_s": (wall_s, len(procs)),
        "rows_per_s": (statistics.median(rows / (p.wall_s - setup_s)
                                         for p, rows, *_ in procs), len(procs)),
        "peak_rss_mb": (statistics.median(p.maxrss_kb * 1024 / 1e6 for p, *_ in procs),
                        len(procs)),
    }
    if not trace:
        return result
    p, _, record_bytes, metrics = runner.invoke(traced=True)
    if metrics is None:
        return {}
    layer = {name: (value, 1) for name, value in metrics.items()}
    layer["lab.record_bytes"] = (record_bytes, 1)
    layer["spectral.lambda_ref_dev_max"] = (runner.checker.max_dev, 1)
    layer["trace.overhead_frac"] = (p.wall_s / wall_s - 1.0, 1)
    return layer


def main(argv=None) -> int:
    nproc = len(os.sched_getaffinity(0))
    table = workloads.workloads(nproc)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(table))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="measure for this long (at least "
                             f"{MIN_REPEATS} processes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gaplab" / "cli.py").is_file():
        print(f"error: no gaplab sources under {root / 'src'}; run from the root "
              "of a gaplab checkout", file=sys.stderr)
        return 2
    workload = table[args.workload]
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = environment(workload)
    jiffies = cpu_jiffies()
    work_root = root / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        runner = Runner(root, work, workload, args.seed)
        print(f"# workload {workload.name}: {workload.why}")
        print("# command: python -m gaplab " + " ".join(workload.argv(args.seed, "<fresh dir>")))
        measured = measure(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()
    after = cpu_jiffies()
    if jiffies and after and sum(after) > sum(jiffies):
        # share of the machine's CPU time taken by the hypervisor (steal)
        env["steal_frac"] = (after[7] - jiffies[7]) / (sum(after) - sum(jiffies))
    print("# env: " + json.dumps(env))
    if workload.name == "sweep":
        print(f"# sweep: max |lambda - reference| = "
              f"{runner.checker.max_dev:.3e} (tolerance {workloads.LAMBDA_TOL:g})")
    for problem in runner.problems[:20]:
        print(f"# FAIL {problem}")

    listed = {m["name"] for m in wanted}
    for name, (value, _) in measured.items():
        if name not in listed:
            print(f"{name:40s} {value:>14.6g}        (not in BENCHMARK.json)")
    metrics = {}
    for m in wanted:
        value, samples = measured.get(m["name"], (0.0, 0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:40s} {value:>14.6g} {m['unit']:6s}"
              + (f" (median of {samples})" if samples > 1 else ""))
    fail_frac = runner.failed / runner.attempted if runner.attempted else 1.0
    print(f"{'fail_frac':40s} {fail_frac:>14.6g} {'1':6s} ({runner.failed}/{runner.attempted})")
    correct = runner.failed == 0 and all(m["name"] in measured for m in wanted)
    print(json.dumps({"correct": correct, "attempted": max(runner.attempted, 1),
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
