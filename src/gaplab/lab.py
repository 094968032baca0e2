"""Seeded, resumable Monte Carlo experiment drivers with persisted records.

Experiments
-----------

zero_one_scan     Haar tuples; per-sample cutoff spectra, gap proxies, and
                  the gap indicator.  Reports distributions, never a verdict:
                  the gapped/ungapped dichotomy is a measure-one statement
                  outside numerical reach, so the output is labeled
                  finite-cutoff evidence.
orbit_invariance  one Haar start tuple pushed along a random Nielsen walk;
                  records the gap proxy, the indicator, the per-move
                  generating-set constant L with the quantitative stability
                  check  gap(after) >= gap(before) / (n L^2) - 1e-6, and (for
                  pairs) the commutator trace, whose drift along the orbit
                  should be roundoff only.
level_set_walk    pairs sampled on one commutator-trace fiber by rejection,
                  with per-pair gap data, plus a spectra-free walk on the
                  fiber; the summary compares the walk's x-trace distribution
                  to the fiber samples (KS) and reports the indicator's
                  distribution across the fiber.
lps_benchmark     the preset tuple of quaternions (1+2i)/sqrt5, (1+2j)/sqrt5,
                  (1+2k)/sqrt5; per-level top eigenvalues against the
                  reference edge 2*sqrt(5).

Reproducibility
---------------

Row i draws its random stream from a counter-based 64-bit mix of (root seed,
experiment kind, i), so rows are independent tasks and results are identical
for any execution order or worker count.  Record files are JSON lines: line 1
the config, one line per row, and a final line with the summary and the
version; floats are written with 17 significant digits so parsed values
round-trip exactly.  Nothing in a record depends on the clock, so the same
config writes the same file byte for byte.  A run interrupted after r rows,
even one killed mid-line, can be resumed against the partial file and ends
with the file an uninterrupted run writes.

Execution
---------

Every kind maps one task over consecutive blocks of _BLOCK row indices.  A
scan, orbit or fiber task computes the spectra of its whole block with one
stacked sweep (:func:`~gaplab.spectral.lambda1_estimates`; an orbit block
also sweeps the state before its first row), which gives each tuple exactly
the spectrum it gets alone, so block boundaries never show in the rows.
Consecutive orbit states share n - 1 generator objects, and the sweep builds
each shared object's irreps once per level and sub-stack, from a table per
sub-stack of the block, so memory stays bounded as before.  The constant L
of an orbit row depends on its move alone; it is computed once per distinct
move of the walk (at most 18 at n = 3) before the first block.  An
lps row is one level of the preset
(:func:`~gaplab.spectral.level_gap_bounds`, the value ``gap`` prints), so a
resume computes only the levels it still lacks.  With ``threads > 1`` the
blocks run on a thread pool that keeps at most 2 * threads of them in flight
and hands rows back in index order.  Rows are still written and flushed one
row at a time, so a kill leaves the config line, every row written before
it, and at most one torn line; resuming cuts the torn line and starts the
first block at the first missing row.  There are no error rows: a numerical
failure propagates out of the run and fails the block it occurred in, which
leaves every row of the earlier blocks as a resumable partial record.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
from scipy import stats

from . import __version__ as ARTIFACT_VERSION
from .charvar import commutator_trace, sample_level_set_counted
from .group import GroupElement, GroupTuple, haar_tuple, trace, tuple_digest
from .irreps import MAX_LEVEL
from .nielsen import apply_move, random_walk, word_length_bound
from .spectral import (
    DEFAULT_THRESHOLD,
    SpectralReport,
    lambda1_estimate,  # unused; bench/test_bench.py checks its rebinding here
    lambda1_estimates,
    level_gap_bounds,
    pgap_from_report,
)

KINDS = ("zero_one_scan", "orbit_invariance", "level_set_walk", "lps_benchmark")

_STABILITY_SLACK = 1e-6

# Rows per task.  A block's spectra are one stacked sweep, which costs its
# arithmetic rather than its calls from a few dozen tuples on; blocks of 64
# ran the 1500-step orbit as fast on two threads as on one (see
# BENCH_batched_levels.json).
_BLOCK = 64


# the optimal edge 2 sqrt(5) for the LPS preset's averaging operator
LPS_EDGE = 2.0 * math.sqrt(5.0)


def lps_preset() -> GroupTuple:
    """The tuple of quaternions (1+2i)/sqrt5, (1+2j)/sqrt5, (1+2k)/sqrt5."""
    s, r = 1.0 / math.sqrt(5.0), 2.0 / math.sqrt(5.0)
    return GroupTuple([
        GroupElement(s, r, 0.0, 0.0),
        GroupElement(s, 0.0, r, 0.0),
        GroupElement(s, 0.0, 0.0, r),
    ])


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    n: int
    seed: int
    cutoff_J: int = 40
    samples: int = 0
    walk_length: int = 0
    threshold: float = DEFAULT_THRESHOLD
    target: float = 0.0
    tol: float = 0.05
    max_tries: int = 1_000_000

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        for name in ("threshold", "target", "tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if not 1 <= self.cutoff_J <= MAX_LEVEL:
            raise ValueError(f"cutoff_J must lie in [1, {MAX_LEVEL}]")
        if self.threshold <= 0.0:
            raise ValueError("threshold must be positive")
        if self.kind == "zero_one_scan" and self.samples < 1:
            raise ValueError("zero_one_scan needs samples >= 1")
        if self.kind == "orbit_invariance" and self.walk_length < 1:
            raise ValueError("orbit_invariance needs walk_length >= 1")
        if self.kind == "level_set_walk":
            if self.n != 2:
                raise ValueError("level_set_walk is defined for n = 2")
            if self.samples < 1 or self.walk_length < 1:
                raise ValueError("level_set_walk needs samples and walk_length >= 1")
            if not (-2.0 < self.target < 2.0):
                raise ValueError("target must lie in (-2, 2)")
            if self.tol <= 0.0:
                raise ValueError("tol must be positive")
            if self.max_tries < 1:
                raise ValueError("max_tries must be >= 1")
        if self.kind == "lps_benchmark" and self.n != 3:
            raise ValueError("lps_benchmark uses the n = 3 preset")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class RunRecord:
    config: ExperimentConfig
    rows: list
    summary: dict
    version: str
    path: str | None = None


# ---------------------------------------------------------------------------
# Serialization: JSON with floats at 17 significant digits


class NonFiniteError(ValueError):
    """A NaN or infinity reached a record.  Config values are checked finite
    on construction, so this always marks a numerical failure."""


def json_line(obj) -> str:
    """Serialize to compact JSON; every float gets 17 significant digits."""
    return _fmt(obj)


# The quoted form of each str key json_line has met: records use a few
# dozen keys, and the memo stops growing at _QUOTED_MAX.
_QUOTED: dict = {}
_QUOTED_MAX = 1024


def _quoted(k) -> str:
    if type(k) is not str:
        return json.dumps(str(k))
    q = _QUOTED.get(k)
    if q is None:
        q = json.dumps(k)
        if len(_QUOTED) < _QUOTED_MAX:
            _QUOTED[k] = q
    return q


def _fmt(v) -> str:
    # a plain float first: most values of a record are
    if type(v) is float:
        if not math.isfinite(v):
            raise NonFiniteError("records must not contain non-finite floats")
        return format(v, ".17g")
    if isinstance(v, dict):
        return "{" + ",".join([f"{_quoted(k)}:{_fmt(x)}"
                               for k, x in v.items()]) + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ",".join([_fmt(x) for x in v]) + "]"
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _fmt(float(v))
    if v is None:
        return "null"
    raise TypeError(f"cannot serialize {type(v).__name__}")


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(json_line(config.to_dict()).encode()).hexdigest()


def record_filename(config: ExperimentConfig) -> str:
    return f"{config.kind}-{config.seed}-{config_hash(config)[:8]}.jsonl"


# ---------------------------------------------------------------------------
# Per-row stream derivation: splitmix64 counter mix


_MASK = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def derive_seed(root_seed: int, tag: str, index: int) -> int:
    """Order-independent 64-bit stream seed for (root, tag, index)."""
    t = int.from_bytes(hashlib.sha256(tag.encode()).digest()[:8], "big")
    return _splitmix64(_splitmix64(_splitmix64(root_seed & _MASK) ^ t) ^ (index & _MASK))


# ---------------------------------------------------------------------------
# Row computation per experiment kind


def _spectral_fields(report: SpectralReport, config: ExperimentConfig) -> dict:
    return {
        "per_level": [lam for _, lam in report.per_level],
        "lambda1_J": report.lambda1_J,
        "gap_proxy": report.gap_proxy,
        "pgap": pgap_from_report(report, config.threshold),
    }


def _block_spectra(tuples: list, config: ExperimentConfig) -> list[dict]:
    return [_spectral_fields(r, config)
            for r in lambda1_estimates(tuples, config.cutoff_J)]


def _scan_rows(config: ExperimentConfig, block: range) -> list[dict]:
    tuples = [
        haar_tuple(np.random.default_rng(derive_seed(config.seed, config.kind, i)),
                   config.n)
        for i in block
    ]
    rows = []
    for i, t, spectral in zip(block, tuples, _block_spectra(tuples, config)):
        row = {"index": i, "digest": tuple_digest(t), **spectral}
        if config.n == 2:
            row["commutator_trace"] = commutator_trace(t)
        rows.append(row)
    return rows


def _walk_states(config: ExperimentConfig, start: GroupTuple):
    walk_rng = np.random.default_rng(derive_seed(config.seed, config.kind + ":walk", 0))
    walk = random_walk(walk_rng, config.n, config.walk_length)
    states = [start]
    for m in walk:
        states.append(apply_move(m, states[-1]))
    return walk, states


def _move_constants(moves, n: int) -> dict:
    """The constant L = word_length_bound((m,), n) of each distinct move."""
    return {m: word_length_bound((m,), n) for m in dict.fromkeys(moves)}


def _orbit_row(config: ExperimentConfig, i: int, move, L: int,
               t_after: GroupTuple, before: dict, after: dict) -> dict:
    row = {
        "index": i,
        "move": str(move),
        "L": L,
        "digest": tuple_digest(t_after),
        "gap_proxy_before": before["gap_proxy"],
        **after,
    }
    row["stability_ok"] = bool(
        after["gap_proxy"]
        >= before["gap_proxy"] / (config.n * L ** 2) - _STABILITY_SLACK
    )
    if config.n == 2:
        row["commutator_trace"] = commutator_trace(t_after)
    return row


def _orbit_rows(config: ExperimentConfig, walk, lengths: dict, states: list,
                block: range) -> list[dict]:
    # row i pairs the spectra of states i and i + 1, so adjacent blocks both
    # compute the state they share
    spectra = _block_spectra(states[block.start:block.stop + 1], config)
    return [_orbit_row(config, i, walk[i], lengths[walk[i]], states[i + 1],
                       before, after)
            for i, before, after in zip(block, spectra, spectra[1:])]


def _fiber_rows(config: ExperimentConfig, block: range) -> list[dict]:
    draws = [
        sample_level_set_counted(config.target, config.tol, np.random.default_rng(
            derive_seed(config.seed, config.kind + ":fiber", i)), config.max_tries)
        for i in block
    ]
    spectra = _block_spectra([t for t, _ in draws], config)
    return [{
        "index": i,
        "phase": "fiber",
        "tries": tries,
        "x": trace(t[0]),
        "commutator_trace": commutator_trace(t),
        "digest": tuple_digest(t),
        **spectral,
    } for i, (t, tries), spectral in zip(block, draws, spectra)]


def _fiber_walk_rows(config: ExperimentConfig) -> list[dict]:
    rng = np.random.default_rng(derive_seed(config.seed, config.kind + ":walkstart", 0))
    start, _ = sample_level_set_counted(config.target, config.tol, rng,
                                        config.max_tries)
    _, states = _walk_states(config, start)
    return [{
        "index": config.samples + s,
        "phase": "walk",
        "x": trace(t[0]),
        "commutator_trace": commutator_trace(t),
    } for s, t in enumerate(states[1:])]


def row_count(config: ExperimentConfig) -> int:
    if config.kind == "zero_one_scan":
        return config.samples
    if config.kind == "orbit_invariance":
        return config.walk_length
    if config.kind == "level_set_walk":
        return config.samples + config.walk_length
    return config.cutoff_J


# ---------------------------------------------------------------------------
# Summaries (pure functions of config + rows, recomputable bit-exactly)


def _gap_quantiles(rows, config):
    """Median gap proxy at every prefix cutoff J' <= cutoff_J."""
    if not rows:
        return []
    arr = np.array([r["per_level"] for r in rows])
    prefix = np.maximum.accumulate(arr, axis=1)
    return [float(v) for v in np.median(2.0 * config.n - prefix, axis=0)]


def recompute_summary(config: ExperimentConfig, rows: list) -> dict:
    """The summary statistic block, rebuilt from rows alone."""
    # "errors" is 0: no row carries an error (a numerical failure stops the
    # run instead); the key stays in every summary to keep the record layout
    if config.kind == "zero_one_scan":
        pgaps = [r["pgap"] for r in rows]
        gaps = [r["gap_proxy"] for r in rows]
        return {
            "samples": len(rows),
            "errors": 0,
            "pgap_fraction": (sum(pgaps) / len(pgaps)) if pgaps else None,
            "gap_proxy_median": float(np.median(gaps)) if gaps else None,
            "gap_proxy_min": min(gaps) if gaps else None,
            "gap_proxy_max": max(gaps) if gaps else None,
            "gap_proxy_median_by_cutoff": _gap_quantiles(rows, config),
            "note": "finite-cutoff evidence only; not a verdict on the "
                    "measure-one alternative",
        }
    if config.kind == "orbit_invariance":
        checks = [r["stability_ok"] for r in rows]
        out = {
            "steps": len(rows),
            "errors": 0,
            "stability_pass_rate": (sum(checks) / len(checks)) if checks else None,
            "pgap_fraction": (
                sum(r["pgap"] for r in rows) / len(rows) if rows else None
            ),
            "final_gap_proxy": rows[-1]["gap_proxy"] if rows else None,
        }
        if config.n == 2:
            gs = [r["commutator_trace"] for r in rows if "commutator_trace" in r]
            out["max_g_drift"] = (max(gs) - min(gs)) if gs else None
        return out
    if config.kind == "level_set_walk":
        fiber = [r for r in rows if r.get("phase") == "fiber"]
        walk = [r for r in rows if r.get("phase") == "walk"]
        tries = sum(r["tries"] for r in fiber)
        walk_gs = [r["commutator_trace"] for r in walk]
        fiber_gs = [r["commutator_trace"] for r in fiber]
        out = {
            "fiber_samples": len(fiber),
            "walk_steps": len(walk),
            "errors": 0,
            "acceptance_rate": (len(fiber) / tries) if tries else None,
            "pgap_zero_fraction": (
                sum(1 for r in fiber if r["pgap"] == 0) / len(fiber) if fiber else None
            ),
            "max_g_drift_walk": (max(walk_gs) - min(walk_gs)) if walk_gs else None,
            "max_fiber_dev": (
                max(abs(g - config.target) for g in fiber_gs) if fiber_gs else None
            ),
        }
        if fiber and walk:
            ks = stats.ks_2samp(
                np.array([r["x"] for r in walk]), np.array([r["x"] for r in fiber])
            )
            out["ks_x_walk_vs_fiber"] = float(ks.statistic)
        else:
            out["ks_x_walk_vs_fiber"] = None
        return out
    # lps_benchmark
    max_overall = max((r["lambda_max"] for r in rows), default=None)
    max_even = max((r["lambda_max"] for r in rows if r["k"] % 2 == 0), default=None)
    return {
        "levels": len(rows),
        "errors": 0,
        "max_even": max_even,
        "max_overall": max_overall,
        "margin": (LPS_EDGE - max_overall) if max_overall is not None else None,
    }


# ---------------------------------------------------------------------------
# The driver


def _ordered_map(fn, start: int, stop: int, threads: int):
    """The items of ``fn(block)`` for consecutive blocks of _BLOCK indices
    from start to stop, in index order; with threads > 1 the blocks run on a
    pool that keeps at most 2 * threads of them in flight."""
    blocks = (range(i, min(i + _BLOCK, stop)) for i in range(start, stop, _BLOCK))
    if threads == 1:
        for block in blocks:
            yield from fn(block)
        return
    with ThreadPoolExecutor(max_workers=threads) as ex:
        pending: deque = deque()
        for block in blocks:
            if len(pending) == 2 * threads:
                yield from pending.popleft().result()
            pending.append(ex.submit(fn, block))
        while pending:
            yield from pending.popleft().result()


def _compute_rows(config: ExperimentConfig, start: int, threads: int):
    """Yield rows with index >= start, in index order."""
    total = row_count(config)
    if config.kind == "zero_one_scan":
        yield from _ordered_map(lambda b: _scan_rows(config, b), start, total,
                                threads)
    elif config.kind == "lps_benchmark":
        preset = lps_preset()
        yield from _ordered_map(
            lambda b: [{"index": i, "k": i + 1,
                        "lambda_max": level_gap_bounds(preset, i + 1).lambda_max}
                       for i in b], start, total, threads)
    elif config.kind == "orbit_invariance":
        walk, states = _walk_states(config, haar_tuple(np.random.default_rng(
            derive_seed(config.seed, config.kind + ":start", 0)), config.n))
        lengths = _move_constants(walk, config.n)
        yield from _ordered_map(
            lambda b: _orbit_rows(config, walk, lengths, states, b), start,
            total, threads)
    else:  # level_set_walk
        yield from _ordered_map(lambda b: _fiber_rows(config, b), start,
                                config.samples, threads)
        yield from _fiber_walk_rows(config)[max(0, start - config.samples):]


def _parse_record(path: Path):
    """Read a record file as (config, rows, summary line, end).

    ``end`` is the byte length of the complete lines: a torn last line, as a
    kill mid-write leaves it, lies past it and is not parsed.  The config is
    None when not even the config line is complete, and the summary line is
    None until a run has finished.  Rows must run 0, 1, 2, ... with no gap.
    """
    data = path.read_bytes()
    end = data.rfind(b"\n") + 1
    lines = []
    for n, line in enumerate(data[:end].decode().splitlines(), start=1):
        try:
            lines.append(json.loads(line))
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: line {n} is not JSON: {e.msg} "
                             f"(column {e.colno})") from None
    if not lines:
        return None, [], None, 0
    config, rows = lines[0], lines[1:]
    final = rows.pop() if rows and "summary" in rows[-1] else None
    for i, r in enumerate(rows):
        if "summary" in r:
            raise ValueError(f"{path} has a summary line before its end, "
                             f"at row {i}")
        if r.get("index") != i:
            raise ValueError(f"{path} has a gap at row {i}")
    return config, rows, final, end


def run_experiment(config: ExperimentConfig, out_dir=None, threads: int = 1,
                   resume: bool = False) -> RunRecord:
    """Execute an experiment, optionally persisting and resuming.

    With ``out_dir`` every row is written and flushed as it is computed, so
    a run killed part way leaves a partial record: the config line, its
    first rows, and at most one torn line.  ``resume=True`` cuts the torn
    line and continues from the first missing row.  Rows depend only on
    (config, index), so resumed and uninterrupted runs agree row for row,
    and any ``threads`` count (>= 1) produces identical records.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    path = None
    handle = None
    rows: list = []
    if out_dir is not None:
        path = Path(out_dir) / record_filename(config)
        file_config = None
        if resume and path.exists():
            file_config, rows, final, end = _parse_record(path)
        if file_config is None:
            handle = open(path, "w")
            handle.write(json_line(config.to_dict()) + "\n")
            handle.flush()
        else:
            if file_config != json.loads(json_line(config.to_dict())):
                raise ValueError(f"config in {path} does not match the requested run")
            if final is not None:
                raise ValueError(f"{path} already holds a completed run")
            os.truncate(path, end)
            handle = open(path, "a")
    elif resume:
        raise ValueError("resume requires out_dir")

    try:
        for row in _compute_rows(config, len(rows), threads):
            rows.append(row)
            if handle is not None:
                handle.write(json_line(row) + "\n")
                handle.flush()
        summary = recompute_summary(config, rows)
        if handle is not None:
            handle.write(json_line({"summary": summary,
                                    "version": ARTIFACT_VERSION}) + "\n")
    finally:
        if handle is not None:
            handle.close()
    return RunRecord(
        config=config,
        rows=rows,
        summary=summary,
        version=ARTIFACT_VERSION,
        path=str(path) if path is not None else None,
    )


def load_record(path) -> RunRecord:
    """Parse a record file back into a RunRecord; never writes to it.

    A killed run's record loads with its complete rows and ``summary=None``.
    """
    config, rows, final, _ = _parse_record(Path(path))
    if config is None:
        raise ValueError(f"{path} has no complete config line")
    final = final or {"summary": None, "version": None}
    return RunRecord(
        config=ExperimentConfig(**config),
        rows=rows,
        summary=final["summary"],
        version=final["version"],
        path=str(path),
    )
