import hashlib
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from gaplab import cli, irreps, lab
from gaplab.irreps import MAX_LEVEL
from gaplab.group import GroupTuple, haar_sample, identity, tuple_digest
from gaplab.group import conjugate_tuple, haar_tuple
from gaplab.nielsen import move_alphabet, word_length_bound
from gaplab.lab import (
    ExperimentConfig,
    config_hash,
    derive_seed,
    json_line,
    load_record,
    lps_preset,
    record_filename,
    recompute_summary,
    row_count,
    run_experiment,
)


def scan_config(**kw):
    base = dict(kind="zero_one_scan", n=2, seed=7, cutoff_J=6, samples=10)
    base.update(kw)
    return ExperimentConfig(**base)


LEVEL_SET = dict(kind="level_set_walk", n=2, seed=21, cutoff_J=3, samples=4,
                 walk_length=5, target=0.0, tol=0.05, threshold=0.1)

# fiber rows over two blocks
FIBER_TWO_BLOCKS = ExperimentConfig(kind="level_set_walk", n=2, seed=1,
                                    cutoff_J=6, samples=lab._BLOCK + 6,
                                    walk_length=20, target=0.0, tol=0.05)

RESUMABLE = {
    "zero_one_scan": scan_config(samples=8),
    "orbit_invariance": ExperimentConfig(kind="orbit_invariance", n=3, seed=2,
                                         cutoff_J=4, walk_length=8),
    "level_set_walk": ExperimentConfig(**LEVEL_SET),
    "level_set_walk_two_blocks": FIBER_TWO_BLOCKS,
    "lps_benchmark": ExperimentConfig(kind="lps_benchmark", n=3, seed=0,
                                      cutoff_J=8),
}


def cut_record(path, rows: int) -> bytes:
    """The bytes of the complete record at ``path`` up to its first ``rows``
    rows: what a kill between two rows leaves."""
    return b"".join(Path(path).read_bytes().splitlines(keepends=True)[:1 + rows])


# ---------------------------------------------------------------------------
# config and serialization plumbing


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(kind="nope", n=2, seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(kind="zero_one_scan", n=2, seed=-1, samples=5)
    with pytest.raises(ValueError):
        ExperimentConfig(kind="zero_one_scan", n=2, seed=0, samples=0)
    with pytest.raises(ValueError):
        ExperimentConfig(kind="level_set_walk", n=3, seed=0, samples=5,
                         walk_length=5)
    with pytest.raises(ValueError):
        ExperimentConfig(kind="lps_benchmark", n=2, seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(kind="orbit_invariance", n=2, seed=0, walk_length=5,
                         threshold=0.0)
    for cutoff in (0, MAX_LEVEL + 1):
        with pytest.raises(ValueError, match="cutoff_J"):
            scan_config(cutoff_J=cutoff)
    for field, value in [("threshold", math.nan), ("threshold", math.inf),
                         ("tol", math.inf), ("tol", math.nan),
                         ("target", math.nan), ("target", -math.inf)]:
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ExperimentConfig(**{**LEVEL_SET, field: value})


def test_json_line_float_format_round_trips():
    vals = [1.0, 1 / 3, 2.0 * math.sqrt(5.0), 1e-17, -0.0, 4.0]
    line = json_line({"v": vals})
    parsed = json.loads(line)["v"]
    assert [float(p) for p in parsed] == vals
    assert "0.33333333333333331" in line


def test_json_line_rejects_non_finite():
    with pytest.raises(ValueError):
        json_line({"v": float("inf")})


def test_json_line_types():
    cases = [
        (True, "true"), (False, "false"), (None, "null"), (3, "3"),
        ('a"b', '"a\\"b"'), (np.float64(0.1), "0.10000000000000001"),
        (np.int64(-7), "-7"),
        ((1.5, [2.0, (None, {"k": (True, np.float64(-0.0))})]),
         '[1.5,[2,[null,{"k":[true,-0]}]]]'),
        ({"a": {"b": [1, 2.5, ()]}, 3: "x", "": {}},
         '{"a":{"b":[1,2.5,[]]},"3":"x","":{}}'),
    ]
    for v, text in cases:
        assert json_line(v) == text
    for cfg in RESUMABLE.values():
        rec = run_experiment(cfg)
        for obj in [cfg.to_dict(), rec.summary, *rec.rows]:
            assert json.loads(json_line(obj)) == json.loads(json.dumps(obj))
    # keys are quoted as str(key), never as a memoized equal key
    assert json_line({1: 0}) == '{"1":0}'
    assert json_line({True: 0}) == '{"True":0}'
    for bad in ({"v": [np.float64("inf")]}, [math.nan], (1.0, -math.inf)):
        with pytest.raises(lab.NonFiniteError):
            json_line(bad)
    with pytest.raises(TypeError):
        json_line({"v": {1, 2}})


def test_quoted_keys_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(lab, "_QUOTED", {})
    json_line({f"key{i}": i for i in range(2 * lab._QUOTED_MAX)})
    assert len(lab._QUOTED) <= lab._QUOTED_MAX


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_move_constants_are_the_word_length_bounds(n):
    moves = move_alphabet(n)
    assert lab._move_constants(moves, n) == {
        m: word_length_bound((m,), n) for m in moves}


def test_orbit_bounds_each_distinct_move_once(monkeypatch):
    calls = []

    def counted(s, n):
        calls.append(s)
        return word_length_bound(s, n)

    monkeypatch.setattr(lab, "word_length_bound", counted)
    cfg = ExperimentConfig(kind="orbit_invariance", n=3, seed=2, cutoff_J=2,
                           walk_length=300)
    run_experiment(cfg, threads=2)
    assert len(calls) == len(set(calls)) <= len(move_alphabet(3))


def test_config_hash_stability():
    c1, c2 = scan_config(), scan_config()
    assert config_hash(c1) == config_hash(c2)
    assert config_hash(scan_config(seed=8)) != config_hash(c1)
    assert record_filename(c1) == f"zero_one_scan-7-{config_hash(c1)[:8]}.jsonl"


def test_derive_seed_spreads():
    seeds = {derive_seed(7, "zero_one_scan", i) for i in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(7, "a", 0) != derive_seed(7, "b", 0)
    assert derive_seed(7, "a", 0) == derive_seed(7, "a", 0)


def test_lps_preset_coordinates():
    t = lps_preset()
    s = 1.0 / math.sqrt(5.0)
    for g, axis in zip(t, ("x", "y", "z")):
        assert abs(g.w - s) < 1e-15
        assert abs(getattr(g, axis) - 2.0 * s) < 1e-15


# ---------------------------------------------------------------------------
# determinism, threading, persistence, resumability


def test_scan_rows_and_determinism(tmp_path):
    cfg = scan_config()
    rec1 = run_experiment(cfg, out_dir=tmp_path)
    rec2 = run_experiment(cfg, out_dir=None)
    assert len(rec1.rows) == cfg.samples
    assert rec1.rows == rec2.rows
    assert rec1.summary == rec2.summary


def _rows_at_1_2_and_8_threads(cfg):
    rows1 = run_experiment(cfg, threads=1).rows
    assert [r["index"] for r in rows1] == list(range(row_count(cfg)))
    for threads in (2, 8):
        assert run_experiment(cfg, threads=threads).rows == rows1
    return rows1


def test_thread_count_does_not_change_rows():
    # five blocks and a part: more than a two-thread pool keeps in flight
    _rows_at_1_2_and_8_threads(scan_config(samples=5 * lab._BLOCK + 3))


def test_orbit_rows_across_blocks_and_threads():
    cfg = ExperimentConfig(kind="orbit_invariance", n=2, seed=4, cutoff_J=2,
                           walk_length=5 * lab._BLOCK + 3)
    rows = _rows_at_1_2_and_8_threads(cfg)
    # consecutive rows share a state, also across block boundaries
    for prev, row in zip(rows, rows[1:]):
        assert row["gap_proxy_before"] == prev["gap_proxy"]


def test_fiber_rows_across_blocks_and_threads():
    _rows_at_1_2_and_8_threads(FIBER_TWO_BLOCKS)


def test_record_file_layout(tmp_path):
    cfg = scan_config(samples=4)
    rec = run_experiment(cfg, out_dir=tmp_path)
    lines = (tmp_path / record_filename(cfg)).read_text().splitlines()
    assert len(lines) == 1 + 4 + 1
    assert json.loads(lines[0]) == json.loads(json_line(cfg.to_dict()))
    final = json.loads(lines[-1])
    assert set(final) == {"summary", "version"}
    loaded = load_record(rec.path)
    assert loaded.rows == rec.rows
    assert loaded.summary == rec.summary


def test_summary_recomputable_from_rows():
    cfg = scan_config(samples=6)
    rec = run_experiment(cfg)
    assert recompute_summary(cfg, rec.rows) == rec.summary


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("kind", sorted(RESUMABLE))
def test_resume_matches_uninterrupted(tmp_path, kind, threads):
    cfg = RESUMABLE[kind]
    full_dir = tmp_path / "full"
    part_dir = tmp_path / "part"
    full_dir.mkdir()
    part_dir.mkdir()
    full = run_experiment(cfg, out_dir=full_dir)
    # the cut falls inside the second block when there is one
    stop = lab._BLOCK + 3 if row_count(cfg) > lab._BLOCK + 3 else 3
    (part_dir / record_filename(cfg)).write_bytes(cut_record(full.path, stop))
    resumed = run_experiment(cfg, out_dir=part_dir, threads=threads,
                             resume=True)
    assert resumed.rows == full.rows
    assert resumed.summary == full.summary
    assert (full_dir / record_filename(cfg)).read_bytes() == (
        part_dir / record_filename(cfg)).read_bytes()


def test_cold_level_cache_shared_by_the_pool(tmp_path, capsys):
    # every run starts with an empty per-level cache, so the blocks on the
    # pool fill the same level at once; a short switch interval makes them
    # interleave
    samples = 2 * lab._BLOCK + 2
    cfg = ExperimentConfig(kind="zero_one_scan", n=2, seed=11, cutoff_J=40,
                           samples=samples)
    argv = ["scan", "--n", "2", "--cutoff", "40", "--samples", str(samples),
            "--seed", "11"]

    def scan(out_dir, threads, *extra):
        irreps._rotation_basis.cache_clear()
        assert cli.main(argv + ["--out-dir", str(out_dir), "--threads",
                                threads, *extra]) == 0
        return (capsys.readouterr().out,
                (out_dir / record_filename(cfg)).read_bytes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = {}
        for threads in ("1", "2", "4"):
            (tmp_path / threads).mkdir()
            runs[threads] = scan(tmp_path / threads, threads)
        part_dir = tmp_path / "resumed"
        part_dir.mkdir()
        (part_dir / record_filename(cfg)).write_bytes(
            cut_record(tmp_path / "1" / record_filename(cfg), 2))
        resumed = scan(part_dir, "2", "--resume")
    finally:
        sys.setswitchinterval(interval)
    assert runs["2"] == runs["1"] and runs["4"] == runs["1"]
    assert resumed == runs["1"]


# sha256 of the whole record file (numpy 2.4, OpenBLAS 0.3.31, x86-64); the
# float digits depend on the C library's atan2 and on LAPACK.  The rank-3
# records are as the commit before stacked sweeps wrote them; the pair
# records (scan and fiber) as the pair blocks write them, whose floats differ
# from the complex operator's by at most 6e-15 here
GOLDEN = [
    (ExperimentConfig(kind="zero_one_scan", n=2, seed=1, cutoff_J=12, samples=3),
     "68323ddcfd6878ddc0524a96298e2c8111d8c3064cfe0036b3ebbddcfad923c8"),
    (ExperimentConfig(kind="orbit_invariance", n=3, seed=1, cutoff_J=6,
                      walk_length=20),
     "f8c927076914233e8ed8f99e007f2579bbf95d0c2e17c62cf2441badc81bbea4"),
    # two blocks of fiber rows, and 70 lps levels as one row per call wrote
    # them
    (FIBER_TWO_BLOCKS,
     "5c18ce0d440cc2fde8aedc0ae6cfcf7d8dcffd3c326b6f407fe5b286ed14bdc3"),
    (ExperimentConfig(kind="lps_benchmark", n=3, seed=0, cutoff_J=70),
     "36c7450fd7c864e811d655093f2543426b9c4aeccc390630ee6d9d0ca3247b3a"),
]


@pytest.mark.parametrize("cfg, digest", GOLDEN, ids=[c.kind for c, _ in GOLDEN])
def test_record_bytes_match_the_per_tuple_construction(tmp_path, cfg, digest):
    data = Path(run_experiment(cfg, out_dir=tmp_path).path).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_resume_after_a_cut_at_every_byte(tmp_path):
    # a kill can leave the record cut at any byte, the summary line included
    cfg = scan_config(samples=3, cutoff_J=2)
    full = run_experiment(cfg, out_dir=tmp_path)
    data = Path(full.path).read_bytes()
    for cut in range(len(data)):
        Path(full.path).write_bytes(data[:cut])
        resumed = run_experiment(cfg, out_dir=tmp_path, resume=True)
        assert resumed.rows == full.rows and resumed.summary == full.summary
        assert Path(full.path).read_bytes() == data, cut


@pytest.mark.parametrize("threads", [1, 2])
def test_solver_failure_exits_3_and_leaves_a_resumable_record(
        tmp_path, monkeypatch, threads):
    # the failing row lies in the second block, so the first block's rows,
    # and only they, reach the record
    samples = lab._BLOCK + 6
    cfg = scan_config(samples=samples)
    full = run_experiment(cfg)
    argv = ["scan", "--n", "2", "--cutoff", "6", "--samples", str(samples),
            "--seed", "7", "--threads", str(threads), "--out-dir", str(tmp_path)]
    real = lab.lambda1_estimates
    failing = full.rows[lab._BLOCK + 1]["digest"]

    def fail_on_one_row(tuples, cutoff_J):
        if any(tuple_digest(t) == failing for t in tuples):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(tuples, cutoff_J)

    monkeypatch.setattr(lab, "lambda1_estimates", fail_on_one_row)
    assert cli.main(argv) == 3
    lines = (tmp_path / record_filename(cfg)).read_text().splitlines()
    assert [json.loads(line) for line in lines[1:]] == full.rows[:lab._BLOCK]
    monkeypatch.setattr(lab, "lambda1_estimates", real)
    assert cli.main(argv + ["--resume"]) == 0
    assert load_record(tmp_path / record_filename(cfg)).rows == full.rows


def test_lps_failure_costs_only_its_block(tmp_path, monkeypatch):
    cfg = ExperimentConfig(kind="lps_benchmark", n=3, seed=0,
                           cutoff_J=lab._BLOCK + 6)
    full = run_experiment(cfg)
    real = lab.level_gap_bounds

    def fail_on_one_level(t, level):
        if level == lab._BLOCK + 2:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(t, level)

    monkeypatch.setattr(lab, "level_gap_bounds", fail_on_one_level)
    with pytest.raises(np.linalg.LinAlgError):
        run_experiment(cfg, out_dir=tmp_path, threads=2)
    path = tmp_path / record_filename(cfg)
    assert load_record(path).rows == full.rows[:lab._BLOCK]
    monkeypatch.setattr(lab, "level_gap_bounds", real)
    assert run_experiment(cfg, out_dir=tmp_path, resume=True).rows == full.rows


def test_resume_rejects_mismatched_config(tmp_path):
    rec = run_experiment(scan_config(samples=5), out_dir=tmp_path)
    other = scan_config(samples=5, cutoff_J=7)
    path = tmp_path / record_filename(other)
    path.write_bytes(cut_record(rec.path, 2))
    with pytest.raises(ValueError):
        run_experiment(other, out_dir=tmp_path, resume=True)


def test_resume_of_a_completed_record_is_refused(tmp_path):
    cfg = scan_config(samples=2)
    rec = run_experiment(cfg, out_dir=tmp_path)
    data = Path(rec.path).read_bytes()
    with pytest.raises(ValueError, match="already holds a completed run"):
        run_experiment(cfg, out_dir=tmp_path, resume=True)
    assert Path(rec.path).read_bytes() == data


def test_resume_without_out_dir_is_refused():
    with pytest.raises(ValueError, match="resume requires out_dir"):
        run_experiment(scan_config(samples=2), resume=True)


@pytest.mark.parametrize("data", [b"", b'{"kind": "zero_one_scan"'],
                         ids=["empty", "torn_config_line"])
def test_load_record_without_a_complete_config_line_is_refused(tmp_path,
                                                               data):
    path = tmp_path / "record.jsonl"
    path.write_bytes(data)
    with pytest.raises(ValueError, match="no complete config line"):
        load_record(path)


def test_load_record_reads_a_record_cut_mid_row(tmp_path):
    rec = run_experiment(scan_config(samples=5), out_dir=tmp_path)
    torn_row = Path(rec.path).read_bytes().splitlines(keepends=True)[4]
    data = cut_record(rec.path, 3) + torn_row[:len(torn_row) // 2]
    Path(rec.path).write_bytes(data)
    loaded = load_record(rec.path)
    assert loaded.rows == rec.rows[:3] and loaded.summary is None
    assert loaded.config == rec.config
    assert Path(rec.path).read_bytes() == data  # loading never writes


def test_index_gap_is_refused_by_load_and_resume(tmp_path, capsys):
    cfg = scan_config(samples=5)
    rec = run_experiment(cfg, out_dir=tmp_path)
    lines = Path(rec.path).read_bytes().splitlines(keepends=True)
    data = b"".join(lines[:2] + lines[3:4])  # config, rows 0 and 2
    Path(rec.path).write_bytes(data)
    with pytest.raises(ValueError, match="gap at row 1"):
        load_record(rec.path)
    argv = ["scan", "--n", "2", "--cutoff", "6", "--samples", "5", "--seed",
            "7", "--out-dir", str(tmp_path), "--resume"]
    assert cli.main(argv) == 2
    assert "gap at row 1" in capsys.readouterr().err
    assert Path(rec.path).read_bytes() == data


def test_corrupt_line_is_named_by_load_and_resume(tmp_path, capsys):
    cfg = scan_config(samples=5)
    rec = run_experiment(cfg, out_dir=tmp_path)
    lines = cut_record(rec.path, 3).splitlines(keepends=True)
    data = b"".join(lines[:2] + [b'{"index": 1, garbage\n'] + lines[3:])
    Path(rec.path).write_bytes(data)
    message = f"{rec.path}: line 3 is not JSON"  # row 1 follows the config
    with pytest.raises(ValueError, match=re.escape(message)):
        load_record(rec.path)
    argv = ["scan", "--n", "2", "--cutoff", "6", "--samples", "5", "--seed",
            "7", "--out-dir", str(tmp_path), "--resume"]
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err
    assert Path(rec.path).read_bytes() == data


def test_summary_before_the_end_is_refused_by_load_and_resume(tmp_path):
    cfg = scan_config(samples=2)
    rec = run_experiment(cfg, out_dir=tmp_path)
    lines = Path(rec.path).read_bytes().splitlines(keepends=True)
    data = b"".join(lines + lines[1:2])  # row 0 again after the summary
    Path(rec.path).write_bytes(data)
    with pytest.raises(ValueError, match="summary line before its end"):
        load_record(rec.path)
    with pytest.raises(ValueError, match="summary line before its end"):
        run_experiment(cfg, out_dir=tmp_path, resume=True)
    assert Path(rec.path).read_bytes() == data


def test_row_digests_collide_for_conjugate_tuples():
    rng = np.random.default_rng(0)
    t = haar_tuple(rng, 2)
    assert tuple_digest(t) == tuple_digest(conjugate_tuple(haar_sample(rng), t))


# ---------------------------------------------------------------------------
# zero_one_scan content


def test_scan_gap_proxy_monotone_in_cutoff():
    cfg = scan_config(samples=10, cutoff_J=10)
    rec = run_experiment(cfg)
    n = cfg.n
    for row in rec.rows:
        prefix = np.maximum.accumulate(row["per_level"])
        gaps = 2.0 * n - prefix
        assert np.all(np.diff(gaps) <= 1e-15)
    med = rec.summary["gap_proxy_median_by_cutoff"]
    assert np.all(np.diff(med) <= 1e-15)


def test_scan_median_gap_in_free_group_band():
    # population median sits near 0.37; the band tops out at 4 - 2 sqrt(3)
    # + 0.3 (pre-frozen from an independent 200-sample run)
    cfg = scan_config(samples=60, cutoff_J=40, seed=20260809)
    rec = run_experiment(cfg, threads=2)
    upper = 4.0 - 2.0 * math.sqrt(3.0) + 0.3
    assert 0.0 <= rec.summary["gap_proxy_median"] <= upper


def test_scan_commutator_trace_present_for_pairs():
    rec = run_experiment(scan_config(samples=3))
    assert all("commutator_trace" in r for r in rec.rows)
    rec3 = run_experiment(ExperimentConfig(
        kind="zero_one_scan", n=3, seed=1, cutoff_J=3, samples=2))
    assert all("commutator_trace" not in r for r in rec3.rows)


# ---------------------------------------------------------------------------
# orbit_invariance


def test_orbit_identity_start_is_fixed():
    cfg = ExperimentConfig(kind="orbit_invariance", n=2, seed=5, cutoff_J=4,
                           walk_length=20)
    walk, states = lab._walk_states(cfg, GroupTuple([identity(), identity()]))
    lengths = lab._move_constants(walk, cfg.n)
    rows = lab._orbit_rows(cfg, walk, lengths, states, range(cfg.walk_length))
    assert len(rows) == cfg.walk_length
    for row in rows:
        assert row["gap_proxy"] == 0.0
        assert row["pgap"] == 0
        assert row["commutator_trace"] == 2.0


def test_orbit_commutator_trace_drift_is_roundoff():
    cfg = ExperimentConfig(kind="orbit_invariance", n=2, seed=11, cutoff_J=1,
                           walk_length=10 ** 4)
    rec = run_experiment(cfg)
    assert rec.summary["max_g_drift"] < 1e-7
    assert rec.summary["stability_pass_rate"] == 1.0


def test_orbit_stability_check_and_determinism():
    cfg = ExperimentConfig(kind="orbit_invariance", n=3, seed=2, cutoff_J=5,
                           walk_length=15)
    rec1 = run_experiment(cfg, threads=1)
    rec2 = run_experiment(cfg, threads=4)
    assert rec1.rows == rec2.rows
    assert rec1.summary["stability_pass_rate"] == 1.0
    for row in rec1.rows:
        assert row["L"] in (1, 2)
        assert row["gap_proxy"] >= row["gap_proxy_before"] / (3 * row["L"] ** 2) - 1e-6


def test_orbit_pgap_constant_when_gap_dominates():
    # gap_proxy >> threshold * n * L^2 keeps the indicator constant along
    # short walks
    cfg = ExperimentConfig(kind="orbit_invariance", n=2, seed=13, cutoff_J=8,
                           walk_length=10, threshold=1e-4)
    rec = run_experiment(cfg)
    gaps = [r["gap_proxy"] for r in rec.rows]
    assert min(gaps) > 1e-4 * 2 * 4  # dominance, with L <= 2
    assert {r["pgap"] for r in rec.rows} == {1}


# ---------------------------------------------------------------------------
# level_set_walk


def test_level_set_walk_rows_and_fiber_constancy():
    cfg = ExperimentConfig(kind="level_set_walk", n=2, seed=21, cutoff_J=4,
                           samples=6, walk_length=50, target=0.0, tol=0.05,
                           threshold=0.1)
    rec = run_experiment(cfg)
    assert len(rec.rows) == cfg.samples + cfg.walk_length
    fiber = [r for r in rec.rows if r["phase"] == "fiber"]
    assert len(fiber) == cfg.samples
    assert rec.summary["max_fiber_dev"] <= cfg.tol
    assert rec.summary["max_g_drift_walk"] < 1e-7
    assert rec.summary["acceptance_rate"] > 0.0
    rec2 = run_experiment(cfg)
    assert rec.rows == rec2.rows


def test_level_set_walk_near_commuting_fiber_has_no_gap():
    cfg = ExperimentConfig(kind="level_set_walk", n=2, seed=23, cutoff_J=6,
                           samples=12, walk_length=10, target=2.0 - 1e-6,
                           tol=1e-3, threshold=0.1, max_tries=2 * 10 ** 6)
    rec = run_experiment(cfg, threads=4)
    assert rec.summary["pgap_zero_fraction"] >= 0.99
    fiber = [r for r in rec.rows if r["phase"] == "fiber"]
    assert all(r["gap_proxy"] < 0.1 for r in fiber)


# ---------------------------------------------------------------------------
# lps_benchmark


def test_lps_benchmark_bounds_and_margin():
    cfg = ExperimentConfig(kind="lps_benchmark", n=3, seed=0, cutoff_J=24)
    rec = run_experiment(cfg, threads=2)
    edge = 2.0 * math.sqrt(5.0)
    assert len(rec.rows) == 24
    for row in rec.rows:
        assert row["lambda_max"] <= edge + 1e-8
    assert rec.summary["max_overall"] == max(r["lambda_max"] for r in rec.rows)
    assert abs(rec.summary["margin"] - (edge - rec.summary["max_overall"])) < 1e-15
    # pre-computed location of the k <= 24 maximum
    assert abs(rec.summary["max_overall"] - 4.375852656742818) < 1e-9
    assert rec.summary["max_even"] <= rec.summary["max_overall"]
