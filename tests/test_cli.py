import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gaplab.cli as cli
from gaplab import lab
from gaplab.group import tuple_digest
from gaplab.irreps import MAX_LEVEL
from gaplab.lab import record_filename, run_experiment, ExperimentConfig

DATA = Path(__file__).parent / "data"


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env["COLUMNS"] = "80"
    env.pop("GAPLAB_THREADS", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "gaplab", *args],
        capture_output=True, text=True, env=env,
    )


def write_identity_pair(path):
    path.write_text("1 0 0 0\n1 0 0 0\n")
    return str(path)


# ---------------------------------------------------------------------------
# sample


def test_sample_deterministic_and_sized():
    a = run_cli("sample", "--n", "3", "--count", "3", "--seed", "1")
    b = run_cli("sample", "--n", "3", "--count", "3", "--seed", "1")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    blocks = a.stdout.strip().split("\n\n")
    assert len(blocks) == 3
    for block in blocks:
        rows = block.splitlines()
        assert len(rows) == 3
        for row in rows:
            q = [float(v) for v in row.split()]
            assert len(q) == 4
            assert abs(sum(c * c for c in q) - 1.0) < 1e-12


def test_sample_output_is_a_valid_tuple_file(tmp_path):
    out = run_cli("sample", "--n", "2", "--count", "1", "--seed", "4")
    tf = tmp_path / "t.tuple"
    tf.write_text(out.stdout)
    result = run_cli("spectrum", "--cutoff", "2", "--tuple-file", str(tf))
    assert result.returncode == 0


@pytest.mark.parametrize("n, count, message", [
    ("1", "1", "--n must be >= 2"), ("2", "0", "--count must be >= 1"),
], ids=["n_1", "count_0"])
def test_sample_rejects_a_rank_below_2_or_no_tuples(capsys, n, count, message):
    assert cli.main(["sample", "--n", n, "--count", count, "--seed", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_identity_pair(tmp_path):
    tf = write_identity_pair(tmp_path / "id.tuple")
    r = run_cli("spectrum", "--cutoff", "1", "--tuple-file", tf)
    assert r.returncode == 0
    assert r.stdout == "1,4\n"
    summary = json.loads(r.stderr)
    assert summary["gap_proxy"] == 0.0


def test_spectrum_seed_rerun_identical():
    a = run_cli("spectrum", "--n", "2", "--cutoff", "6", "--seed", "9")
    b = run_cli("spectrum", "--n", "2", "--cutoff", "6", "--seed", "9")
    assert a.returncode == 0
    assert a.stdout == b.stdout and a.stderr == b.stderr


def test_spectrum_lps_margin(tmp_path):
    out = tmp_path / "summary.json"
    out.write_text("an earlier summary, replaced whole\n" * 10)
    r = run_cli("spectrum", "--lps", "--cutoff", "24", "--out", str(out))
    assert r.returncode == 0
    assert len(r.stdout.splitlines()) == 24
    summary = json.loads(out.read_text())
    assert summary["margin"] >= -1e-8
    assert abs(summary["margin"] - (2.0 * math.sqrt(5.0) - summary["lambda1_J"])) < 1e-12


def test_spectrum_malformed_tuple_file(tmp_path):
    tf = tmp_path / "bad.tuple"
    tf.write_text("1 0 0\n")
    r = run_cli("spectrum", "--cutoff", "2", "--tuple-file", str(tf))
    assert r.returncode == 2
    tf.write_text("2 0 0 0\n1 0 0 0\n")  # not unit norm
    r = run_cli("spectrum", "--cutoff", "2", "--tuple-file", str(tf))
    assert r.returncode == 2


# (file content or None for a missing file, what stderr must name); the path
# is filled in for {path}
TUPLE_FILE_ERRORS = {
    "unreadable": (None, "cannot read tuple file {path}"),
    "non_numeric": ("1 0 0 0\n1 0 zero 0\n", "{path}:2:"),
    "nan_row": ("1 0 0 0\nnan 0 0 0\n", "{path}:2:"),
    "single_row": ("1 0 0 0\n", "{path}: a tuple file needs at least 2 rows"),
}


@pytest.mark.parametrize("case", sorted(TUPLE_FILE_ERRORS))
def test_tuple_file_errors_exit_2_and_name_the_file(tmp_path, capsys, case):
    content, names = TUPLE_FILE_ERRORS[case]
    tf = tmp_path / "t.tuple"
    if content is not None:
        tf.write_text(content)
    assert cli.main(["spectrum", "--cutoff", "2", "--tuple-file", str(tf)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert names.format(path=tf) in err


def test_tuple_file_comments_and_blank_lines_change_nothing(tmp_path, capsys):
    assert cli.main(["sample", "--n", "3", "--count", "1", "--seed", "6"]) == 0
    rows = capsys.readouterr().out.splitlines()
    clean = tmp_path / "clean.tuple"
    clean.write_text("\n".join(rows) + "\n")
    noisy = tmp_path / "noisy.tuple"
    noisy.write_text(f"# a comment line\n\n{rows[0]}  # trailing comment\n"
                     f"   \n{rows[1]}\n#\n{rows[2]}\n\n")
    outputs = []
    for tf in (clean, noisy):
        assert cli.main(["spectrum", "--cutoff", "3", "--tuple-file",
                         str(tf)]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert len(outputs[0].out.splitlines()) == 3


def test_spectrum_seed_without_n_exits_2(capsys):
    assert cli.main(["spectrum", "--cutoff", "2", "--seed", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--n is required with --seed" in err


def test_spectrum_out_into_a_missing_directory_exits_4(tmp_path, capsys):
    target = tmp_path / "missing" / "summary.json"
    assert cli.main(["spectrum", "--n", "2", "--seed", "1", "--cutoff", "2",
                     "--out", str(target)]) == 4
    out, err = capsys.readouterr()
    assert out == ""  # --out opens before the sweep
    assert str(target) in err
    assert not target.parent.exists()


def test_n_that_conflicts_with_the_tuple_source_exits_2(tmp_path, capsys):
    tf = write_identity_pair(tmp_path / "id.tuple")
    for argv in (["spectrum", "--lps", "--n", "2", "--cutoff", "2"],
                 ["spectrum", "--tuple-file", tf, "--n", "3", "--cutoff", "2"],
                 ["gap", "--tuple-file", tf, "--n", "3", "--level", "1"]):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--n" in err and "conflicts" in err
    # a --n that agrees with the source is accepted
    assert cli.main(["spectrum", "--lps", "--n", "3", "--cutoff", "2"]) == 0
    assert cli.main(["gap", "--tuple-file", tf, "--n", "2", "--level", "1"]) == 0


def test_spectrum_requires_one_source():
    r = run_cli("spectrum", "--cutoff", "2")
    assert r.returncode == 2
    r = run_cli("spectrum", "--cutoff", "2", "--seed", "1", "--lps")
    assert r.returncode == 2


# ---------------------------------------------------------------------------
# gap


def test_gap_identity_pair(tmp_path):
    tf = write_identity_pair(tmp_path / "id.tuple")
    r = run_cli("gap", "--tuple-file", tf, "--level", "3")
    assert r.returncode == 0
    assert r.stdout == "3,4,0,0,\n"


def test_gap_minmax_matches_grid_oracle():
    from gaplab.group import haar_tuple
    from gaplab.irreps import irrep_matrix
    from _oracles import grid_minmax_min, projective_grid

    r = run_cli("gap", "--n", "2", "--seed", "31", "--level", "1", "--minmax")
    assert r.returncode == 0
    fields = r.stdout.strip().split(",")
    est = float(fields[4])
    t = haar_tuple(np.random.default_rng(31), 2)
    mats = [irrep_matrix(1, g).entries for g in t]
    assert abs(est - grid_minmax_min(mats, projective_grid(100, 100))) < 2e-3
    lower, upper = float(fields[2]), float(fields[3])
    assert lower - 1e-6 <= est <= upper + 1e-6


def test_gap_needs_exactly_one_of_level_and_cutoff(tmp_path):
    tf = write_identity_pair(tmp_path / "id.tuple")
    assert run_cli("gap", "--tuple-file", tf).returncode == 2
    assert run_cli("gap", "--tuple-file", tf, "--level", "1",
                   "--cutoff", "2").returncode == 2


@pytest.mark.parametrize("n", [2, 3], ids=["pair", "triple"])
def test_gap_prints_one_lambda_per_level(capsys, n):
    # k, lambda_max, lower and upper do not depend on --minmax, and
    # lambda_max is the value spectrum prints and records carry; --seed of
    # the stream of a scan's row 0 gives them all that row's tuple
    source = ["--n", str(n), "--seed", str(lab.derive_seed(1, "zero_one_scan", 0))]

    def columns(*argv):
        assert cli.main([*argv, *source]) == 0
        return [line.split(",") for line in capsys.readouterr().out.splitlines()]

    plain = columns("gap", "--cutoff", "10")
    assert len(plain) == 10
    minmax = columns("gap", "--cutoff", "10", "--minmax", "--restarts", "2",
                     "--iters", "5")
    assert [row[:4] for row in minmax] == [row[:4] for row in plain]
    lams = [row[1] for row in plain]
    assert [row[1] for row in columns("spectrum", "--cutoff", "10")] == lams
    record = run_experiment(ExperimentConfig(kind="zero_one_scan", n=n, seed=1,
                                             cutoff_J=10, samples=1))
    assert [lab.json_line(lam) for lam in record.rows[0]["per_level"]] == lams


def test_gap_minmax_rejects_bad_optimizer_flags(capsys):
    argv = ["gap", "--n", "2", "--seed", "1", "--cutoff", "3", "--minmax"]
    for flag, bad in (("--iters", "-1"), ("--restarts", "0")):
        assert cli.main(argv + [flag, bad]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert flag[2:] in err
    assert cli.main(argv + ["--iters", "0", "--restarts", "1"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


@pytest.mark.parametrize("level", ["0", str(MAX_LEVEL + 1)])
def test_gap_level_outside_1_to_max_exits_2_before_any_row(capsys, level):
    assert cli.main(["gap", "--n", "2", "--seed", "1", "--level", level]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"--level must lie in [1, {MAX_LEVEL}]" in err


# ---------------------------------------------------------------------------
# experiments


def test_scan_creates_record_with_rows(tmp_path):
    r = run_cli("scan", "--n", "2", "--cutoff", "4", "--samples", "5",
                "--seed", "7", "--out-dir", str(tmp_path))
    assert r.returncode == 0
    cfg = ExperimentConfig(kind="zero_one_scan", n=2, seed=7, cutoff_J=4,
                           samples=5)
    lines = (tmp_path / record_filename(cfg)).read_text().splitlines()
    assert len(lines) == 1 + 5 + 1
    summary = json.loads(r.stdout)["summary"]
    assert summary["samples"] == 5


def test_scan_byte_identical_across_threads(tmp_path):
    out = {}
    for threads in ("1", "8"):
        d = tmp_path / f"t{threads}"
        d.mkdir()
        r = run_cli("scan", "--n", "2", "--cutoff", "5", "--samples", "8",
                    "--seed", "3", "--out-dir", str(d), "--threads", threads)
        assert r.returncode == 0
        out[threads] = (r.stdout, next(d.iterdir()).read_bytes())
    assert out["1"] == out["8"]


def test_scan_resume_matches_uninterrupted(tmp_path):
    full_d = tmp_path / "full"
    part_d = tmp_path / "part"
    full_d.mkdir()
    part_d.mkdir()
    args = ["--n", "2", "--cutoff", "4", "--samples", "6", "--seed", "5"]
    run_cli("scan", *args, "--out-dir", str(full_d))
    cfg = ExperimentConfig(kind="zero_one_scan", n=2, seed=5, cutoff_J=4,
                           samples=6)
    full_lines = (full_d / record_filename(cfg)).read_text().splitlines()
    partial = "\n".join(full_lines[:4]) + "\n"  # config plus three rows
    (part_d / record_filename(cfg)).write_text(partial)
    r = run_cli("scan", *args, "--out-dir", str(part_d), "--resume")
    assert r.returncode == 0
    assert ((part_d / record_filename(cfg)).read_bytes()
            == (full_d / record_filename(cfg)).read_bytes())


def test_orbit_commutator_drift(tmp_path):
    r = run_cli("orbit", "--n", "2", "--walk", "1000", "--cutoff", "1",
                "--seed", "3", "--out-dir", str(tmp_path))
    assert r.returncode == 0
    summary = json.loads(r.stdout)["summary"]
    assert summary["max_g_drift"] < 1e-7
    assert summary["stability_pass_rate"] == 1.0


def test_charvar_acceptance_rate_band(tmp_path):
    r = run_cli("charvar", "--target", "0.0", "--tol", "0.05", "--samples",
                "150", "--walk", "10", "--cutoff", "3", "--seed", "9",
                "--out-dir", str(tmp_path))
    assert r.returncode == 0
    summary = json.loads(r.stdout)["summary"]
    # density of the commutator trace in [-0.05, 0.05]: 0.024916 from a
    # 10^6-sample run (test_charvar recomputes it against the sampler)
    p = 0.024916
    sigma = math.sqrt(p * (1 - p) * (1e-6 + p / 150))
    assert abs(summary["acceptance_rate"] - p) <= 3.0 * sigma
    assert summary["max_g_drift_walk"] < 1e-7


def test_lps_subcommand(tmp_path):
    r = run_cli("lps", "--cutoff", "12", "--seed", "0", "--out-dir",
                str(tmp_path))
    assert r.returncode == 0
    summary = json.loads(r.stdout)["summary"]
    assert summary["margin"] >= -1e-8
    assert summary["levels"] == 12


def test_lps_cutoff_1_has_no_even_level(tmp_path, capsys):
    assert cli.main(["lps", "--cutoff", "1", "--seed", "0", "--out-dir",
                     str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert '"max_even":null' in out
    assert json.loads(out)["summary"]["levels"] == 1


def test_resume_of_a_completed_record_exits_2(tmp_path, capsys):
    argv = ["scan", "--n", "2", "--cutoff", "2", "--samples", "2", "--seed",
            "1", "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    path = next(tmp_path.iterdir())
    data = path.read_bytes()
    assert cli.main(argv + ["--resume"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "already holds a completed run" in err
    assert path.read_bytes() == data


def test_gaplab_threads_env_fallback(tmp_path):
    r = run_cli("scan", "--n", "2", "--cutoff", "3", "--samples", "4",
                "--seed", "2", "--out-dir", str(tmp_path),
                env_extra={"GAPLAB_THREADS": "4"})
    assert r.returncode == 0


# ---------------------------------------------------------------------------
# exit codes


def test_argparse_errors_exit_2():
    r = run_cli("scan", "--n", "2", "--samples", "3")  # missing --seed
    assert r.returncode == 2
    r = run_cli("unknown-command")
    assert r.returncode == 2


@pytest.mark.parametrize("threads", ["0", "-2", "two"])
def test_threads_below_1_exit_2_before_the_record_opens(tmp_path, threads):
    argv = ["scan", "--n", "2", "--cutoff", "2", "--samples", "3", "--seed",
            "1", "--out-dir", str(tmp_path)]
    # the environment fallback is converted and checked like the flag
    for r in (run_cli(*argv, "--threads", threads),
              run_cli(*argv, env_extra={"GAPLAB_THREADS": threads})):
        assert r.returncode == 2 and r.stdout == ""
        assert "threads" in r.stderr
        assert list(tmp_path.iterdir()) == []


def test_unset_or_empty_gaplab_threads_means_one(monkeypatch):
    argv = ["lps", "--seed", "0"]
    monkeypatch.delenv("GAPLAB_THREADS", raising=False)
    assert cli.build_parser().parse_args(argv).threads == 1
    monkeypatch.setenv("GAPLAB_THREADS", "")
    assert cli.build_parser().parse_args(argv).threads == 1


# Every kind-specific flag away from its default, and the config each run
# must record, written out field by field.
EXPERIMENT_FLAGS = {
    "scan": (["--n", "3", "--cutoff", "3", "--samples", "2",
              "--threshold", "0.01"],
             ExperimentConfig(kind="zero_one_scan", n=3, seed=4, cutoff_J=3,
                              samples=2, walk_length=0, threshold=0.01,
                              target=0.0, tol=0.05, max_tries=1_000_000)),
    "orbit": (["--n", "3", "--walk", "5", "--cutoff", "2",
               "--threshold", "0.02"],
              ExperimentConfig(kind="orbit_invariance", n=3, seed=4,
                               cutoff_J=2, samples=0, walk_length=5,
                               threshold=0.02, target=0.0, tol=0.05,
                               max_tries=1_000_000)),
    "charvar": (["--target", "0.5", "--tol", "0.2", "--samples", "2",
                 "--walk", "3", "--cutoff", "2", "--threshold", "0.2",
                 "--max-tries", "5000"],
                ExperimentConfig(kind="level_set_walk", n=2, seed=4,
                                 cutoff_J=2, samples=2, walk_length=3,
                                 threshold=0.2, target=0.5, tol=0.2,
                                 max_tries=5000)),
    "lps": (["--cutoff", "3"],
            ExperimentConfig(kind="lps_benchmark", n=3, seed=4, cutoff_J=3,
                             samples=0, walk_length=0, threshold=1e-3,
                             target=0.0, tol=0.05, max_tries=1_000_000)),
}


@pytest.mark.parametrize("command", sorted(EXPERIMENT_FLAGS))
def test_every_experiment_flag_reaches_its_config_field(tmp_path, capsys,
                                                        command):
    flags, expected = EXPERIMENT_FLAGS[command]
    rc = cli.main([command, *flags, "--seed", "4", "--out-dir",
                   str(tmp_path)])
    assert rc == 0, capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == [record_filename(expected)]
    config_line = (tmp_path / record_filename(expected)).read_text()
    assert config_line.splitlines()[0] == lab.json_line(expected.to_dict())


def test_numerical_failure_exits_3(monkeypatch, capsys):
    def boom(t, cutoff):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(cli, "lambda1_estimate", boom)
    rc = cli.main(["spectrum", "--n", "2", "--cutoff", "3", "--seed", "1"])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def _raise_linalg_error(reports, i):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _non_finite_report(reports, i):
    reports[i] = dataclasses.replace(reports[i], lambda1_J=math.nan,
                                     gap_proxy=math.nan)
    return reports


# (corrupt, rows of the failing block written before the failure): an
# exception fails its whole block, a non-finite value fails at its own row
@pytest.mark.parametrize("corrupt, written", [
    (_raise_linalg_error, 0), (_non_finite_report, 1),
], ids=["linalg_error", "non_finite_row"])
def test_numerical_value_errors_exit_3(tmp_path, monkeypatch, capsys, corrupt,
                                       written):
    # both are ValueError subclasses, which would otherwise read as input
    # errors; the failing row is the second of the second block
    samples = lab._BLOCK + 2
    cfg = ExperimentConfig(kind="zero_one_scan", n=2, seed=1, cutoff_J=2,
                           samples=samples)
    full = run_experiment(cfg)
    failing = full.rows[lab._BLOCK + 1]["digest"]
    real = lab.lambda1_estimates

    def fake(tuples, cutoff_J):
        reports = real(tuples, cutoff_J)
        for i, t in enumerate(tuples):
            if tuple_digest(t) == failing:
                return corrupt(reports, i)
        return reports

    monkeypatch.setattr(lab, "lambda1_estimates", fake)
    rc = cli.main(["scan", "--n", "2", "--cutoff", "2", "--samples",
                   str(samples), "--seed", "1", "--out-dir", str(tmp_path)])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err
    lines = (tmp_path / record_filename(cfg)).read_text().splitlines()
    assert ([json.loads(line) for line in lines[1:]]
            == full.rows[:lab._BLOCK + written])


def test_cutoff_above_the_highest_level_exits_2_before_any_work(tmp_path,
                                                               capsys):
    cutoff = str(MAX_LEVEL + 1)
    rc = cli.main(["scan", "--n", "2", "--cutoff", cutoff, "--samples", "3",
                   "--seed", "1", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "cutoff_J" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    # spectrum checks the cutoff before it opens --out: an existing file
    # outlives the failure unchanged, and a new one is never made
    summary = tmp_path / "summary.json"
    summary.write_text("earlier summary\n")
    new = tmp_path / "new.json"
    for bad in (cutoff, "0"):
        for out in ([], ["--out", str(summary)], ["--out", str(new)]):
            rc = cli.main(["spectrum", "--n", "2", "--seed", "1", "--cutoff",
                           bad, *out])
            assert rc == 2
            assert (f"--cutoff must lie in [1, {MAX_LEVEL}]"
                    in capsys.readouterr().err)
    assert summary.read_text() == "earlier summary\n"
    assert not new.exists()
    # gap prints a row per level as it goes, so a bad cutoff must stop it
    # before the first row
    for bad in (cutoff, "0"):
        rc = cli.main(["gap", "--n", "2", "--seed", "1", "--cutoff", bad])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--cutoff" in err


def test_io_failure_exits_4(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    r = run_cli("scan", "--n", "2", "--cutoff", "3", "--samples", "2",
                "--seed", "1", "--out-dir", str(blocker / "sub"))
    assert r.returncode == 4
    # no record was ever opened, so there is nothing to resume
    assert "--resume" not in r.stderr
    assert str(blocker / "sub") in r.stderr


def test_io_failure_after_the_record_opens_hints_resume(tmp_path, monkeypatch,
                                                        capsys):
    argv = ["scan", "--n", "2", "--cutoff", "3", "--samples", "4", "--seed",
            "1", "--out-dir", str(tmp_path)]
    real = lab._compute_rows

    def fail_after_two_rows(*args):
        rows = real(*args)
        yield next(rows)
        yield next(rows)
        raise OSError("no space left on device")

    monkeypatch.setattr(lab, "_compute_rows", fail_after_two_rows)
    assert cli.main(argv) == 4
    assert "--resume" in capsys.readouterr().err
    monkeypatch.setattr(lab, "_compute_rows", real)
    assert cli.main(argv + ["--resume"]) == 0


# ---------------------------------------------------------------------------
# help snapshots


@pytest.mark.parametrize("command", [
    None, "sample", "spectrum", "gap", "scan", "orbit", "charvar", "lps",
])
def test_help_snapshots(command):
    args = ([command] if command else []) + ["--help"]
    r = run_cli(*args)
    assert r.returncode == 0
    name = command or "gaplab"
    expected = (DATA / "help" / f"{name}.txt").read_text()
    assert r.stdout == expected
