"""Tests of the benchmark's own code: span arithmetic, wrapper installation,
output checks, metric names and the traced child.

Run from the repository root with ``python -m pytest bench``.
"""

import io
import json
import re
import sys
import threading
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    """Per-thread nanosecond clock that only moves when told to."""

    def __init__(self):
        self._local = threading.local()

    def __call__(self):
        return getattr(self._local, "now", 0)

    def advance(self, ns):
        self._local.now = self() + ns


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def inner():
        clock.advance(30)

    inner_t = tracer.wrap("m.inner", inner)

    def outer():
        clock.advance(5)
        inner_t()
        clock.advance(7)
        inner_t()

    tracer.wrap("m.outer", outer)()
    totals = tracer.totals()
    assert totals["m.inner"] == [2, 60, 60]
    assert totals["m.outer"] == [1, 72, 12]
    (state,) = tracer.threads()
    assert state.root_ns == 72 and state.stack == []


def test_self_time_with_spans_on_two_threads():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    both_open = threading.Barrier(2, timeout=10)

    def leaf(ns):
        clock.advance(ns)

    leaf_t = tracer.wrap("m.leaf", leaf)

    def body(ns):
        clock.advance(ns)
        both_open.wait()  # both threads hold an open span here
        leaf_t(ns)

    body_t = tracer.wrap("m.body", body)
    threads = [threading.Thread(target=body_t, args=(ns,)) for ns in (100, 1000)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    totals = tracer.totals()
    # each thread's leaf is subtracted from its own body only
    assert totals["m.leaf"] == [2, 1100, 1100]
    assert totals["m.body"] == [2, 2200, 1100]
    roots = sorted(st.root_ns for st in tracer.threads())
    assert roots == [200, 2000]
    assert not any(st.is_main for st in tracer.threads())


def test_exception_closes_the_span():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def boom():
        clock.advance(4)
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("m.boom", boom)()
    assert tracer.totals()["m.boom"] == [1, 4, 4]
    assert tracer.threads()[0].stack == []


def _gaplab():
    import gaplab.cli  # noqa: F401  (imports every gaplab module)

    return spans.gaplab_modules()


def test_install_rebinds_every_namespace_and_uninstall_restores():
    modules = _gaplab()
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    import gaplab
    from gaplab import charvar, cli, group, irreps, lab, spectral

    originals = {
        "irreps.irrep_matrix": irreps.irrep_matrix,
        "spectral.lambda1_estimate": spectral.lambda1_estimate,
        "group.mul": group.mul,
        "lab.run_experiment": lab.run_experiment,
    }
    tracer = spans.Tracer()
    patches = tracer.install(modules)
    try:
        for ns in (spectral, irreps, gaplab):
            assert ns.irrep_matrix.__wrapped__ is originals["irreps.irrep_matrix"]
        assert lab.lambda1_estimate.__wrapped__ is originals["spectral.lambda1_estimate"]
        assert charvar.mul.__wrapped__ is originals["group.mul"]
        assert cli.run_experiment.__wrapped__ is originals["lab.run_experiment"]
        # no namespace still binds an unwrapped public gaplab function
        wrapped = {id(v.__wrapped__) for m in modules for v in vars(m).values()
                   if hasattr(v, "__wrapped__")}
        for m in modules:
            for v in vars(m).values():
                assert id(v) not in wrapped
        group.mul(group.identity(), group.identity())
        assert tracer.totals()["group.mul"][0] >= 1
    finally:
        tracer.uninstall(patches)
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def _run_cli(argv):
    from gaplab import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    assert code == 0
    return buf.getvalue()


@pytest.mark.parametrize("argv", [
    ["gap", "--n", "2", "--seed", "3", "--cutoff", "3", "--minmax",
     "--restarts", "2", "--iters", "5"],
    ["orbit", "--n", "3", "--walk", "12", "--cutoff", "3", "--seed", "2",
     "--threads", "2"],
])
def test_traced_outputs_equal_untraced(argv, tmp_path):
    modules = _gaplab()
    plain_dir, traced_dir = tmp_path / "plain", tmp_path / "traced"
    plain_dir.mkdir()
    traced_dir.mkdir()
    extra = ["--out-dir"] if argv[0] == "orbit" else []
    plain = _run_cli(argv + extra + ([str(plain_dir)] if extra else []))
    tracer = spans.Tracer()
    patches = tracer.install(modules, spans.HOOKS)
    try:
        traced = _run_cli(argv + extra + ([str(traced_dir)] if extra else []))
    finally:
        tracer.uninstall(patches)
    assert traced == plain
    for a, b in zip(sorted(plain_dir.iterdir()), sorted(traced_dir.iterdir())):
        assert a.read_text().splitlines()[:-1] == b.read_text().splitlines()[:-1]
    metrics = spans.span_metrics(tracer, main_wall_s=1.0, pool_threads=2)
    assert metrics["irreps.irrep_matrix.calls"] > 0
    if argv[0] == "orbit":
        assert metrics["lab.pool_busy_frac"] > 0
        assert metrics["nielsen.apply_move.calls"] == 12


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
# Per-layer metrics that run.py adds to the traced child's own.
PARENT_METRICS = {"cli.import_s", "cli.import_scipy_s", "lab.record_bytes",
                  "spectral.lambda_ref_dev_max", "trace.overhead_frac"}


def test_metric_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.workloads(2))
    tracer = spans.Tracer()
    produced = set(spans.span_metrics(tracer, 1.0, 1)) | PARENT_METRICS
    assert {m["name"] for m in spec["per_layer"]} <= produced


def test_import_times_parse_nesting():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       scipy._lib",
        "import time:        20 |         30 |     scipy",
        "import time:         5 |          5 |       scipy.special",
        "import time:       100 |        135 |     scipy.stats",
        "import time:         7 |        200 |   gaplab.lab",
        "import time:         3 |        300 | gaplab.cli",
        "import time:        40 |         40 | json",
    ])
    assert spans.import_times(stderr) == (300e-6, 165e-6)


def test_reference_matches_gaplab_at_low_levels():
    from gaplab.group import GroupElement, GroupTuple, haar_tuple
    from gaplab.lab import derive_seed
    from gaplab.spectral import lambda1_estimate

    for index in range(3):
        quats = reference.scan_tuple(5, index, 2)
        rng = np.random.default_rng(derive_seed(5, "zero_one_scan", index))
        got = [g.coords() for g in haar_tuple(rng, 2)]
        assert np.allclose(got, quats, rtol=0, atol=1e-15)
        t = GroupTuple([GroupElement(*q) for q in quats])
        lib = [lam for _, lam in lambda1_estimate(t, 12).per_level]
        assert np.allclose(lib, reference.lambda_max_levels(quats, 12), rtol=0, atol=1e-12)


def _sweep_row(checker, i):
    lams = checker.reference(i)
    return {"index": i, "digest": "0", "per_level": list(lams),
            "lambda1_J": max(lams), "gap_proxy": 4.0 - max(lams), "pgap": 1}


def test_corrupted_outputs_trip_the_checks(monkeypatch):
    monkeypatch.setattr(workloads, "SWEEP_CUTOFF", 4)
    table = workloads.workloads(2)

    def small(name, rows):
        return workloads.Workload(name, "", (), rows, 1, True)

    sweep = workloads.Checker(small("sweep", 2), seed=3)
    rows = [_sweep_row(sweep, i) for i in range(2)]
    stdout = json.dumps({"summary": {"errors": 0}})
    assert sweep.check(workloads.Output(stdout, rows)) == (set(), [])
    rows[1]["per_level"][2] += 1e-6
    bad, problems = sweep.check(workloads.Output(stdout, rows))
    assert bad == {1} and "reference" in problems[0]

    minmax = workloads.Checker(table["minmax"], seed=1)
    lines = [f"{k},3.5,0.1,0.4,0.2" for k in range(1, 13)]
    assert minmax.check(workloads.Output("", lines))[0] == set()
    lines[4] = "5,3.5,0.1,0.4,0.5"  # estimate above the upper bound
    assert minmax.check(workloads.Output("", lines))[0] == {4}

    orbit = workloads.Checker(small("orbit", 2), seed=1)
    rows = [{"index": i, "stability_ok": True} for i in range(2)]
    summary = {"errors": 0, "stability_pass_rate": 1}
    assert orbit.check(workloads.Output(json.dumps({"summary": summary}), rows))[0] == set()
    summary["stability_pass_rate"] = 0.5
    assert orbit.check(workloads.Output(json.dumps({"summary": summary}), rows))[0] == {0, 1}

    fiber = workloads.Checker(small("fiber", 2), seed=1)
    rows = [{"index": 0, "phase": "fiber", "commutator_trace": 0.001},
            {"index": 1, "phase": "walk", "commutator_trace": 0.001}]
    summary = {"errors": 0, "max_g_drift_walk": 1e-15, "max_fiber_dev": 0.001}
    assert fiber.check(workloads.Output(json.dumps({"summary": summary}), rows))[0] == set()
    summary["max_g_drift_walk"] = 1e-6
    assert fiber.check(workloads.Output(json.dumps({"summary": summary}), rows))[0] == {0, 1}

    # a truncated record fails every expected row
    assert fiber.check(workloads.Output(json.dumps({"summary": summary}), rows[:1]))[0] == {0, 1}


def test_runner_traced_child_and_changed_output(tmp_path):
    tiny = workloads.Workload("minmax", "", ("gap", "--n", "2", "--cutoff", "2", "--minmax",
                                             "--restarts", "2", "--iters", "5"),
                              2, None, False)
    runner = run.Runner(ROOT, tmp_path, tiny, seed=4)
    assert runner.probe() > 0
    plain, rows, _, metrics = runner.invoke()
    assert plain.code == 0 and rows == 2 and metrics is None
    traced, _, _, metrics = runner.invoke(traced=True)
    assert traced.stdout == plain.stdout
    assert runner.failed == 0 and runner.attempted == 5
    assert metrics["spectral.minmax_gap_estimate.calls"] == 2
    assert 0 < metrics["cli.import_scipy_s"] < metrics["cli.import_s"]
    runner.expected = "a different digest"
    runner.invoke()
    assert runner.failed == 2 and "differ" in runner.problems[-1]
