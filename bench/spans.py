"""Span tracing for the gaplab benchmark, installed from outside the package.

A :class:`Tracer` wraps every public function of the gaplab modules.  The
modules import each other's functions by name (``spectral`` calls its own
binding of ``irrep_matrix``, ``cli`` its own ``run_experiment``), so a wrapper
must replace the original in *every* module namespace that binds it; patching
only the defining module would miss most calls.

Each thread keeps its own span stack, because the ``orbit`` experiment runs rows
on a thread pool.  Spans are timed with the per-thread CPU clock, so a thread
waiting for the interpreter lock or for pool results is not counted as busy.
A span's self time is its duration minus the durations of its direct child
spans.  Nothing is written per span: calls, total and self time are summed
per function as spans close, which keeps memory flat for runs with millions
of calls.

This module imports only the standard library, so that ``-X importtime`` in
the traced child sees gaplab's imports undisturbed.
"""

from __future__ import annotations

import functools
import re
import sys
import threading
import time
import types

LAYERS = ("cli", "group", "irreps", "spectral", "nielsen", "charvar", "lab")

# Matrices kept per thread for the unitarity check at the top level reached.
_DEFECT_SAMPLES = 16


class ThreadState:
    """Span stack and running totals of one thread."""

    def __init__(self, is_main: bool):
        self.is_main = is_main
        self.stack: list[list[int]] = []
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.root_ns = 0  # summed duration of spans opened with an empty stack
        self.counters: dict[str, int] = {}
        self.k_max = -1
        self.top_matrices: list = []


class Tracer:
    """Per-thread span stacks with per-function call, total and self time.

    ``clock`` returns nanoseconds; tests pass a fake one.
    """

    def __init__(self, clock=time.thread_time_ns):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[ThreadState] = []

    def state(self) -> ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = ThreadState(threading.current_thread() is threading.main_thread())
            with self._lock:
                self._states.append(st)
            self._local.state = st
        return st

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` inside a span called ``name``; ``on_result(state, args,
        result)`` runs after the span has closed."""
        clock = self.clock
        state = self.state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = state()
            frame = [0]  # summed duration of direct children
            st.stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                st.stack.pop()
                if st.stack:
                    st.stack[-1][0] += dur
                else:
                    st.root_ns += dur
                agg = st.stats.get(name)
                if agg is None:
                    agg = st.stats[name] = [0, 0, 0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]
            if on_result is not None:
                on_result(st, args, result)
            return result

        return traced

    def install(self, modules, hooks=None) -> list:
        """Wrap each public function defined in ``modules`` and rebind the
        wrapper wherever any of ``modules`` binds the original.

        Returns the patch list that :meth:`uninstall` takes.
        """
        hooks = hooks or {}
        originals = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, value in vars(mod).items():
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    name = f"{short}.{attr}"
                    originals[id(value)] = (value, self.wrap(name, value, hooks.get(name)))
        patches = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))  # originals stay alive, so ids are unique
                if hit is not None:
                    setattr(mod, attr, hit[1])
                    patches.append((mod, attr, value))
        return patches

    @staticmethod
    def uninstall(patches) -> None:
        for mod, attr, original in patches:
            setattr(mod, attr, original)

    def totals(self) -> dict[str, list[int]]:
        """Per function [calls, total_ns, self_ns], summed over threads."""
        out: dict[str, list[int]] = {}
        for st in self.threads():
            for name, (calls, total, self_ns) in st.stats.items():
                agg = out.setdefault(name, [0, 0, 0])
                agg[0] += calls
                agg[1] += total
                agg[2] += self_ns
        return out

    def threads(self) -> list[ThreadState]:
        with self._lock:
            return list(self._states)


def gaplab_modules() -> list:
    """The imported gaplab package and its submodules."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "gaplab" or name.startswith("gaplab."))]


# ---------------------------------------------------------------------------
# Counters taken at layer boundaries


def _count(st: ThreadState, key: str, amount: int) -> None:
    st.counters[key] = st.counters.get(key, 0) + amount


def _on_irrep_matrix(st, args, result) -> None:
    k = result.level.k
    _count(st, "irreps.irrep_matrix.entries", (k + 1) ** 2)
    if k > st.k_max:
        st.k_max = k
        st.top_matrices = []
    if k == st.k_max and len(st.top_matrices) < _DEFECT_SAMPLES:
        st.top_matrices.append(result.entries)


def _on_lambda_max(st, args, result) -> None:
    d = args[0].matrix.shape[0]
    _count(st, "spectral.lambda_max.dim_cubed", d ** 3)


def _on_sample_level_set(st, args, result) -> None:
    _count(st, "charvar.tries", result[1])


HOOKS = {
    "irreps.irrep_matrix": _on_irrep_matrix,
    "spectral.lambda_max": _on_lambda_max,
    "charvar.sample_level_set_counted": _on_sample_level_set,
}

# Functions whose calls and self time are reported by name.
CALLS_AND_SELF = (
    "irreps.irrep_matrix",
    "spectral.averaging_operator",
    "spectral.lambda_max",
    "spectral.minmax_gap_estimate",
    "group.haar_tuple",
    "group.mul",
    "group.tuple_digest",
    "charvar.sample_level_set_counted",
    "charvar.commutator_trace",
    "nielsen.apply_move",
    "nielsen.word_length_bound",
    "lab.json_line",
)
SELF_ONLY = (
    "spectral.lambda1_estimate",
    "nielsen.random_walk",
    "lab.run_experiment",
    "lab.recompute_summary",
)


def unitarity_defect(matrices) -> float:
    """Largest spectral norm of P^dagger P - I over ``matrices``."""
    import numpy as np

    worst = 0.0
    for p in matrices:
        p = np.asarray(p)
        gram = p.conj().T @ p - np.eye(p.shape[0])
        worst = max(worst, float(np.linalg.norm(gram, 2)))
    return worst


def span_metrics(tracer: Tracer, main_wall_s: float, pool_threads: int) -> dict:
    """Per-layer metrics from a finished traced run, as {name: value}.

    ``main_wall_s`` is the wall time of the traced ``cli.main`` call, the
    wall time that pool busy time is measured against.
    """
    totals = tracer.totals()
    states = tracer.threads()
    counters: dict[str, int] = {}
    k_max, top = -1, []
    for st in states:
        for key, v in st.counters.items():
            counters[key] = counters.get(key, 0) + v
        if st.k_max > k_max:
            k_max, top = st.k_max, list(st.top_matrices)
        elif st.k_max == k_max:
            top.extend(st.top_matrices)

    def calls(name):
        return totals.get(name, (0, 0, 0))[0]

    def self_s(name):
        return totals.get(name, (0, 0, 0))[2] / 1e9

    out = {}
    for name in CALLS_AND_SELF:
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = self_s(name)
    out["irreps.irrep_matrix.entries"] = counters.get("irreps.irrep_matrix.entries", 0)
    out["irreps.irrep_matrix.k_max"] = max(k_max, 0)
    out["irreps.unitarity_defect_max"] = unitarity_defect(top)
    out["spectral.lambda_max.dim_cubed"] = counters.get("spectral.lambda_max.dim_cubed", 0)
    tries = counters.get("charvar.tries", 0)
    out["charvar.tries"] = tries
    out["charvar.acceptance_rate"] = (
        calls("charvar.sample_level_set_counted") / tries if tries else 0.0)
    busy = sum(st.root_ns for st in states if not st.is_main) / 1e9
    out["lab.pool_busy_frac"] = busy / (pool_threads * main_wall_s)
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            v[2] for name, v in totals.items()
            if name.partition(".")[0] == layer) / 1e9
    out["trace.main_wall_s"] = main_wall_s
    return out


# ---------------------------------------------------------------------------
# -X importtime


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


def import_times(stderr: str) -> tuple[float, float]:
    """(gaplab.cli import, scipy import) in seconds from -X importtime output.

    The first is the cumulative time of the outermost imports of gaplab
    modules; the second sums the cumulative time of every scipy import that
    no other scipy import encloses.  Lines are printed children first, so
    they are walked in reverse to see each parent before its children.
    """
    entries = []
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            entries.append((len(m.group(3)) // 2, m.group(4), int(m.group(2))))
    gaplab_us = scipy_us = 0
    stack: list[tuple[int, bool]] = []  # (depth, is scipy) of open ancestors
    for depth, name, cum_us in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(s for _, s in stack):
            scipy_us += cum_us
        if depth == 0 and (name == "gaplab" or name.startswith("gaplab.")):
            gaplab_us += cum_us
        stack.append((depth, is_scipy))
    return gaplab_us / 1e6, scipy_us / 1e6
