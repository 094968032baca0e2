import math

import numpy as np
import pytest
from scipy import stats

from gaplab.charvar import (
    CharPoint,
    LevelSetSamplingError,
    commutator,
    commutator_trace,
    fricke,
    nielsen_on_traces,
    sample_level_set_counted,
    trace_coords,
)
from gaplab.group import (
    GroupElement,
    GroupTuple,
    angle,
    conjugate_tuple,
    distance,
    haar_sample,
    haar_tuple,
    identity,
    trace,
)
from gaplab.nielsen import NielsenMove, apply_move, random_walk

from _oracles import commutator_traces

ALL_MOVES = [
    NielsenMove("swap", 1, 2),
    NielsenMove("invert", 1),
    NielsenMove("invert", 2),
    NielsenMove("rmul", 1, 2),
    NielsenMove("rmul", 2, 1),
    NielsenMove("lmul", 1, 2),
    NielsenMove("lmul", 2, 1),
]


def test_trace_coords_examples():
    p = trace_coords(GroupTuple([identity(), identity()]))
    assert (p.x, p.y, p.z) == (2.0, 2.0, 2.0)
    rng = np.random.default_rng(0)
    t = haar_tuple(rng, 2)
    z = np.trace(t[0].matrix() @ t[1].matrix())
    assert abs(trace_coords(t).z - z.real) < 1e-12
    with pytest.raises(ValueError):
        trace_coords(haar_tuple(rng, 3))


def test_trace_coords_conjugation_invariant():
    rng = np.random.default_rng(1)
    for _ in range(100):
        t = haar_tuple(rng, 2)
        h = haar_sample(rng)
        p, q = trace_coords(t), trace_coords(conjugate_tuple(h, t))
        assert max(abs(p.x - q.x), abs(p.y - q.y), abs(p.z - q.z)) < 1e-12


def test_commutator_trace_degenerate_cases():
    rng = np.random.default_rng(2)
    g = haar_sample(rng)
    assert abs(commutator_trace(GroupTuple([identity(), g])) - 2.0) < 1e-15
    a1, a2 = 0.7, 2.1
    shared_axis = GroupTuple([
        GroupElement(math.cos(a1), 0.0, 0.0, math.sin(a1)),
        GroupElement(math.cos(a2), 0.0, 0.0, math.sin(a2)),
    ])
    assert abs(commutator_trace(shared_axis) - 2.0) < 1e-12


def test_fricke_examples():
    assert fricke(CharPoint(2.0, 2.0, 2.0)) == 2.0
    # rho(a) = i, rho(b) = j: commutator is -1, all traces vanish
    t = GroupTuple([GroupElement(0, 1, 0, 0), GroupElement(0, 0, 1, 0)])
    p = trace_coords(t)
    assert (p.x, p.y, p.z) == (0.0, 0.0, 0.0)
    assert fricke(p) == -2.0
    assert commutator_trace(t) == -2.0


def test_fricke_bridge():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        t = haar_tuple(rng, 2)
        assert abs(commutator_trace(t) - fricke(trace_coords(t))) < 1e-10
        assert abs(commutator_trace(t)) <= 2.0 + 1e-9


def test_char_point_validation():
    with pytest.raises(ValueError):
        CharPoint(2.5, 0.0, 0.0)
    with pytest.raises(ValueError):
        CharPoint(2.0, 2.0, -2.0)  # Fricke value 10, not realizable


def test_nielsen_on_traces_fixed_point():
    p = nielsen_on_traces(NielsenMove("rmul", 1, 2), CharPoint(2.0, 2.0, 2.0))
    assert (p.x, p.y, p.z) == (2.0, 2.0, 2.0)


def test_nielsen_on_traces_rejects_large_indices():
    with pytest.raises(ValueError):
        nielsen_on_traces(NielsenMove("rmul", 1, 3), CharPoint(0.0, 0.0, 0.0))


def test_equivariance_square():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        t = haar_tuple(rng, 2)
        m = ALL_MOVES[int(rng.integers(0, len(ALL_MOVES)))]
        lhs = trace_coords(apply_move(m, t))
        rhs = nielsen_on_traces(m, trace_coords(t))
        assert max(abs(lhs.x - rhs.x), abs(lhs.y - rhs.y),
                   abs(lhs.z - rhs.z)) < 1e-10


def test_moves_preserve_commutator_trace():
    rng = np.random.default_rng(6)
    for _ in range(200):
        t = haar_tuple(rng, 2)
        g = commutator_trace(t)
        for m in ALL_MOVES:
            assert abs(commutator_trace(apply_move(m, t)) - g) < 1e-10


def test_moves_preserve_fricke_on_coordinates():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = trace_coords(haar_tuple(rng, 2))
        for m in ALL_MOVES:
            assert abs(fricke(nielsen_on_traces(m, p)) - fricke(p)) < 1e-10


def test_level_set_closure_along_walks():
    rng = np.random.default_rng(8)
    t = haar_tuple(rng, 2)
    g0 = commutator_trace(t)
    for m in random_walk(rng, 2, 1000):
        t = apply_move(m, t)
        assert abs(commutator_trace(t) - g0) < 1e-8


def test_sample_level_set_deterministic():
    a = sample_level_set_counted(0.3, 0.05, np.random.default_rng(9))[0]
    b = sample_level_set_counted(0.3, 0.05, np.random.default_rng(9))[0]
    assert max(distance(x, y) for x, y in zip(a, b)) == 0.0
    assert abs(commutator_trace(a) - 0.3) <= 0.05


def test_sample_level_set_near_commuting():
    rng = np.random.default_rng(10)
    for _ in range(5):
        t, _ = sample_level_set_counted(2.0 - 1e-6, 1e-3, rng,
                                        max_tries=2 * 10 ** 6)
        assert angle(commutator(t)) < 0.05


def test_sample_level_set_budget_error():
    rng = np.random.default_rng(11)
    with pytest.raises(LevelSetSamplingError) as exc:
        sample_level_set_counted(1.99, 1e-9, rng, max_tries=50)
    assert exc.value.tries == 50


def test_sample_level_set_validates_inputs():
    rng = np.random.default_rng(12)
    with pytest.raises(ValueError):
        sample_level_set_counted(2.0, 0.1, rng)
    with pytest.raises(ValueError):
        sample_level_set_counted(0.0, 0.0, rng)


def test_acceptance_rate_matches_density_oracle():
    # empirical density of the commutator trace near 0, from 10^6
    # unconditioned pairs, vs the observed rejection acceptance rate
    target, tol, samples = 0.0, 0.05, 300
    gs = commutator_traces(np.random.default_rng(13), 10 ** 6)
    p = float(np.mean(np.abs(gs - target) <= tol))
    rng = np.random.default_rng(14)
    tries = 0
    for _ in range(samples):
        _, c = sample_level_set_counted(target, tol, rng)
        tries += c
    rate = samples / tries
    sigma = math.sqrt(p * (1.0 - p)) * math.sqrt(1.0 / 10 ** 6 + p / samples)
    assert abs(rate - p) <= 3.0 * sigma


def test_within_fiber_spreading():
    # time average along a long fiber walk vs independent fiber samples;
    # evidence of spreading on the fiber, not a proof of it
    target, tol = 0.0, 0.05
    rng = np.random.default_rng(42)
    t = sample_level_set_counted(target, tol, rng)[0]
    walk = random_walk(rng, 2, 2 * 10 ** 5)
    xs_walk = np.empty(len(walk))
    for s, m in enumerate(walk):
        t = apply_move(m, t)
        xs_walk[s] = trace(t[0])
    rng2 = np.random.default_rng(43)
    xs_fiber = np.array(
        [trace(sample_level_set_counted(target, tol, rng2)[0][0])
         for _ in range(2000)]
    )
    assert stats.ks_2samp(xs_walk, xs_fiber).statistic < 0.05
