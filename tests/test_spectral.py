import math

import numpy as np
import pytest

from gaplab.group import (
    GroupElement,
    GroupTuple,
    angle,
    conjugate_tuple,
    haar_sample,
    haar_tuple,
    identity,
)
from gaplab import irreps, spectral
from gaplab.irreps import MAX_LEVEL, irrep_matrix
from gaplab.lab import lps_preset
from gaplab.nielsen import apply_move, random_walk
from gaplab.spectral import (
    averaging_operator,
    lambda1_estimate,
    lambda1_estimates,
    lambda_max,
    level_gap_bounds,
    minmax_gap_estimate,
    literal_gap_formula,
    per_gen_min_displacement,
    pgap_from_report,
)

from _oracles import (
    grid_minmax_min,
    grid_quadratic_min,
    projective_grid,
    spin_lambda_max_levels,
)


def identity_pair():
    return GroupTuple([identity(), identity()])


def test_identity_tuple_saturates():
    a = averaging_operator(identity_pair(), 3)
    assert np.array_equal(a.matrix, 4.0 * np.eye(4))
    assert abs(lambda_max(a) - 4.0) < 1e-12


def test_averaging_operator_requires_positive_level():
    with pytest.raises(ValueError):
        averaging_operator(identity_pair(), 0)


def test_repeated_element_spectrum_closed_form():
    rng = np.random.default_rng(0)
    g = haar_sample(rng)
    a = angle(g)
    for k in (1, 2, 5):
        op = averaging_operator(GroupTuple([g, g]), k)
        expected = np.sort(4.0 * np.cos(a * np.arange(k, -k - 1, -2)))
        got = np.sort(np.linalg.eigvalsh(op.matrix))
        assert np.max(np.abs(got - expected)) < 1e-10


def test_right_angle_pair_has_zero_spectrum_at_level_one():
    # angle pi/2 means w = cos(pi/2) = 0
    g = GroupElement(0.0, 0.0, 0.0, 1.0)
    op = averaging_operator(GroupTuple([g, g]), 1)
    ev = np.linalg.eigvalsh(op.matrix)
    assert np.max(np.abs(ev)) < 1e-12


def test_hermitian_and_bounded():
    rng = np.random.default_rng(1)
    for _ in range(40):
        n = int(rng.integers(2, 4))
        t = haar_tuple(rng, n)
        k = int(rng.integers(1, 11))
        op = averaging_operator(t, k)
        assert np.max(np.abs(op.matrix - op.matrix.conj().T)) < 1e-10
        assert lambda_max(op) <= 2.0 * n + 1e-10


def test_spectrum_invariant_under_conjugation():
    rng = np.random.default_rng(2)
    for _ in range(20):
        t = haar_tuple(rng, 2)
        h = haar_sample(rng)
        for k in (1, 4, 9):
            a = np.linalg.eigvalsh(averaging_operator(t, k).matrix)
            b = np.linalg.eigvalsh(averaging_operator(conjugate_tuple(h, t), k).matrix)
            assert np.max(np.abs(a - b)) < 1e-9


def test_lambda_max_two_by_two_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(100):
        t = haar_tuple(rng, 2)
        op = averaging_operator(t, 1)
        m = op.matrix
        mean = 0.5 * (m[0, 0].real + m[1, 1].real)
        rad = math.sqrt(
            0.25 * (m[0, 0].real - m[1, 1].real) ** 2 + abs(m[0, 1]) ** 2
        )
        assert abs(lambda_max(op) - (mean + rad)) < 1e-12


def test_lambda1_identity_tuple():
    rep = lambda1_estimate(identity_pair(), MAX_LEVEL)
    assert {lam for _, lam in rep.per_level} == {4.0}
    assert rep.lambda1_J == 4.0
    assert rep.gap_proxy == 0.0


def test_lambda1_monotone_in_cutoff():
    rng = np.random.default_rng(6)
    for _ in range(5):
        t = haar_tuple(rng, 2)
        assert (
            lambda1_estimate(t, 10).lambda1_J
            <= lambda1_estimate(t, 15).lambda1_J + 1e-15
        )


def test_stacked_sweep_equals_per_tuple_sweeps():
    # 18 tuples straddle the sub-stack size at many levels: at k = 60 it is 4
    # operators, at k = 30 it is 17, and below k = 30 all 18 fit in one
    assert spectral._STACK_ENTRIES // 61 ** 2 == 4
    assert spectral._STACK_ENTRIES // 31 ** 2 == 17
    rng = np.random.default_rng(17)
    for n in (2, 3):  # pairs take their own path, cut into the same sub-stacks
        ts = [haar_tuple(rng, n) for _ in range(18)]
        alone = [lambda1_estimate(t, 60) for t in ts]
        for size in (1, 4, 5, 18):
            assert lambda1_estimates(ts[:size], 60) == alone[:size]
    assert lambda1_estimates([], 60) == []
    # for n >= 3, lambda_max of the one-tuple operator gives the stacked
    # values exactly
    for t, report in zip(ts, alone):
        assert report.per_level == tuple(
            (k, lambda_max(averaging_operator(t, k))) for k in range(1, 61))


@pytest.mark.parametrize("n", [3, 4])
def test_shared_elements_give_the_per_tuple_reports(n):
    # an orbit shares n - 1 generator objects between consecutive states; a
    # tuple may hold one object twice; copies rebuilt from coords() share
    # nothing.  At k = 60 a sub-stack holds 4 tuples, so sub-stacks cut
    # through the block and the distinct elements of each are built alone
    rng = np.random.default_rng(40 + n)
    states = [haar_tuple(rng, n)]
    for move in random_walk(rng, n, 11):
        states.append(apply_move(move, states[-1]))
    g, h = haar_sample(rng), haar_sample(rng)
    doubled = GroupTuple([g, g, h] + [g] * (n - 3))
    tuples = states[:6] + [doubled] + states[6:] + [doubled]
    copies = [GroupTuple(GroupElement._raw(*e.coords(), 0) for e in t)
              for t in tuples]
    alone = [lambda1_estimate(t, 60) for t in copies]
    assert lambda1_estimates(tuples, 60) == alone
    assert lambda1_estimates(copies, 60) == alone
    assert [lambda1_estimate(t, 60) for t in tuples] == alone


@pytest.mark.parametrize("n", [2, 3])
def test_minmax_builds_one_irrep_stack_per_level(monkeypatch, n):
    calls = []

    def counted(level, stack):
        calls.append(len(stack))
        return irrep_stack(level, stack)

    irrep_stack = irreps.irrep_stack
    monkeypatch.setattr(irreps, "irrep_stack", counted)
    monkeypatch.setattr(spectral, "irrep_stack", counted)
    t = haar_tuple(np.random.default_rng(18), n)
    for k in range(1, 6):
        calls.clear()
        lg = minmax_gap_estimate(t, k, restarts=2, iters=10)
        assert calls == [n], k
        # the sweep's own lambda_max
        assert lg.lambda_max == lambda1_estimate(t, k).per_level[-1][1]


@pytest.mark.parametrize("n", [2, 3])
def test_sweep_matches_the_spin_matrix_oracle_at_every_level(n):
    rng = np.random.default_rng(19 + n)
    t = haar_tuple(rng, n)
    got = [lam for _, lam in lambda1_estimate(t, MAX_LEVEL).per_level]
    want = spin_lambda_max_levels([g.coords() for g in t], MAX_LEVEL)
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-12


def _torus(a, sign=1.0):
    return GroupElement(math.cos(a), 0.0, 0.0, sign * math.sin(a))


DEGENERATE_PAIRS = {
    "identity": (identity(), identity()),
    "minus_identity": (GroupElement(-1.0, 0.0, 0.0, 0.0),) * 2,
    "central_first": (GroupElement(-1.0, 0.0, 0.0, 0.0),
                      GroupElement(0.3, -0.5, 0.2, 0.7)),
    "central_second": (GroupElement(0.3, -0.5, 0.2, 0.7), identity()),
    "parallel_axes": (_torus(0.9), _torus(2.3)),
    "antiparallel_axes": (_torus(0.9), _torus(0.4, -1.0)),
    "perpendicular_axes": (_torus(0.9), GroupElement(0.2, 0.7, 0.0, 0.0)),
}


@pytest.mark.parametrize("case", sorted(DEGENERATE_PAIRS))
def test_degenerate_pairs_match_the_complex_operator(case):
    t = GroupTuple(list(DEGENERATE_PAIRS[case]))
    levels = [*range(1, 41), MAX_LEVEL - 1, MAX_LEVEL]
    lams = dict(lambda1_estimate(t, MAX_LEVEL).per_level)
    for k in levels:
        want = np.linalg.eigvalsh(averaging_operator(t, k).matrix)[-1]
        assert abs(lams[k] - want) <= 1e-12, k


def test_stacked_sweep_validates_its_inputs():
    ts = [identity_pair(), identity_pair()]
    for cutoff in (0, MAX_LEVEL + 1):
        with pytest.raises(ValueError):
            lambda1_estimates(ts, cutoff)
    with pytest.raises(ValueError, match="one rank"):
        lambda1_estimates([identity_pair(), lps_preset()], 3)


def test_lps_preset_is_ramanujan_bounded():
    rep = lambda1_estimate(lps_preset(), 24)
    assert rep.lambda1_J <= 2.0 * math.sqrt(5.0) + 1e-8


def test_per_gen_min_displacement():
    rng = np.random.default_rng(7)
    t = haar_tuple(rng, 2)
    assert per_gen_min_displacement(t, 2) == [0.0, 0.0]
    disp = per_gen_min_displacement(t, 1)
    for i, g in enumerate(t):
        assert abs(disp[i] - 2.0 * abs(math.sin(angle(g) / 2.0))) < 1e-12
    for i, g in enumerate(t):
        sv = np.linalg.svd(irrep_matrix(5, g).entries - np.eye(6),
                           compute_uv=False)
        assert abs(per_gen_min_displacement(t, 5)[i] - sv[-1]) < 1e-9


def test_literal_gap_formula_vanishes_beyond_cutoff_one():
    rng = np.random.default_rng(8)
    for _ in range(20):
        t = haar_tuple(rng, int(rng.integers(2, 4)))
        assert literal_gap_formula(t, 2) == 0.0
        assert literal_gap_formula(t, int(rng.integers(2, 12))) == 0.0


def test_literal_gap_formula_cutoff_one():
    rng = np.random.default_rng(9)
    t = haar_tuple(rng, 2)
    expected = max(2.0 * abs(math.sin(angle(g) / 2.0)) for g in t)
    assert abs(literal_gap_formula(t, 1) - expected) < 1e-12
    assert literal_gap_formula(identity_pair(), 1) == 0.0


def test_level_gap_bounds_examples():
    lg = level_gap_bounds(identity_pair(), 3)
    assert lg.lower == 0.0 and lg.upper == 0.0
    g = GroupElement(0.0, 0.0, 0.0, 1.0)  # angle pi/2
    lg = level_gap_bounds(GroupTuple([g, g]), 1)
    assert abs(lg.lower - math.sqrt(2.0)) < 1e-12
    assert abs(lg.upper - 2.0) < 1e-12
    rng = np.random.default_rng(10)
    for _ in range(50):
        lg = level_gap_bounds(haar_tuple(rng, 2), 3)
        assert 0.0 <= lg.lower <= lg.upper <= 2.0 * math.sqrt(2.0) + 1e-12


def test_quadratic_form_grid_matches_lambda_max():
    rng = np.random.default_rng(11)
    grid = projective_grid(200, 200)
    for _ in range(10):
        t = haar_tuple(rng, 2)
        mats = [irrep_matrix(1, g).entries for g in t]
        lam = lambda_max(averaging_operator(t, 1))
        assert abs(grid_quadratic_min(mats, grid) - (4.0 - lam)) < 2e-3


def test_minmax_identity_tuple_is_zero():
    lg = minmax_gap_estimate(identity_pair(), 3, restarts=2, iters=20)
    assert lg.minmax_estimate < 1e-8


def test_minmax_matches_grid_at_level_one():
    rng = np.random.default_rng(12)
    grid = projective_grid(100, 100)
    for _ in range(10):
        t = haar_tuple(rng, 2)
        mats = [irrep_matrix(1, g).entries for g in t]
        est = minmax_gap_estimate(t, 1, restarts=8, iters=150).minmax_estimate
        assert abs(est - grid_minmax_min(mats, grid)) < 2e-3


def test_minmax_lands_in_sandwich():
    rng = np.random.default_rng(13)
    for _ in range(30):
        t = haar_tuple(rng, 2)
        lg = minmax_gap_estimate(t, 4, restarts=6, iters=120)
        assert lg.lower - 1e-6 <= lg.minmax_estimate <= lg.upper + 1e-6
    # and with no slack at every level that gap --minmax is benchmarked on
    for seed in range(20):
        t = haar_tuple(np.random.default_rng(seed), 2)
        for k in range(1, 13):
            lg = minmax_gap_estimate(t, k, restarts=2, iters=20)
            assert lg.lower <= lg.minmax_estimate <= lg.upper, (seed, k)


def test_minmax_is_deterministic():
    rng = np.random.default_rng(14)
    t = haar_tuple(rng, 2)
    a = minmax_gap_estimate(t, 3, restarts=4, iters=60)
    b = minmax_gap_estimate(t, 3, restarts=4, iters=60)
    assert a.minmax_estimate == b.minmax_estimate


def test_saturation_iff_common_fixed_vector():
    # commuting pair sharing an axis: at level 2 both fix the weight-zero
    # vector, so the operator saturates; at level 1 it does not unless both
    # elements are trivial
    a1, a2 = 0.9, 1.7
    t = GroupTuple([
        GroupElement(math.cos(a1), 0.0, 0.0, math.sin(a1)),
        GroupElement(math.cos(a2), 0.0, 0.0, math.sin(a2)),
    ])
    assert abs(lambda_max(averaging_operator(t, 2)) - 4.0) < 1e-10
    lam1 = lambda_max(averaging_operator(t, 1))
    assert abs(lam1 - 2.0 * (math.cos(a1) + math.cos(a2))) < 1e-10
    assert lam1 < 4.0 - 1e-3


def test_pgap_indicator():
    def pgap(t, cutoff_J, threshold):
        return pgap_from_report(lambda1_estimate(t, cutoff_J), threshold)

    assert pgap(identity_pair(), 4, 1e-3) == 0
    assert pgap(lps_preset(), 24, 0.5) == 1
    rng = np.random.default_rng(15)
    t = haar_tuple(rng, 2)
    h = haar_sample(rng)
    assert pgap(t, 8, 1e-3) == pgap(conjugate_tuple(h, t), 8, 1e-3)
    with pytest.raises(ValueError):
        pgap(t, 4, 0.0)


def test_spectral_quantities_conjugation_invariant():
    rng = np.random.default_rng(16)
    t = haar_tuple(rng, 2)
    h = haar_sample(rng)
    tc = conjugate_tuple(h, t)
    r1, r2 = lambda1_estimate(t, 8), lambda1_estimate(tc, 8)
    assert abs(r1.lambda1_J - r2.lambda1_J) < 1e-9
    for k in (1, 3, 6):
        b1, b2 = level_gap_bounds(t, k), level_gap_bounds(tc, k)
        assert abs(b1.lower - b2.lower) < 1e-9
        assert abs(b1.upper - b2.upper) < 1e-9


def test_kesten_reference_quick():
    rng = np.random.default_rng(17)
    ref = 2.0 * math.sqrt(3.0)
    hits = 0
    for _ in range(20):
        rep = lambda1_estimate(haar_tuple(rng, 2), 25)
        if rep.lambda1_J >= ref - 0.15:
            hits += 1
        lams = [lam for _, lam in rep.per_level]
        assert np.all(np.diff(np.maximum.accumulate(lams)) >= 0.0)
    assert hits >= 19
