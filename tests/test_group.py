import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gaplab.group import (
    GroupElement,
    GroupTuple,
    Word,
    angle,
    canonical_form,
    conjugate,
    conjugate_tuple,
    distance,
    haar_sample,
    haar_tuple,
    identity,
    inv,
    mul,
    semicircle_cdf,
    trace,
    tuple_digest,
    word_eval,
)

from _oracles import haar_array, qmul, semicircle_cdf_quadrature

coord = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def nonzero_quat(w, x, y, z):
    return w * w + x * x + y * y + z * z > 1e-6


# ---------------------------------------------------------------------------
# group axioms and the matrix view


def test_identity_and_inverse():
    e = identity()
    rng = np.random.default_rng(0)
    g = haar_sample(rng)
    assert distance(mul(e, g), g) < 1e-15
    assert distance(mul(g, e), g) < 1e-15
    assert distance(mul(g, inv(g)), e) < 1e-12
    assert distance(mul(inv(g), g), e) < 1e-12
    assert distance(inv(e), e) == 0.0


def test_matrix_view_is_special_unitary():
    rng = np.random.default_rng(1)
    for _ in range(100):
        m = haar_sample(rng).matrix()
        assert abs(np.linalg.det(m) - 1.0) < 1e-12
        assert np.max(np.abs(m @ m.conj().T - np.eye(2))) < 1e-12


def test_matrix_functoriality_against_matmul():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        g, h = haar_sample(rng), haar_sample(rng)
        assert np.max(np.abs(mul(g, h).matrix() - g.matrix() @ h.matrix())) < 1e-12
        assert np.max(np.abs(inv(g).matrix() - g.matrix().conj().T)) < 1e-12


@settings(max_examples=60, derandomize=True)
@given(coord, coord, coord, coord, coord, coord, coord, coord, coord, coord,
       coord, coord)
def test_associativity(w1, x1, y1, z1, w2, x2, y2, z2, w3, x3, y3, z3):
    for q in ((w1, x1, y1, z1), (w2, x2, y2, z2), (w3, x3, y3, z3)):
        if not nonzero_quat(*q):
            return
    a = GroupElement(w1, x1, y1, z1)
    b = GroupElement(w2, x2, y2, z2)
    c = GroupElement(w3, x3, y3, z3)
    assert distance(mul(mul(a, b), c), mul(a, mul(b, c))) < 1e-12


def test_product_chains_stay_normalized():
    rng = np.random.default_rng(3)
    g = identity()
    step = haar_sample(rng)
    for _ in range(5000):
        g = mul(g, step)
    assert abs(g.w ** 2 + g.x ** 2 + g.y ** 2 + g.z ** 2 - 1.0) < 1e-12


def test_group_element_rejects_degenerate_input():
    with pytest.raises(ValueError):
        GroupElement(0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        GroupElement(float("nan"), 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# traces, angles and conjugacy classes


def test_conj_class_examples():
    # the class of g is fixed by its trace
    assert trace(identity()) == 2.0
    g = GroupElement(1.0, 2.0, 0.0, 0.0)
    assert abs(trace(g) - 0.8944271909999159) < 1e-12  # 2/sqrt 5


def test_conj_class_is_conjugation_invariant():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        g, h = haar_sample(rng), haar_sample(rng)
        assert abs(trace(conjugate(h, g)) - trace(g)) < 1e-12


def test_inverse_preserves_trace():
    rng = np.random.default_rng(6)
    for _ in range(100):
        g = haar_sample(rng)
        assert trace(inv(g)) == trace(g)


# ---------------------------------------------------------------------------
# Haar sampling


def test_haar_determinism():
    a = [haar_sample(np.random.default_rng(7)) for _ in range(100)]
    b = [haar_sample(np.random.default_rng(7)) for _ in range(100)]
    assert all(distance(g, h) == 0.0 for g, h in zip(a, b))


def test_haar_mean_w_is_centered():
    rng = np.random.default_rng(8)
    mean = np.mean(haar_array(rng, 10 ** 6)[:, 0])
    assert -0.005 < mean < 0.005


def test_semicircle_cdf_matches_quadrature():
    for t in (-2.0, -1.3, -0.4, 0.0, 0.7, 1.9, 2.0):
        assert abs(semicircle_cdf(t) - semicircle_cdf_quadrature(t)) < 1e-7


def test_haar_trace_distribution_quick():
    rng = np.random.default_rng(9)
    traces = np.array([trace(haar_sample(rng)) for _ in range(10 ** 5)])
    d = stats.kstest(traces, semicircle_cdf).statistic
    assert d < 0.01


def test_haar_two_sided_invariance():
    rng = np.random.default_rng(10)
    h = haar_sample(rng)
    gs = [haar_sample(rng) for _ in range(10 ** 5)]
    base = np.array([trace(g) for g in gs])
    left = np.array([trace(mul(h, g)) for g in gs])
    right = np.array([trace(mul(g, h)) for g in gs])
    assert stats.ks_2samp(base, left).statistic < 0.01
    assert stats.ks_2samp(base, right).statistic < 0.01
    assert stats.ks_2samp(left, right).statistic < 0.01


# ---------------------------------------------------------------------------
# tuples and the conjugation normal form


def test_tuple_needs_two_elements():
    with pytest.raises(ValueError):
        GroupTuple([identity()])


def test_canonical_form_fixes_central_tuple():
    t = GroupTuple([identity(), identity()])
    out = canonical_form(t)
    assert all(distance(a, b) == 0.0 for a, b in zip(t, out))


def test_canonical_form_constant_on_orbits():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        t = haar_tuple(rng, int(rng.integers(2, 5)))
        h = haar_sample(rng)
        c1, c2 = canonical_form(t), canonical_form(conjugate_tuple(h, t))
        assert max(distance(a, b) for a, b in zip(c1, c2)) < 1e-10


def test_canonical_form_postconditions():
    rng = np.random.default_rng(12)
    for _ in range(200):
        c = canonical_form(haar_tuple(rng, 2))
        assert c[0].x == 0.0 and c[0].y == 0.0 and c[0].z >= 0.0
        assert c[1].x == 0.0 and c[1].y >= 0.0


def test_canonical_form_idempotent():
    rng = np.random.default_rng(13)
    for _ in range(200):
        c1 = canonical_form(haar_tuple(rng, 3))
        c2 = canonical_form(c1)
        assert max(distance(a, b) for a, b in zip(c1, c2)) < 1e-12


def test_canonical_form_central_pivot_falls_through():
    rng = np.random.default_rng(14)
    g = haar_sample(rng)
    t = GroupTuple([GroupElement(-1.0, 0.0, 0.0, 0.0), g, haar_sample(rng)])
    c = canonical_form(t)
    # the central first entry is untouched up to sign bookkeeping; the
    # second entry takes the pivot role
    assert abs(c[0].w + 1.0) < 1e-15
    assert c[1].x == 0.0 and c[1].y == 0.0 and c[1].z >= 0.0


def test_tuple_digest_collides_on_conjugates():
    rng = np.random.default_rng(15)
    for _ in range(50):
        t = haar_tuple(rng, 2)
        h = haar_sample(rng)
        assert tuple_digest(t) == tuple_digest(conjugate_tuple(h, t))


def _on_axis(a, u):
    """The rotation exp(a (u_x i + u_y j + u_z k)) about the unit axis u."""
    s = math.sin(a)
    return GroupElement(math.cos(a), s * u[0], s * u[1], s * u[2])


# tuples whose frame is degenerate: a pivot with axis -e3, and tuples on one
# axis, where no later part fixes e2 and a coordinate axis completes the
# frame; in the last one a part orthogonal to that axis stays below the
# tolerance
_AXIS, _NORMAL = (2 / 7, -3 / 7, 6 / 7), (3 / 7, 6 / 7, 2 / 7)
DEGENERATE_TUPLES = {
    "pivot_axis_minus_e3": GroupTuple([
        _on_axis(0.7, (0.0, 0.0, -1.0)),
        _on_axis(1.3, (0.6, 0.0, 0.8)),
    ]),
    "one_shared_axis": GroupTuple([
        _on_axis(a, _AXIS) for a in (0.4, -1.1, 2.5)
    ]),
    "one_axis_below_tolerance": GroupTuple([
        _on_axis(0.4, _AXIS),
        GroupElement(math.cos(-1.1), *(math.sin(-1.1) * u + 5e-10 * p
                                       for u, p in zip(_AXIS, _NORMAL))),
        _on_axis(2.5, _AXIS),
    ]),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE_TUPLES))
def test_tuple_digest_constant_on_orbits_of_degenerate_tuples(name):
    t = DEGENERATE_TUPLES[name]
    c = canonical_form(t)
    assert c[0].x == 0.0 and c[0].y == 0.0 and c[0].z > 0.0
    rng = np.random.default_rng(16)
    digest = tuple_digest(t)
    for _ in range(50):
        assert tuple_digest(conjugate_tuple(haar_sample(rng), t)) == digest


def _word_traces(t):
    """tr w(t) for every word of one to three ascending distinct letters.  A
    reflection of the vector parts keeps the traces of one and two letters
    but flips the triple-product term of tr(g1 g2 g3)."""
    letters = range(1, len(t) + 1)
    return np.array([trace(word_eval(Word(w), t)) for r in (1, 2, 3)
                     for w in itertools.combinations(letters, r)])


def test_canonical_form_is_a_simultaneous_conjugate():
    rng = np.random.default_rng(21)
    tuples = [haar_tuple(rng, n) for n in (2, 3, 4, 5) for _ in range(50)]
    for t in tuples + list(DEGENERATE_TUPLES.values()):
        diff = _word_traces(canonical_form(t)) - _word_traces(t)
        assert np.max(np.abs(diff)) < 1e-12


# ---------------------------------------------------------------------------
# words


def test_word_rejects_unreduced_and_zero():
    with pytest.raises(ValueError):
        Word([1, -1])
    with pytest.raises(ValueError):
        Word([0])
    assert list(Word([1, 2, -1])) == [1, 2, -1]


def test_word_eval_examples():
    rng = np.random.default_rng(16)
    t = haar_tuple(rng, 2)
    assert distance(word_eval(Word([]), t), identity()) == 0.0
    assert distance(word_eval(Word([1]), t), t[0]) == 0.0
    comm = word_eval(Word([1, 2, -1, -2]), t)
    m = t[0].matrix() @ t[1].matrix() @ np.linalg.inv(t[0].matrix()) @ \
        np.linalg.inv(t[1].matrix())
    assert np.max(np.abs(comm.matrix() - m)) < 1e-12


def test_word_eval_rejects_out_of_range():
    rng = np.random.default_rng(17)
    t = haar_tuple(rng, 2)
    with pytest.raises(ValueError):
        word_eval(Word([3]), t)


def test_commutator_class_invariant_under_conjugation():
    rng = np.random.default_rng(18)
    w = Word([1, 2, -1, -2])
    for _ in range(200):
        t = haar_tuple(rng, 2)
        h = haar_sample(rng)
        a = trace(word_eval(w, t))
        b = trace(word_eval(w, conjugate_tuple(h, t)))
        assert abs(a - b) < 1e-12


def test_vectorized_oracle_matches_library_mul():
    rng = np.random.default_rng(19)
    a, b = haar_array(rng, 20), haar_array(rng, 20)
    for i in range(20):
        lib = mul(GroupElement(*a[i]), GroupElement(*b[i]))
        assert distance(lib, GroupElement(*qmul(a[i], b[i]))) < 1e-12


def test_angle_matches_trace():
    assert angle(identity()) == 0.0
    assert abs(angle(GroupElement(-1.0, 0.0, 0.0, 0.0)) - math.pi) < 1e-15
    a = angle(GroupElement(1.0, 2.0, 0.0, 0.0))
    assert abs(a - 1.1071487177940904) < 1e-12  # arccos(1/sqrt 5)
    rng = np.random.default_rng(20)
    for _ in range(100):
        g = haar_sample(rng)
        assert abs(2.0 * math.cos(angle(g)) - trace(g)) < 1e-12
