import math

import numpy as np
import pytest
from scipy import stats

from gaplab.group import (
    Word,
    distance,
    haar_sample,
    haar_tuple,
    semicircle_cdf,
    trace,
    word_eval,
)
from gaplab.irreps import irrep_matrix
from gaplab.nielsen import (
    NielsenMove,
    WordLengthError,
    apply_move,
    apply_sequence,
    inverse_sequence,
    move_alphabet,
    move_to_basis_words,
    random_walk,
    word_length_bound,
)
from gaplab.spectral import lambda1_estimate, level_gap_bounds


def test_move_validation():
    with pytest.raises(ValueError):
        NielsenMove("rmul", 1, 1)
    with pytest.raises(ValueError):
        NielsenMove("invert", 1, 2)
    with pytest.raises(ValueError):
        NielsenMove("swap", 1)
    with pytest.raises(ValueError):
        NielsenMove("twist", 1, 2)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        apply_move(NielsenMove("swap", 1, 3), haar_tuple(rng, 2))


def test_invert_is_involution():
    rng = np.random.default_rng(1)
    t = haar_tuple(rng, 3)
    m = NielsenMove("invert", 1)
    back = apply_move(m, apply_move(m, t))
    assert max(distance(a, b) for a, b in zip(t, back)) < 1e-12


def test_swap_is_involution():
    rng = np.random.default_rng(2)
    t = haar_tuple(rng, 3)
    m = NielsenMove("swap", 1, 3)
    back = apply_move(m, apply_move(m, t))
    assert max(distance(a, b) for a, b in zip(t, back)) == 0.0


def test_rmul_matches_matrix_product():
    rng = np.random.default_rng(3)
    t = haar_tuple(rng, 2)
    out = apply_move(NielsenMove("rmul", 1, 2), t)
    assert np.max(np.abs(out[0].matrix() - t[0].matrix() @ t[1].matrix())) < 1e-12
    assert distance(out[1], t[1]) == 0.0
    out = apply_move(NielsenMove("lmul", 1, 2), t)
    assert np.max(np.abs(out[0].matrix() - t[1].matrix() @ t[0].matrix())) < 1e-12


def test_basis_words_of_single_moves():
    words = move_to_basis_words((NielsenMove("rmul", 1, 2),), 2)
    assert [list(w) for w in words] == [[1, 2], [2]]
    words = move_to_basis_words((NielsenMove("lmul", 2, 1),), 3)
    assert [list(w) for w in words] == [[1], [1, 2], [3]]
    seq = (NielsenMove("invert", 1), NielsenMove("invert", 1))
    assert [list(w) for w in move_to_basis_words(seq, 2)] == [[1], [2]]


def test_words_track_the_tuple_action():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(2, 4))
        t = haar_tuple(rng, n)
        seq = random_walk(rng, n, 10)
        moved = apply_sequence(seq, t)
        words = move_to_basis_words(seq, n)
        for w, g in zip(words, moved):
            assert distance(word_eval(w, t), g) < 1e-10


def test_inverse_sequence_inverts():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 4))
        t = haar_tuple(rng, n)
        seq = random_walk(rng, n, 6)
        back = apply_sequence(inverse_sequence(seq), apply_sequence(seq, t))
        assert max(distance(a, b) for a, b in zip(t, back)) < 1e-10


def test_word_length_bound_examples():
    assert word_length_bound((), 2) == 1
    assert word_length_bound((NielsenMove("rmul", 1, 2),), 2) == 2
    assert word_length_bound((NielsenMove("swap", 1, 2),), 2) == 1
    assert word_length_bound((NielsenMove("invert", 2),), 2) == 1


def test_word_length_bound_submultiplicative():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(2, 4))
        s1 = random_walk(rng, n, int(rng.integers(0, 4)))
        s2 = random_walk(rng, n, int(rng.integers(0, 4)))
        l1, l2 = word_length_bound(s1, n), word_length_bound(s2, n)
        assert word_length_bound(s1 + s2, n) <= l1 * l2


def test_word_budget_aborts_pathological_sequences():
    # alternating multiplications grow image lengths like Fibonacci numbers
    moves = tuple(
        NielsenMove("rmul", 1 + s % 2, 2 - s % 2) for s in range(60)
    )
    with pytest.raises(WordLengthError):
        move_to_basis_words(moves, 2)


def test_random_walk_deterministic_and_sized():
    assert len(random_walk(np.random.default_rng(7), 2, 0)) == 0
    a = random_walk(np.random.default_rng(8), 3, 50)
    b = random_walk(np.random.default_rng(8), 3, 50)
    assert a == b


def test_random_walk_uniform_over_alphabet():
    rng = np.random.default_rng(9)
    n, draws = 2, 10 ** 5
    alphabet = move_alphabet(n)
    counts = {m: 0 for m in alphabet}
    for m in random_walk(rng, n, draws):
        counts[m] += 1
    p = 1.0 / len(alphabet)
    sigma = math.sqrt(draws * p * (1.0 - p))
    for m, c in counts.items():
        assert abs(c - draws * p) <= 3.0 * sigma, (m, c)


@pytest.mark.parametrize("kind,i,j", [
    ("swap", 1, 2), ("invert", 1, None), ("rmul", 1, 2), ("lmul", 1, 2),
])
def test_moves_preserve_haar_quick(kind, i, j):
    rng = np.random.default_rng(10)
    m = NielsenMove(kind, i, j)
    samples = 2 * 10 ** 4
    traces = np.empty(samples)
    for s in range(samples):
        t = haar_tuple(rng, 2)
        traces[s] = trace(apply_move(m, t)[0])
    assert stats.kstest(traces, semicircle_cdf).statistic < 0.02


def test_telescoping_inequality():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 4))
        t = haar_tuple(rng, n)
        k = int(rng.integers(1, 10))
        d = k + 1
        letters = []
        while True:
            cand = int(rng.integers(-n, n + 1))
            if cand == 0:
                continue
            if letters and letters[-1] == -cand:
                continue
            letters.append(cand)
            if len(letters) == 8:
                break
        w = Word(letters)
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        v = v / np.linalg.norm(v)
        lhs = np.linalg.norm(irrep_matrix(k, word_eval(w, t)).entries @ v - v)
        rhs = sum(
            np.linalg.norm(
                irrep_matrix(k, t[abs(l) - 1]).entries @ v - v
            )
            for l in w
        )
        assert lhs <= rhs + 1e-9


def test_generating_set_comparison_lower_bounds():
    rng = np.random.default_rng(12)
    for _ in range(30):
        t = haar_tuple(rng, 2)
        while True:
            seq = random_walk(rng, 2, int(rng.integers(1, 5)))
            L = word_length_bound(seq, 2)
            if L <= 8:
                break
        k = int(rng.integers(1, 10))
        old = level_gap_bounds(t, k)
        new = level_gap_bounds(apply_sequence(seq, t), k)
        assert new.lower >= old.lower / L - 1e-6


def test_gap_proxy_stability_under_moves():
    rng = np.random.default_rng(13)
    for _ in range(6):
        t = haar_tuple(rng, 2)
        seq = random_walk(rng, 2, 3)
        L = word_length_bound(seq, 2)
        before = lambda1_estimate(t, 15).gap_proxy
        after = lambda1_estimate(apply_sequence(seq, t), 15).gap_proxy
        assert after >= before / (2.0 * L * L) - 1e-6
