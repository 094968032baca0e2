import math

import numpy as np
import pytest

from gaplab.group import (
    GroupElement,
    angle,
    conjugate,
    haar_sample,
    identity,
    inv,
    mul,
)
from gaplab.irreps import (
    MAX_LEVEL,
    EulerStack,
    IrrepLevel,
    character,
    eigen_angles,
    irrep_matrix,
    irrep_stack,
)

from _oracles import eig_multiset_distance, symmetric_power_matrix


def test_level_fields():
    lv = IrrepLevel(5)
    assert lv.dim == 6
    assert lv.casimir == 5 * 7 / 4.0
    with pytest.raises(ValueError):
        IrrepLevel(-1)
    with pytest.raises(ValueError):
        IrrepLevel(MAX_LEVEL + 1)
    with pytest.raises(TypeError):
        IrrepLevel(2.0)


def test_level_one_is_the_defining_representation():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = haar_sample(rng)
        assert np.array_equal(irrep_matrix(1, g).entries, g.matrix())


def test_level_zero_is_trivial():
    rng = np.random.default_rng(1)
    assert np.array_equal(
        irrep_matrix(0, haar_sample(rng)).entries, np.ones((1, 1))
    )


@pytest.mark.parametrize("k", [0, 1, 2, 7, 60, MAX_LEVEL])
def test_stack_equals_per_element_matrices(k):
    rng = np.random.default_rng(30 + k)
    elements = [haar_sample(rng) for _ in range(9)] + [identity(), inv(identity())]
    stack = EulerStack.of(elements)
    built = irrep_stack(k, stack)
    assert built.shape == (len(elements), k + 1, k + 1)
    for g, p in zip(elements, built):
        assert np.array_equal(p, irrep_matrix(k, g).entries)
    # a slice of the stack builds the same matrices as the whole
    assert np.array_equal(irrep_stack(k, stack[3:7]), built[3:7])


def test_agrees_with_symmetric_power_oracle():
    rng = np.random.default_rng(12)
    for k in [*range(21), 40]:
        tol = 1e-12 if k <= 20 else 1e-9
        for _ in range(10):
            g = haar_sample(rng)
            diff = irrep_matrix(k, g).entries - symmetric_power_matrix(k, g.matrix())
            assert np.max(np.abs(diff)) <= tol, k


def test_identity_is_exact_at_every_level():
    for k in range(MAX_LEVEL + 1):
        assert np.array_equal(irrep_matrix(k, identity()).entries, np.eye(k + 1))
    # the coordinates -0.0 of the inverse turn arg B into -pi
    assert np.array_equal(irrep_matrix(9, inv(identity())).entries, np.eye(10))


def test_torus_elements_are_exactly_diagonal():
    for t in (0.3, 2.0, -1.1, math.pi):
        g = GroupElement(math.cos(t), 0.0, 0.0, math.sin(t))
        for k in (2, 7, 60, MAX_LEVEL):
            p = irrep_matrix(k, g).entries
            assert np.array_equal(p, np.diag(np.diag(p)))
            weights = np.arange(k, -k - 1, -2)
            assert np.max(np.abs(np.diag(p) - np.exp(1j * t * weights))) < 1e-12


@pytest.mark.parametrize("k", [60, MAX_LEVEL])
def test_accuracy_at_high_levels(k):
    # the accuracy the irreps module documents for its deepest levels
    rng = np.random.default_rng(13)
    eye = np.eye(k + 1)
    for _ in range(6):
        g, h = haar_sample(rng), haar_sample(rng)
        p = irrep_matrix(k, g).entries
        assert np.max(np.abs(p.conj().T @ p - eye)) <= 1e-12
        gh = irrep_matrix(k, mul(g, h)).entries
        assert np.max(np.abs(gh - p @ irrep_matrix(k, h).entries)) <= 1e-11
        a = angle(g)
        if min(a, math.pi - a) >= 1e-3:  # the closed form is ill-conditioned at 0, pi
            assert abs(np.trace(p) - character(k, g)) <= 1e-11
        predicted = np.exp(1j * eigen_angles(k, g))
        assert eig_multiset_distance(predicted, np.linalg.eigvals(p)) <= 1e-11


def test_functoriality_k7():
    rng = np.random.default_rng(2)
    for _ in range(200):
        g, h = haar_sample(rng), haar_sample(rng)
        lhs = irrep_matrix(7, mul(g, h)).entries
        rhs = irrep_matrix(7, g).entries @ irrep_matrix(7, h).entries
        assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("k", [1, 2, 3, 8, 19, 40])
def test_unitarity(k):
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = irrep_matrix(k, haar_sample(rng)).entries
        assert np.max(np.abs(p.conj().T @ p - np.eye(k + 1))) < 1e-10


def test_character_dimension_at_identity():
    for k in (0, 1, 4, 17):
        assert character(k, identity()) == k + 1


def test_character_at_minus_identity():
    m1 = GroupElement(-1.0, 0.0, 0.0, 0.0)
    for k in (1, 2, 3, 10):
        assert character(k, m1) == (k + 1) * (-1) ** k


def test_character_level_one_is_trace():
    rng = np.random.default_rng(4)
    for _ in range(100):
        g = haar_sample(rng)
        assert abs(character(1, g) - 2.0 * g.w) < 1e-12


def test_character_closed_form_value():
    # angle 1.0 about the x-axis; chi_4 = sin(5)/sin(1)
    g = GroupElement(math.cos(1.0), math.sin(1.0), 0.0, 0.0)
    assert abs(character(4, g) - (-1.1395809148215086)) < 1e-12
    tr = np.trace(irrep_matrix(4, g).entries)
    assert abs(tr.real - (-1.1395809148215086)) < 1e-9
    assert abs(tr.imag) < 1e-12


@pytest.mark.parametrize("k", [1, 2, 5, 13, 28, 40])
def test_character_identity_against_matrix_trace(k):
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = haar_sample(rng)
        a = math.acos(max(-1.0, min(1.0, g.w)))
        if min(a, math.pi - a) < 1e-3:
            continue
        tr = np.trace(irrep_matrix(k, g).entries)
        assert abs(tr.real - character(k, g)) < 1e-9
        assert abs(tr.imag) < 1e-10


def test_eigen_angles_small_levels():
    rng = np.random.default_rng(6)
    g = haar_sample(rng)
    a = math.atan2(math.sqrt(g.x ** 2 + g.y ** 2 + g.z ** 2), g.w)
    assert np.allclose(eigen_angles(1, g), [a, -a])
    assert np.allclose(eigen_angles(2, g), [2 * a, 0.0, -2 * a])


def test_even_levels_have_exact_weight_zero():
    rng = np.random.default_rng(7)
    for k in (2, 4, 10, 26):
        for _ in range(10):
            th = eigen_angles(k, haar_sample(rng))
            assert np.min(np.abs(np.mod(th + np.pi, 2 * np.pi) - np.pi)) == 0.0


@pytest.mark.parametrize("k", [3, 5, 12])
def test_eigen_angles_match_dense_eigendecomposition(k):
    rng = np.random.default_rng(8)
    for _ in range(20):
        g = haar_sample(rng)
        computed = np.linalg.eigvals(irrep_matrix(k, g).entries)
        predicted = np.exp(1j * eigen_angles(k, g))
        assert eig_multiset_distance(predicted, computed) < 1e-9


def test_conjugation_covariance():
    rng = np.random.default_rng(9)
    for k in (2, 7, 15):
        d = k + 1
        for _ in range(10):
            g, h = haar_sample(rng), haar_sample(rng)
            lhs = irrep_matrix(k, conjugate(h, g)).entries
            ph = irrep_matrix(k, h).entries
            rhs = ph @ irrep_matrix(k, g).entries @ ph.conj().T
            assert np.max(np.abs(lhs - rhs)) < 1e-9 * d


def test_inverse_maps_to_adjoint():
    rng = np.random.default_rng(10)
    for k in (2, 9):
        g = haar_sample(rng)
        lhs = irrep_matrix(k, inv(g)).entries
        rhs = irrep_matrix(k, g).entries.conj().T
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_rep_matrix_is_read_only():
    rng = np.random.default_rng(11)
    p = irrep_matrix(3, haar_sample(rng))
    with pytest.raises(ValueError):
        p.entries[0, 0] = 0.0
