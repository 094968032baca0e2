"""Irreducible unitary representations of SU(2).

Level k (k = 2*spin, dimension d = k+1) is realized on homogeneous
polynomials of degree k in two complex variables: a group element with matrix
[[a, b], [c, d]] acts by the substitution (u, v) -> (a u + c v, b u + d v),
and the monomials u^(k-m) v^m scaled by sqrt(binom(k, m)) form an orthonormal
basis for the invariant inner product, so the action is unitary and level 1
is the defining 2x2 matrix itself.

Construction
------------

The matrix is built from Euler angles rather than by expanding the
substitution.  With A = w + i z and B = x + i y read off the quaternion,

    g = diag(e^{i alpha}, e^{-i alpha}) R(beta) diag(e^{i gamma}, e^{-i gamma}),
    beta = atan2(|B|, |A|),  alpha + gamma = arg A,  alpha - gamma = arg B,

where R(beta) is the real rotation [[cos, sin], [-sin, cos]].  The torus
factors act diagonally, D_k(phi) = diag(e^{i (k-2m) phi}), so

    pi_k(g) = D_k(alpha) r_k(beta) D_k(gamma).

The generator of r_k is real antisymmetric and tridiagonal; conjugated by
P = diag(i^m) it becomes i T with T real symmetric, off-diagonals
(k-m) sqrt(binom(k, m) / binom(k, m+1)) = sqrt((m+1)(k-m)), and eigenvalues
exactly the weights k - 2m.  With T = V diag(weights) V^T,

    r_k(beta) = P (I + V diag(cos - 1) V^T + i V diag(sin) V^T) P^dagger,

the trigonometric functions taken at beta * weight.  The exact integer
weights are used, never the computed eigenvalues, so the only rounding that
grows with k is V's, and the I + (...) form maps beta = 0 (the identity and
every torus element) to an exactly diagonal matrix, the identity to exactly
I.  This is the exact-diagonalization form of Wigner's d matrix (Feng, Wang,
Yang and Jin, Phys. Rev. E 92, 2015).

Stacks
------

:func:`irrep_stack` builds pi_k for N elements at once, as one (N, d, d)
array: the exponentials, the products with V and the torus factors are each
one numpy operation over the whole stack.  The Euler angles depend on the
element alone, so an :class:`EulerStack` computes them once per element and
every level reuses them.  They are computed with ``math.atan2`` and
``math.hypot``, one element at a time, never with ``np.arctan2`` or
``np.hypot``: numpy's vectorized versions differ from the C library in the
last bit for some inputs, which moves computed eigenvalues by up to about
1e-14, and the matrices would then depend on which path built them.  Every
other operation acts entry by entry or matrix by matrix, so a stack equals
the per-element matrices bit for bit whatever its size.
:func:`irrep_matrix` is the stack of one element for k >= 2; levels 0 and 1
are its exact special cases, which :func:`irrep_stack` takes from it.

Cache
-----

V depends on k alone.  It is computed by one ``eigh`` per level on first use
and kept, read-only, in a per-level cache; nothing is built at import.  The
cache holds d^2 doubles per level used: about 0.6 MB once every level up to
60 has been used, and about 22 MB at most, for every level up to MAX_LEVEL.

Accuracy
--------

Worst entrywise errors over 20 Haar samples per level: the unitarity defect
|pi^dagger pi - I|, the functoriality error |pi(gh) - pi(g) pi(h)|, the trace
against the closed-form character (angles at least 1e-3 from 0 and pi) and
the eigenvalues against the weights.

    k     unitarity  functoriality  trace    eigenvalues
    20    3e-15      5e-15          2e-14    9e-15
    60    2e-15      9e-15          3e-14    2e-14
    200   3e-15      3e-14          9e-14    8e-14

The tests require at most 1e-12, 1e-11, 1e-11 and 1e-11 at k = 60 and at
k = MAX_LEVEL.  MAX_LEVEL is the deepest level those checks cover, not a
limit of the method.

Closed forms
------------

Because every group element is conjugate into the torus, characters and
eigenvalues have closed forms in the rotation angle alpha:

    trace pi_k(g)  = sin((k+1) alpha) / sin(alpha),
    spectrum of pi_k(g) = { e^{i (k - 2m) alpha} : m = 0..k }.

These closed forms are computed independently of the matrix construction and
serve as its cross-checks.  Note every even level has the exponent k - 2m = 0,
i.e. a vector fixed by the whole group image.  Even k is exactly the
sublattice that factors through the rotation group of the 2-sphere (the
kernel contains -1), so sweeps over even levels are spectra of the action on
sphere functions; odd k is the genuinely spinorial part.

Levels carry the Casimir label k(k+2)/4 (the Laplace eigenvalue up to the
metric normalization, which is never fixed here); ordering and truncation use
k alone.  In L^2 of the group each level occurs with multiplicity d, but gap
quantities are identical across copies, so a single copy per level is
computed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .group import GroupElement, angle

# The highest level whose accuracy the tests check (see Accuracy above).
MAX_LEVEL = 200

_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])


@dataclass(frozen=True)
class IrrepLevel:
    """A Peter-Weyl level, indexed by k = 2*spin.

    k = 0 is the trivial representation; it is excluded from all spectral
    sweeps (those concern the complement of the constants) but can be
    constructed for testing.
    """

    k: int
    casimir: float = field(init=False)

    def __post_init__(self):
        if not isinstance(self.k, int) or isinstance(self.k, bool):
            raise TypeError("level index k must be an integer")
        if self.k < 0 or self.k > MAX_LEVEL:
            raise ValueError(f"level index k={self.k} outside [0, {MAX_LEVEL}]")
        object.__setattr__(self, "casimir", self.k * (self.k + 2) / 4.0)

    @property
    def dim(self) -> int:
        return self.k + 1


def as_level(level) -> IrrepLevel:
    """Coerce an int or IrrepLevel to IrrepLevel."""
    if isinstance(level, IrrepLevel):
        return level
    return IrrepLevel(int(level))


@dataclass
class RepMatrix:
    """The (k+1)x(k+1) unitary image of a group element at one level."""

    level: IrrepLevel
    entries: np.ndarray

    def __post_init__(self):
        self.entries.setflags(write=False)


@functools.lru_cache(maxsize=None)
def _rotation_basis(k: int) -> np.ndarray:
    """The real orthogonal V with T = V diag(-k, -k+2, ..., k) V^T, where T
    is the symmetric tridiagonal generator with off-diagonals
    sqrt((m+1)(k-m)).  Read-only, because every caller shares it."""
    m = np.arange(k, dtype=float)
    off = np.sqrt((m + 1.0) * (k - m))
    v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))[1]
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class EulerStack:
    """N group elements and their Euler angles beta, arg A and arg B (see
    Construction), one entry per element; indexing with a slice or an index
    array keeps them in step."""

    elements: np.ndarray  # of GroupElement objects
    beta: np.ndarray
    arg_a: np.ndarray
    arg_b: np.ndarray

    @classmethod
    def of(cls, elements) -> "EulerStack":
        elements = list(elements)
        # every angle is a ratio of coordinates, so the quaternion's norm
        # drops out; math, not numpy, for the reason given under Stacks
        angles = [(math.atan2(math.hypot(g.x, g.y), math.hypot(g.w, g.z)),
                   math.atan2(g.z, g.w), math.atan2(g.y, g.x))
                  for g in elements]
        beta, arg_a, arg_b = np.array(angles, dtype=float).reshape(-1, 3).T
        objects = np.empty(len(elements), dtype=object)
        objects[:] = elements
        return cls(objects, beta, arg_a, arg_b)

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, s) -> "EulerStack":
        return EulerStack(self.elements[s], self.beta[s], self.arg_a[s],
                          self.arg_b[s])


def irrep_stack(level, stack: EulerStack) -> np.ndarray:
    """The matrices pi_k(g) for every g in ``stack``, shape (N, k+1, k+1);
    entry i equals ``irrep_matrix(level, stack.elements[i]).entries`` bit for
    bit."""
    k = as_level(level).k
    if k <= 1:
        return np.stack([irrep_matrix(k, g).entries for g in stack.elements])
    weights = np.arange(k, -k - 1, -2, dtype=float)  # k - 2m, m = 0..k
    v = _rotation_basis(k)
    # v's columns ascend in eigenvalue: -k, ..., k = weights[::-1]
    phases = np.exp(1j * stack.beta[:, None] * weights[::-1]) - 1.0
    rot = (v * phases[:, None, :]) @ v.T
    diag = np.arange(k + 1)
    rot[:, diag, diag] += 1.0
    i_pow = np.resize(_I_POWERS, k + 1)  # P = diag(i^m)
    arg_a, arg_b = stack.arg_a[:, None], stack.arg_b[:, None]
    left = i_pow * np.exp(0.5j * (arg_a + arg_b) * weights)
    right = i_pow.conj() * np.exp(0.5j * (arg_a - arg_b) * weights)
    return left[:, :, None] * rot * right[:, None, :]


def irrep_matrix(level, g: GroupElement) -> RepMatrix:
    """The matrix of g on degree-k polynomials, in the orthonormal monomial
    basis.  Functorial: irrep_matrix(k, g h) = irrep_matrix(k, g) @
    irrep_matrix(k, h) up to roundoff; level 1 is g.matrix() itself, and the
    identity maps to exactly I at every level.
    """
    level = as_level(level)
    if level.k == 0:
        return RepMatrix(level, np.ones((1, 1), dtype=np.complex128))
    if level.k == 1:
        return RepMatrix(level, g.matrix())
    return RepMatrix(level, irrep_stack(level, EulerStack.of([g]))[0])


def character(level, g: GroupElement) -> float:
    """trace(pi_k(g)) via the closed form sin((k+1) a)/sin(a).

    Kept independent of the matrix construction on purpose: it is the
    validation oracle for :func:`irrep_matrix`.  At a in {0, pi} the limit
    values (k+1) and (k+1)(-1)^k are used.
    """
    k = as_level(level).k
    a = angle(g)
    if min(a, math.pi - a) < 1e-8:
        return float(k + 1) if a < 0.5 * math.pi else float((k + 1) * (-1) ** k)
    return math.sin((k + 1) * a) / math.sin(a)


def eigen_angles(level, g: GroupElement) -> np.ndarray:
    """Arguments of the eigenvalues of pi_k(g): the weights (k - 2m) * alpha
    for m = 0..k.  Even k always contains the weight 0, i.e. eigenvalue 1."""
    level = as_level(level)
    a = angle(g)
    return a * np.arange(level.k, -level.k - 1, -2, dtype=float)
