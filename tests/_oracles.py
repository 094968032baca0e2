"""Independent oracle implementations used by the tests.

Everything here is deliberately written against plain arrays or stdlib math,
not against the library's own code paths, so that agreement between the two
is evidence rather than tautology.  The vectorized quaternion arithmetic is
validated against the library in test_group before other tests lean on it.
"""

import math

import numpy as np


def qmul(a, b):
    """Hamilton product on (..., 4) arrays."""
    w1, x1, y1, z1 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    w2, x2, y2, z2 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ],
        axis=-1,
    )


def qconj(a):
    out = -np.asarray(a).copy()
    out[..., 0] = a[..., 0]
    return out


def haar_array(rng, count):
    """count unit quaternions as an (count, 4) array."""
    q = rng.normal(size=(count, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def commutator_traces(rng, count):
    """tr [A, B] for count independent Haar pairs, vectorized."""
    a, b = haar_array(rng, count), haar_array(rng, count)
    comm = qmul(qmul(qmul(a, b), qconj(a)), qconj(b))
    return 2.0 * comm[..., 0]


def symmetric_power_matrix(k, m2):
    """The level-k image of the 2x2 matrix m2 = [[a, b], [c, d]] by expanding
    the substitution (u, v) -> (a u + c v, b u + d v) on the monomials
    u^(k-m) v^m scaled by sqrt(binom(k, m)).

    It is the same matrix as the library's Euler-angle construction but
    shares no code with it.  Its own error grows geometrically with k (about
    1e-11 at k = 40), so it is an oracle at low levels only.
    """
    a, b = complex(m2[0, 0]), complex(m2[0, 1])
    c, d = complex(m2[1, 0]), complex(m2[1, 1])
    sqb = np.sqrt(np.array([math.comb(k, m) for m in range(k + 1)], dtype=float))
    ent = np.empty((k + 1, k + 1), dtype=np.complex128)
    for m in range(k + 1):
        va = np.array(
            [math.comb(k - m, p) * a ** (k - m - p) * c ** p for p in range(k - m + 1)]
        )
        vb = np.array([math.comb(m, q) * b ** (m - q) * d ** q for q in range(m + 1)])
        ent[:, m] = np.convolve(va, vb) * (sqb[m] / sqb)
    return ent


def spin_matrices(k):
    """(J_x, J_y, J_z) for spin k/2 in the basis m = k/2, k/2 - 1, ..., -k/2."""
    j = k / 2.0
    m = j - np.arange(k + 1)
    raise_ = np.zeros((k + 1, k + 1))
    for i in range(1, k + 1):
        raise_[i - 1, i] = math.sqrt(j * (j + 1.0) - m[i] * (m[i] + 1.0))
    jx = 0.5 * (raise_ + raise_.T)
    jy = -0.5j * (raise_ - raise_.T)
    return jx, jy, np.diag(m)


def spin_level_image(q, spin):
    """exp(2 i a (u . J)) for the unit quaternion q = cos(a) + sin(a) u.

    Unitarily equivalent to the level-k image of q, with u . J = V diag(m)
    V^dagger diagonalized numerically and its eigenvalues m = -k/2 .. k/2
    known exactly.
    """
    jx, jy, jz = spin
    k = jz.shape[0] - 1
    q = np.asarray(q, dtype=float)
    s = math.sqrt(float(q[1:] @ q[1:]))
    a = math.atan2(s, float(q[0]))
    u = q[1:] / s if s > 0.0 else np.array([0.0, 0.0, 1.0])
    _, v = np.linalg.eigh(u[0] * jx + u[1] * jy + u[2] * jz)
    m = np.arange(k + 1) - k / 2.0  # eigh returns ascending eigenvalues
    return (v * np.exp(2j * a * m)) @ v.conj().T


def spin_lambda_max_levels(quats, cutoff):
    """lambda_max(sum_i p_i + p_i^dagger) for k = 1..cutoff, with p_i the
    spin-matrix image of the quaternion (w, x, y, z) quats[i].

    The top eigenvalue does not depend on which equivalent model of a level
    is used, nor on the orientation convention of the quaternion units, so
    this agrees with the library's sweep to roundoff at every level while
    sharing none of its code (no Euler angles, no cached rotation basis).
    """
    out = []
    for k in range(1, cutoff + 1):
        spin = spin_matrices(k)
        acc = np.zeros((k + 1, k + 1), dtype=complex)
        for q in quats:
            p = spin_level_image(q, spin)
            acc += p + p.conj().T
        out.append(float(np.linalg.eigvalsh(acc)[-1]))
    return out


def eig_multiset_distance(predicted, computed):
    """Greedy matching distance between two eigenvalue multisets.

    Pairs each computed eigenvalue with its nearest remaining predicted one;
    adequate for tolerances far below the perturbation scale.
    """
    pred = list(np.asarray(predicted, dtype=complex))
    worst = 0.0
    for lam in np.asarray(computed, dtype=complex):
        i = int(np.argmin([abs(lam - p) for p in pred]))
        worst = max(worst, abs(lam - pred.pop(i)))
    return worst


def projective_grid(n_theta, n_phi):
    """Unit vectors (cos t, sin t e^{i p}) covering the projective sphere of
    C^2; global phase is quotiented out by fixing the first coordinate real."""
    th = np.linspace(0.0, np.pi / 2.0, n_theta)
    ph = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    t, p = np.meshgrid(th, ph, indexing="ij")
    return np.stack(
        [np.cos(t).ravel(), (np.sin(t) * np.exp(1j * p)).ravel()], axis=1
    )


def grid_quadratic_min(mats, grid):
    """min over the grid of sum_i ||(M_i - I) v||^2."""
    total = np.zeros(grid.shape[0])
    for m in mats:
        b = m - np.eye(m.shape[0])
        total += (np.abs(grid @ b.T) ** 2).sum(axis=1)
    return float(total.min())


def grid_minmax_min(mats, grid):
    """min over the grid of max_i ||(M_i - I) v||."""
    per = []
    for m in mats:
        b = m - np.eye(m.shape[0])
        per.append(np.sqrt((np.abs(grid @ b.T) ** 2).sum(axis=1)))
    return float(np.max(per, axis=0).min())


def semicircle_cdf_quadrature(t, pieces=262144):
    """CDF of the density (1/2pi) sqrt(4 - s^2) by trapezoid quadrature."""
    s = np.linspace(-2.0, float(t), pieces)
    dens = np.sqrt(np.maximum(4.0 - s * s, 0.0)) / (2.0 * np.pi)
    return float(np.trapezoid(dens, s))


def ks_statistic_vs_cdf(samples, cdf):
    """One-sample Kolmogorov-Smirnov statistic against a callable CDF."""
    xs = np.sort(np.asarray(samples))
    n = xs.size
    cv = cdf(xs)
    upper = np.max(np.arange(1, n + 1) / n - cv)
    lower = np.max(cv - np.arange(0, n) / n)
    return float(max(upper, lower))
