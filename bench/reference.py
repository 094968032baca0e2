"""Independent reference for the sweep check: per-level lambda_max.

The reference builds each level by exact diagonalization instead of gaplab's
symmetric-power expansion.  For a unit quaternion q = cos(a) + sin(a) u with
unit axis u, the level-k image is unitarily equivalent to

    exp(2 i a (u . J)) = V diag(exp(2 i a m)) V^dagger,

where J are the spin-k/2 matrices, u . J = V diag(m) V^dagger and the
eigenvalues m = -k/2 .. k/2 are known exactly.  The top eigenvalue of
A_k = sum_i pi_k(t_i) + pi_k(t_i)^dagger does not depend on which equivalent
model of the level is used, nor on the orientation convention of the
quaternion units, so the two constructions must agree to roundoff.

The Haar tuples are regenerated from the scan's documented per-row stream
(splitmix64 mix of root seed, kind and row index, then four normal draws
per generator), so nothing here imports gaplab.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

_MASK = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def row_seed(root_seed: int, tag: str, index: int) -> int:
    t = int.from_bytes(hashlib.sha256(tag.encode()).digest()[:8], "big")
    return _splitmix64(_splitmix64(_splitmix64(root_seed & _MASK) ^ t) ^ (index & _MASK))


def scan_tuple(root_seed: int, index: int, n: int) -> list[np.ndarray]:
    """The n unit quaternions (w, x, y, z) of row ``index`` of a scan."""
    rng = np.random.default_rng(row_seed(root_seed, "zero_one_scan", index))
    out = []
    for _ in range(n):
        q = rng.normal(size=4)
        out.append(q / math.sqrt(float(q @ q)))
    return out


def _spin_matrices(k: int):
    """(J_x, J_y, J_z) for spin k/2 in the basis m = k/2, k/2 - 1, ..., -k/2."""
    j = k / 2.0
    m = j - np.arange(k + 1)
    raise_ = np.zeros((k + 1, k + 1))
    for i in range(1, k + 1):
        raise_[i - 1, i] = math.sqrt(j * (j + 1.0) - m[i] * (m[i] + 1.0))
    jx = 0.5 * (raise_ + raise_.T)
    jy = -0.5j * (raise_ - raise_.T)
    return jx, jy, np.diag(m)


def level_image(q: np.ndarray, spin) -> np.ndarray:
    """exp(2 i a (u . J)) for the quaternion q at the level of ``spin``."""
    jx, jy, jz = spin
    k = jz.shape[0] - 1
    s = math.sqrt(float(q[1:] @ q[1:]))
    a = math.atan2(s, float(q[0]))
    u = q[1:] / s if s > 0.0 else np.array([0.0, 0.0, 1.0])
    _, v = np.linalg.eigh(u[0] * jx + u[1] * jy + u[2] * jz)
    m = np.arange(k + 1) - k / 2.0  # eigh returns ascending eigenvalues
    return (v * np.exp(2j * a * m)) @ v.conj().T


def lambda_max_levels(quats, cutoff: int) -> list[float]:
    """lambda_max(A_k) for k = 1..cutoff."""
    out = []
    for k in range(1, cutoff + 1):
        spin = _spin_matrices(k)
        acc = np.zeros((k + 1, k + 1), dtype=complex)
        for q in quats:
            p = level_image(q, spin)
            acc += p + p.conj().T
        out.append(float(np.linalg.eigvalsh(acc)[-1]))
    return out
