"""Exact SU(2) arithmetic on unit quaternions.

SU(2) is stored as the unit quaternions q = w + x*i + y*j + z*k.  The matrix
view

    M(q) = [[ w + i*z,  x + i*y],
            [-x + i*y,  w - i*z]]

is a group isomorphism onto SU(2) for the Hamilton product, so group
arithmetic runs on four real coordinates and the 2x2 complex matrix is built
only on demand.  Products renormalize once a chain of 32 multiplications has
accumulated (and before every matrix view), which keeps elements on the unit
sphere to machine precision regardless of word length.

The module also provides Haar sampling (four Gaussians projected to the unit
3-sphere, which is rotation invariant by construction), traces and rotation
angles (the trace alone fixes the conjugacy class), evaluation of reduced
free-group words on tuples, and a conjugation normal form for tuples.

Conjugation by h keeps w and turns the vector part (x, y, z) of every entry
of a tuple by the same rotation.  So the normal form reads all vector parts
in one right-handed frame (e1, e2, e3) built from the tuple itself: e3 along
the first non-central entry, e2 along the first part orthogonal to it, and
e1 = e2 x e3 (a reflected frame would not be a conjugation).
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

# Renormalize after this many multiplications have accumulated in a chain.
_RENORM_CHAIN = 32

# Below this vector-part norm an element is treated as central (+-identity)
# by the conjugation normal form, and a part orthogonal to the pivot axis as
# zero; the cut only matters on a Haar-null set.
_DEGENERATE_TOL = 1e-9


class GroupElement:
    """A unit quaternion, i.e. one element of SU(2).

    Coordinates are normalized on construction.  ``_chain`` counts how many
    multiplications separate the stored coordinates from the last explicit
    normalization; it is bookkeeping only and never affects group semantics.
    """

    __slots__ = ("w", "x", "y", "z", "_chain")

    def __init__(self, w: float, x: float, y: float, z: float):
        w, x, y, z = float(w), float(x), float(y), float(z)
        n2 = w * w + x * x + y * y + z * z
        if not math.isfinite(n2) or n2 < 1e-24:
            raise ValueError("quaternion coordinates must be finite and nonzero")
        s = 1.0 / math.sqrt(n2)
        self.w = w * s
        self.x = x * s
        self.y = y * s
        self.z = z * s
        self._chain = 0

    @classmethod
    def _raw(cls, w, x, y, z, chain):
        g = object.__new__(cls)
        g.w = w
        g.x = x
        g.y = y
        g.z = z
        g._chain = chain
        return g

    def coords(self) -> tuple[float, float, float, float]:
        return (self.w, self.x, self.y, self.z)

    def matrix(self) -> np.ndarray:
        """The 2x2 unitary view M(q); renormalized before conversion."""
        n2 = self.w ** 2 + self.x ** 2 + self.y ** 2 + self.z ** 2
        s = 1.0 / math.sqrt(n2)
        w, x, y, z = self.w * s, self.x * s, self.y * s, self.z * s
        return np.array(
            [[complex(w, z), complex(x, y)], [complex(-x, y), complex(w, -z)]]
        )

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return mul(self, other)

    def __repr__(self):
        return f"GroupElement({self.w:.6g}, {self.x:.6g}, {self.y:.6g}, {self.z:.6g})"


def identity() -> GroupElement:
    return GroupElement(1.0, 0.0, 0.0, 0.0)


def mul(g: GroupElement, h: GroupElement) -> GroupElement:
    """Hamilton product g*h, renormalized every ``_RENORM_CHAIN`` factors."""
    w = g.w * h.w - g.x * h.x - g.y * h.y - g.z * h.z
    x = g.w * h.x + g.x * h.w + g.y * h.z - g.z * h.y
    y = g.w * h.y - g.x * h.z + g.y * h.w + g.z * h.x
    z = g.w * h.z + g.x * h.y - g.y * h.x + g.z * h.w
    chain = g._chain + h._chain + 1
    if chain >= _RENORM_CHAIN:
        s = 1.0 / math.sqrt(w * w + x * x + y * y + z * z)
        return GroupElement._raw(w * s, x * s, y * s, z * s, 0)
    return GroupElement._raw(w, x, y, z, chain)


def inv(g: GroupElement) -> GroupElement:
    """Quaternion conjugate; for unit quaternions this is the group inverse."""
    return GroupElement._raw(g.w, -g.x, -g.y, -g.z, g._chain)


def conjugate(h: GroupElement, g: GroupElement) -> GroupElement:
    """h g h^-1."""
    return mul(mul(h, g), inv(h))


def trace(g: GroupElement) -> float:
    """Trace of the matrix view, equal to 2w; real for all of SU(2)."""
    return 2.0 * g.w


def angle(g: GroupElement) -> float:
    """The rotation angle alpha in [0, pi] with 2*cos(alpha) = trace(g)."""
    s = math.sqrt(g.x * g.x + g.y * g.y + g.z * g.z)
    return math.atan2(s, g.w)


def distance(g: GroupElement, h: GroupElement) -> float:
    """Euclidean distance of the quaternion coordinates."""
    return math.sqrt(
        (g.w - h.w) ** 2 + (g.x - h.x) ** 2 + (g.y - h.y) ** 2 + (g.z - h.z) ** 2
    )


class GroupTuple:
    """An ordered n-tuple of SU(2) elements: one point of Hom(F_n, SU(2))."""

    __slots__ = ("elements",)

    def __init__(self, elements):
        elems = tuple(elements)
        if len(elems) < 2:
            raise ValueError("a tuple needs at least 2 elements")
        for g in elems:
            if not isinstance(g, GroupElement):
                raise TypeError("tuple entries must be GroupElement values")
        self.elements = elems

    def __len__(self):
        return len(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self):
        return f"GroupTuple({list(self.elements)!r})"


def conjugate_tuple(h: GroupElement, t: GroupTuple) -> GroupTuple:
    """Simultaneous conjugation (h g1 h^-1, ..., h gn h^-1)."""
    return GroupTuple(conjugate(h, g) for g in t)


# ---------------------------------------------------------------------------
# Haar sampling


def haar_sample(rng: np.random.Generator) -> GroupElement:
    """One Haar-distributed element: four N(0,1) draws projected to S^3."""
    w, x, y, z = rng.normal(size=4)
    return GroupElement(w, x, y, z)


def haar_tuple(rng: np.random.Generator, n: int) -> GroupTuple:
    """An n-tuple of independent Haar samples."""
    return GroupTuple(haar_sample(rng) for _ in range(n))


def semicircle_cdf(t):
    """CDF of the Haar trace distribution, density (1/2pi) sqrt(4 - t^2).

    This is the Weyl-measure pushforward of Haar measure to the trace
    coordinate on [-2, 2].
    """
    t = np.clip(np.asarray(t, dtype=float), -2.0, 2.0)
    return (t / 2.0 * np.sqrt(4.0 - t * t) + 2.0 * np.arcsin(t / 2.0) + np.pi) / (
        2.0 * np.pi
    )


# ---------------------------------------------------------------------------
# Conjugation normal form


def canonical_form(t: GroupTuple) -> GroupTuple:
    """A conjugation normal form for tuples: the same output for the whole
    orbit {h t h^-1} outside a Haar-null degenerate set.

    Conjugation keeps every w and turns every vector part v = (x, y, z) by
    one rotation, so the normal form reads each v in one right-handed frame:
    e3 is the unit axis of the pivot, the first entry with |v| above
    ``_DEGENERATE_TOL``; e2 is the unit direction of the first later part
    v_perp = v - (v.e3) e3 above the same tolerance; e1 = e2 x e3.  The
    pivot becomes exactly (w, 0, 0, |v|), a torus element diag(e^{i a},
    e^{-i a}) with a in [0, pi]; the entry that fixed e2 becomes exactly
    (w, 0, |v_perp|, v.e3); every other entry becomes (w, v.e1, v.e2, v.e3).
    A fully central tuple is returned unchanged, and a tuple on one axis is
    read in a frame that completes e3 from a coordinate axis.
    """
    elems = t.elements
    pivot = next((i for i, g in enumerate(elems)
                  if math.hypot(g.x, g.y, g.z) > _DEGENERATE_TOL), None)
    if pivot is None:
        return t
    p = elems[pivot]
    s = math.hypot(p.x, p.y, p.z)
    ux, uy, uz = p.x / s, p.y / s, p.z / s
    # two coordinate axes follow the later parts: one of them always has a
    # part orthogonal to e3, which completes the frame of a one-axis tuple
    parts = [(g.x, g.y, g.z) for g in elems[pivot + 1:]]
    parts += [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]
    for second, (x, y, z) in enumerate(parts, pivot + 1):
        c = x * ux + y * uy + z * uz
        ox, oy, oz = x - c * ux, y - c * uy, z - c * uz
        r = math.hypot(ox, oy, oz)
        if r > _DEGENERATE_TOL:
            break
    vx, vy, vz = ox / r, oy / r, oz / r
    fx, fy, fz = vy * uz - vz * uy, vz * ux - vx * uz, vx * uy - vy * ux
    # the rotation rounds like one product, so it adds one to _chain
    out = [GroupElement._raw(g.w, g.x * fx + g.y * fy + g.z * fz,
                             g.x * vx + g.y * vy + g.z * vz,
                             g.x * ux + g.y * uy + g.z * uz, g._chain + 1)
           for g in elems]
    out[pivot] = GroupElement(p.w, 0.0, 0.0, s)
    if second < len(elems):
        out[second] = GroupElement(elems[second].w, 0.0, r, c)
    return GroupTuple(out)


def tuple_digest(t: GroupTuple) -> str:
    """A short hex digest of the conjugation orbit of t.

    Coordinates of the canonical form are quantized to 1e-6 before hashing,
    so conjugate tuples collide.
    """
    cf = canonical_form(t)
    parts = []
    for g in cf:
        parts.extend(str(round(c * 1e6)) for c in g.coords())
    return hashlib.sha256(",".join(parts).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Free-group words


class Word:
    """A reduced word in F_n: letters are signed generator indices.

    Construction rejects non-reduced input.
    """

    __slots__ = ("letters",)

    def __init__(self, letters):
        letters = tuple(int(l) for l in letters)
        for l in letters:
            if l == 0:
                raise ValueError("letter indices must be nonzero")
        for a, b in zip(letters, letters[1:]):
            if a == -b:
                raise ValueError(f"word {letters} is not reduced")
        self.letters = letters

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return f"Word({list(self.letters)!r})"


def word_eval(word: Word, t: GroupTuple) -> GroupElement:
    """Evaluate a reduced word on a tuple: the product of t_i or t_i^-1 per
    letter, left to right.  The empty word gives the identity."""
    n = len(t)
    for l in word:
        if abs(l) > n:
            raise ValueError(f"letter {l} out of range for an {n}-tuple")
    g = identity()
    for l in word:
        g = mul(g, t[l - 1] if l > 0 else inv(t[-l - 1]))
    return g
