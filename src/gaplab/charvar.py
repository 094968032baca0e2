"""The rank-2 character variety in trace coordinates.

A pair (A, B) in SU(2)^2 maps to the three traces

    x = tr A,   y = tr B,   z = tr AB,

which coordinatize the conjugation quotient.  The commutator trace factors
through them by the Fricke identity

    tr [A, B] = x^2 + y^2 + z^2 - x y z - 2,

and is preserved by every Nielsen move (moves send the commutator to a
conjugate or an inverse, and SU(2) traces see neither).  Its level sets are
therefore invariant fibers of the move dynamics;
:func:`sample_level_set_counted` draws pairs on a fiber by Haar rejection.

Conjugacy classes themselves are parametrized by the trace in [-2, 2] (the
torus coordinate modulo the Weyl flip).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .group import GroupElement, GroupTuple, haar_tuple, inv, mul, trace
from .nielsen import NielsenMove


class LevelSetSamplingError(RuntimeError):
    """Rejection sampling exhausted its budget of ``tries`` draws."""

    def __init__(self, message, tries):
        super().__init__(message)
        self.tries = tries


@dataclass(frozen=True)
class CharPoint:
    """A point (x, y, z) of the trace coordinates.

    Realizable points have every coordinate in [-2, 2] and Fricke value in
    [-2, 2]; both are enforced up to roundoff slack.
    """

    x: float
    y: float
    z: float

    def __post_init__(self):
        for c in (self.x, self.y, self.z):
            if not math.isfinite(c) or abs(c) > 2.0 + 1e-9:
                raise ValueError(f"trace coordinate {c!r} outside [-2, 2]")
        if abs(fricke(self)) > 2.0 + 1e-6:
            raise ValueError(f"point {(self.x, self.y, self.z)} is not realizable")


def trace_coords(t: GroupTuple) -> CharPoint:
    """(tr t1, tr t2, tr t1 t2); invariant under simultaneous conjugation."""
    if len(t) != 2:
        raise ValueError("trace coordinates are defined for pairs only")
    return CharPoint(trace(t[0]), trace(t[1]), trace(mul(t[0], t[1])))


def commutator(t: GroupTuple) -> GroupElement:
    """t1 t2 t1^-1 t2^-1."""
    if len(t) != 2:
        raise ValueError("the commutator invariant is defined for pairs only")
    return mul(mul(mul(t[0], t[1]), inv(t[0])), inv(t[1]))


def commutator_trace(t: GroupTuple) -> float:
    """tr [t1, t2]; the complete move-invariant of the pair's orbit closure."""
    return trace(commutator(t))


def fricke(p: CharPoint) -> float:
    """x^2 + y^2 + z^2 - x y z - 2, the commutator trace in coordinates."""
    return p.x ** 2 + p.y ** 2 + p.z ** 2 - p.x * p.y * p.z - 2.0


def nielsen_on_traces(m: NielsenMove, p: CharPoint) -> CharPoint:
    """The polynomial map induced on (x, y, z) by a rank-2 move.

    Derived from tr(AB) + tr(AB^-1) = tr(A) tr(B); commutes with the
    tuple-level action through trace_coords and preserves the Fricke value.
    """
    m.validate_for(2)
    x, y, z = p.x, p.y, p.z
    if m.kind == "swap":
        return CharPoint(y, x, z)
    if m.kind == "invert":
        return CharPoint(x, y, x * y - z)
    # rmul and lmul with the same indices produce conjugate entries, hence
    # the same trace map
    if m.i == 1:
        return CharPoint(z, y, z * y - x)
    return CharPoint(x, z, x * z - y)


def sample_level_set_counted(target: float, tol: float, rng: np.random.Generator,
                             max_tries: int = 1_000_000) -> tuple[GroupTuple, int]:
    """A Haar pair conditioned on |tr[t1, t2] - target| <= tol, by rejection,
    and the number of tries it took.

    As tol shrinks the accepted distribution converges to the level-set
    measure of the fiber decomposition.  Exhausting the budget raises
    :class:`LevelSetSamplingError`.
    """
    if not (-2.0 < target < 2.0):
        raise ValueError("target must lie in the open interval (-2, 2)")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if max_tries < 1:
        raise ValueError("max_tries must be >= 1")
    for tries in range(1, max_tries + 1):
        t = haar_tuple(rng, 2)
        if abs(commutator_trace(t) - target) <= tol:
            return t, tries
    raise LevelSetSamplingError(
        f"no pair with |tr[a,b] - {target:g}| <= {tol:g} in {max_tries} tries "
        f"(observed acceptance rate 0)",
        tries=max_tries,
    )
