"""Averaging operators per level and gap functionals with sandwich bounds.

For an n-tuple t acting at level k, the averaging operator is

    A = sum_i pi_k(t_i) + pi_k(t_i)^dagger,

Hermitian with spectrum in [-2n, 2n]; 2n is attained exactly on vectors fixed
by every pi_k(t_i).  Sweeping k = 1..J and taking the largest eigenvalue
gives the cutoff estimate lambda1_J, a lower bound for the supremum lambda_1
over all levels; gap_proxy = 2n - lambda1_J is the corresponding finite-cutoff
gap measure (nonincreasing in J).

Per level, the identity

    sum_i ||(pi_k(t_i) - I) v||^2 = <(2n I - A) v, v>

sandwiches the definitional min-max gap g_k = min_{|v|=1} max_i ||(pi_k(t_i)
- I) v||:

    sqrt((2n - lambda_max)/n)  <=  g_k  <=  sqrt(2n - lambda_max).

The subgradient optimizer in :func:`minmax_gap_estimate` refines g_k from
above; the bounds, not the optimizer, carry the correctness story.  Its
lambda_max is the sweep's (see below), its first start the top eigenvector
of the complex operator from ``eigh``.

:func:`literal_gap_formula` evaluates the weaker variant

    min_k max_i min_{|v|=1} ||(pi_k(t_i) - I) v||

in which each generator gets its own minimizing vector instead of one vector
challenged by all generators at once.  Every even level contributes 0 there
(each pi_k(t_i) has eigenvalue 1), so the value is 0 for any tuple once the
cutoff reaches 2.  It is kept as a diagnostic of exactly that degeneracy;
the min-max quantities above are the operative gap.

Stacked sweeps
--------------

:func:`lambda1_estimates` sweeps many tuples of one rank at once, level by
level.  The tuples are cut into sub-stacks whose operators hold at most
_STACK_ENTRIES matrix entries, so memory does not grow with the number of
tuples or with the level.  Pairs take the blocks of Pairs below.

For n >= 3 a sub-stack's irreps come from one table of its distinct
elements, told apart by identity (``id``), not by coordinates.  Neighbouring
states of a Nielsen orbit share n - 1 generator objects, and a tuple may
hold one object twice; the table builds each such element once per level,
with one :func:`~gaplab.irreps.irrep_stack` call while the table fits in
_STACK_ENTRIES entries.  The table lists the elements position by position,
in order of first use.  A position whose elements are a contiguous run of
it, as with Haar tuples, which share nothing, reads its term as a view;
any other position gathers its term.  The terms are summed into the
operators in generator order, and one stacked ``eigvalsh`` per sub-stack
gives the top eigenvalues.  The table's layout depends on the sub-stack's
rows alone, so it is worked out once for each cut of the tuples into
sub-stacks, not once per level.  A larger table is built in pieces whose
length is a multiple of the sub-stack's, so the runs of tuples that share
nothing never straddle two pieces, and each piece is built when the first
position that reads it comes up, so that its terms are summed while it is
in cache.  Larger arrays were slower: one call over a three-position table
made the n = 3 sweep at J = 40 about 25% slower, and the cost vanished when
glibc's mmap threshold was raised.  A gather that spans pieces fills its
term piece by piece.  The terms are handed out one at a time, and a piece is
dropped as soon as no later position reads it, so a sweep holds at most the
pieces still to be read, one term and the operators, each of at most
_STACK_ENTRIES entries (one matrix, if that is larger), plus the
temporaries of one sum.  Freeing each piece before the next is built keeps
the allocator reusing the same memory: holding all n pieces to the end made
levels 31 to 60 of an n = 3 sweep of Haar tuples 10 to 18% slower.

Every operation acts matrix by matrix, so each report is bit for bit the one
the tuple gets alone, whatever it shares; :func:`lambda1_estimate` is the
stack of one tuple, and so, for n >= 3, are :func:`averaging_operator` and
the operator of :func:`minmax_gap_estimate`.

Every top eigenvalue comes from dense ``eigvalsh``, stacked here and on one
matrix in :func:`lambda_max`.  Operators have dimension at most MAX_LEVEL + 1
= 201, where a dense solve costs little and is accurate to roundoff; its only
failure is ``numpy.linalg.LinAlgError``, which propagates.  The sweep and
:func:`level_gap_bounds` take each top eigenvalue from one per-level
function, and :func:`minmax_gap_estimate` takes it from there for pairs and
from the same stacked operator otherwise, so ``scan``, ``spectrum``, ``gap``
and ``gap --minmax`` print one value per tuple and level.

Pairs
-----

For n = 2 the top eigenvalue comes from real half-size blocks instead of the
complex d x d operator; larger tuples take the path above.

*Frame.*  The spectrum is invariant under conjugating the pair, so the pair
is first conjugated so that g_1 = cos(theta_1) + sin(theta_1) k lies on the
torus and g_2 has y = 0 and x >= 0.  This frame comes from the coordinates
alone: theta_1 = atan2(s_1, w_1) and, with phi the angle between the two
rotation axes, g_2 = (w_2, s_2 sin phi, 0, s_2 cos phi), where s_i is the
norm of the vector part.  It is computed with ``math``, one pair at a time,
like :class:`~gaplab.irreps.EulerStack`.  A central generator has no axis;
phi = atan2(0, 0) = 0 then puts both generators on the torus.

*Real form.*  In the frame g_2 has the Euler angles beta, alpha = gamma =
mu = arg(A_2) / 2, and arg B_2 = 0.  With P = diag(i^m) and the weights
w_a = k - 2a, the framed pair's P^dagger A_k P is real symmetric:

    A'/2 = diag(cos(w theta_1)) + cos(psi) o (I + R_c) - sin(psi) o R_s,
    psi_ab = (w_a + w_b) mu,

with o the entrywise product, R_c = V diag(cos(beta lambda) - 1) V^T and
R_s = V diag(sin(beta lambda)) V^T for the cached rotation basis V of
:mod:`gaplab.irreps`.  So the build is two real matmuls, and psi, which
depends on a + b alone, takes O(k) cosines and sines instead of O(k^2).

*Split.*  The half-turn j about the common perpendicular (the y axis of the
frame) inverts both generators, so pi_k(j) commutes with A_k.  On the frame
it is the signed antidiagonal S' e_b = (-1)^b e_(k-b), with S'^2 = (-1)^k,
and A' is determined by its rows a <= k/2.  For even k the S' = +1 and
S' = -1 eigenspaces split A' into two real symmetric blocks, of sizes
k/2 + 1 and k/2; the middle vector e_(k/2) belongs to the block of sign
(-1)^(k/2).  For odd k the two eigenspaces S' = +i and -i carry the same
spectrum (Kramers pairs), so one Hermitian block of size (k + 1)/2 gives
every eigenvalue.  Each solve is thus on about half the dimension, in real
arithmetic at even levels.

*Accuracy.*  Over 20 Haar pairs at k = 1..200 the blocks' top eigenvalue
agreed with ``eigvalsh`` of the complex operator to 4.7e-14 or better, and
over 4 of them with an independent spin-matrix construction to 2.1e-14 or
better; the tests require 1e-12.  The identity pair gives exactly 4 at every
level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .group import GroupTuple
from .irreps import (
    MAX_LEVEL,
    EulerStack,
    IrrepLevel,
    _rotation_basis,
    as_level,
    eigen_angles,
    irrep_matrix,  # unused; bench/test_bench.py checks its rebinding here
    irrep_stack,
)

DEFAULT_THRESHOLD = 1e-3

# Matrix entries per sub-stack of a stacked sweep (16 bytes each): 256 KB
# per stacked array, whatever the level; see BENCH_batched_levels.json.
_STACK_ENTRIES = 2 ** 14


@dataclass
class AveragingOperator:
    """The Hermitian operator sum_i pi_k(t_i) + pi_k(t_i)^dagger."""

    level: IrrepLevel
    matrix: np.ndarray
    n: int

    def __post_init__(self):
        self.matrix.setflags(write=False)


@dataclass
class LevelGap:
    """Per-level gap data: lambda_max plus the sandwich bounds, and
    optionally the optimizer's estimate of the min-max gap itself."""

    level: IrrepLevel
    lambda_max: float
    lower: float
    upper: float
    minmax_estimate: float | None = None


@dataclass
class SpectralReport:
    """Cutoff-J aggregate: lambda1_J = max_k lambda_max(k) for k = 1..J.

    lambda1_J is a lower bound for the true supremum over all levels, so
    gap_proxy = 2n - lambda1_J only ever shrinks as J grows.
    """

    cutoff_J: int
    per_level: tuple
    lambda1_J: float
    gap_proxy: float
    n: int


def averaging_operator(t: GroupTuple, level) -> AveragingOperator:
    """Build A = sum_i pi_k(t_i) + pi_k(t_i)^dagger at one level (k >= 1)."""
    level = as_level(level)
    if level.k < 1:
        raise ValueError("averaging operators live on levels k >= 1")
    return AveragingOperator(
        level, _summed(_terms([t])(level, slice(None)))[0], len(t))


def _summed(terms) -> np.ndarray:
    """The averaging operators sum_i term_i + term_i^dagger, in generator
    order."""
    acc = None
    for term in terms:
        if acc is None:
            acc = np.zeros(term.shape, dtype=np.complex128)
        acc += term + term.conj().transpose(0, 2, 1)
        del term  # frees a dropped piece before the next one is built
    return acc


def _terms(tuples):
    """The function (level, rows) -> an iterator over the n terms of the m
    tuples in ``tuples[rows]``: term i holds pi_k of their i-th generators,
    shape (m, d, d).  The irreps come from a table of the distinct elements
    of the m tuples (see Stacked sweeps)."""
    slots: dict = {}  # id(g) -> (index into stack, g)
    cols = [[slots.setdefault(id(g), (len(slots), g))[0] for g in col]
            for col in zip(*(t.elements for t in tuples))]
    stack = EulerStack.of(g for _, g in slots.values())
    layouts: dict = {}  # rows.indices(N) -> layout of their table

    def layout(start: int, stop: int):
        """The table's elements, the rows of the table that each position
        reads, the end of each position's new rows, and the lowest row that
        any later position reads."""
        table: dict = {}  # index into stack -> row of the table
        pos, ends = [], []
        for col in cols:
            pos.append(np.array([table.setdefault(s, len(table))
                                 for s in col[start:stop]], dtype=np.intp))
            ends.append(len(table))
        lows, low = [], len(table)
        for p in reversed(pos):
            lows.append(low)
            low = min(low, int(p.min()))
        index = np.fromiter(table, dtype=np.intp, count=len(table))
        return stack[index], pos, ends, lows[::-1]

    def terms(level: IrrepLevel, rows):
        key = rows.indices(len(tuples))
        if key not in layouts:
            # a sweep cuts the tuples the same way at every level until the
            # step changes, and each cut starts at row 0: keep one cut
            if key[0] == 0:
                layouts.clear()
            layouts[key] = layout(*key[:2])
        elements, pos, ends, lows = layouts[key]
        m, d = len(pos[0]), level.dim
        size = m * max(1, _STACK_ENTRIES // d ** 2 // m)  # rows per piece
        pieces: list = []
        for p, end, start, low in zip(pos, ends, [0, *ends], lows):
            # build the pieces this position reads while they are in cache
            while len(pieces) * size < end:
                lo = len(pieces) * size
                pieces.append(irrep_stack(level, elements[lo:lo + size]))
            first, offset = divmod(start, size)
            if end - start == m and offset + m <= size:
                # every element is new, so p is the run start, ..., end - 1
                yield pieces[first][offset:offset + m]
            elif end <= size:  # p reads the first piece alone
                yield pieces[0][p]
            else:  # gather piece by piece
                term = np.empty((m, d, d), dtype=np.complex128)
                piece, local = np.divmod(p, size)
                for j in range(int(piece.min()), len(pieces)):
                    chosen = piece == j
                    term[chosen] = pieces[j][local[chosen]]
                yield term
            # drop the pieces that no later position reads
            for j in range(low // size):
                pieces[j] = None

    return terms


def lambda_max(a: AveragingOperator) -> float:
    """Largest eigenvalue of the averaging operator (dense ``eigvalsh``)."""
    return float(np.linalg.eigvalsh(a.matrix)[-1])


def _pair_frames(tuples) -> np.ndarray:
    """(theta_1, beta, mu) of every pair's frame, shape (N, 3); see Pairs."""
    frames = []
    for g1, g2 in tuples:
        theta = math.atan2(math.hypot(g1.x, g1.y, g1.z), g1.w)
        cross = math.hypot(g1.y * g2.z - g1.z * g2.y, g1.z * g2.x - g1.x * g2.z,
                           g1.x * g2.y - g1.y * g2.x)
        phi = math.atan2(cross, g1.x * g2.x + g1.y * g2.y + g1.z * g2.z)
        s2 = math.hypot(g2.x, g2.y, g2.z)
        x, z = s2 * math.sin(phi), s2 * math.cos(phi)
        frames.append((theta, math.atan2(x, math.hypot(g2.w, z)),
                       0.5 * math.atan2(z, g2.w)))
    return np.array(frames, dtype=float).reshape(-1, 3)


def _pair_tops(k: int, frames: np.ndarray) -> np.ndarray:
    """lambda_max(A_k) of every pair, from its frame (see Pairs)."""
    theta, beta, mu = frames.T
    half = k // 2 + 1  # rows a <= k/2 of A' determine both blocks
    rows = np.arange(half)
    weights = np.arange(k, -k - 1, -2, dtype=float)
    v = _rotation_basis(k)
    # v's columns ascend in eigenvalue: -k, ..., k = weights[::-1]
    angles = beta[:, None] * weights[::-1]
    rc = (v[:half] * (np.cos(angles) - 1.0)[:, None, :]) @ v.T
    rs = (v[:half] * np.sin(angles)[:, None, :]) @ v.T
    rc[:, rows, rows] += 1.0
    # w_a + w_b = 2k - 2(a + b)
    psi = mu[:, None] * (2.0 * k - 2.0 * np.arange(half + k))
    hankel = rows[:, None] + np.arange(k + 1)
    a = np.cos(psi)[:, hankel] * rc - np.sin(psi)[:, hankel] * rs
    a[:, rows, rows] += np.cos(theta[:, None] * weights[:half])
    # x[m, n] = A'_mn, y[m, n] = (-1)^n A'_m,k-n, for m, n < half
    x = a[:, :, :half]
    y = a[:, :, k:k - half:-1] * (-1.0) ** rows
    if k % 2:
        return 2.0 * np.linalg.eigvalsh(x - 1j * y)[:, -1]
    # e_(k/2) lies in the block of sign (-1)^(k/2), where its row and column
    # are sqrt(2) A'_m,k/2 and its diagonal entry is A'_k/2,k/2
    sign = (-1) ** (half - 1)
    middle = x + sign * y
    middle[:, -1, :] *= math.sqrt(0.5)
    middle[:, :, -1] *= math.sqrt(0.5)
    middle[:, -1, -1] = x[:, -1, -1]
    rest = (x - sign * y)[:, :-1, :-1]
    return 2.0 * np.maximum(np.linalg.eigvalsh(middle)[:, -1],
                            np.linalg.eigvalsh(rest)[:, -1])


def _level_tops(tuples):
    """The function (level, rows) -> lambda_max at that level of every tuple
    in ``tuples[rows]``: the pair blocks for n = 2, the stacked complex
    operators otherwise.  The sweep and :func:`level_gap_bounds` take every
    top eigenvalue from here, :func:`minmax_gap_estimate` those of pairs."""
    n = len(tuples[0])
    if n == 2:
        frames = _pair_frames(tuples)
        return lambda level, rows: _pair_tops(level.k, frames[rows])
    terms = _terms(tuples)
    return lambda level, rows: np.linalg.eigvalsh(
        _summed(terms(level, rows)))[:, -1]


def _level_lambda(t: GroupTuple, level: IrrepLevel) -> float:
    """lambda_max of one tuple at one level (k >= 1), as the sweep gets it."""
    if level.k < 1:
        raise ValueError("averaging operators live on levels k >= 1")
    return float(_level_tops([t])(level, slice(None))[0])


def lambda1_estimates(tuples, cutoff_J: int) -> list[SpectralReport]:
    """Sweep k = 1..cutoff_J for tuples of one rank and report, per tuple,
    lambda1_J = max_k lambda_max.

    Each result is a lower bound for the supremum over all levels.
    """
    if cutoff_J < 1:
        raise ValueError("cutoff_J must be >= 1")
    if cutoff_J > MAX_LEVEL:
        raise ValueError(f"cutoff_J={cutoff_J} exceeds the highest level "
                         f"{MAX_LEVEL}")
    if not tuples:
        return []
    n = len(tuples[0])
    if any(len(t) != n for t in tuples):
        raise ValueError("a stacked sweep needs tuples of one rank")
    tops = _level_tops(tuples)
    per: list[list] = [[] for _ in tuples]
    for k in range(1, cutoff_J + 1):
        level = IrrepLevel(k)
        step = max(1, _STACK_ENTRIES // level.dim ** 2)
        for lo in range(0, len(tuples), step):
            lams = tops(level, slice(lo, lo + step)).tolist()
            for row, lam in zip(per[lo:lo + step], lams):
                row.append((k, lam))
    reports = []
    for row in per:
        lam1 = max(v for _, v in row)
        reports.append(SpectralReport(cutoff_J=cutoff_J, per_level=tuple(row),
                                      lambda1_J=lam1, gap_proxy=2.0 * n - lam1,
                                      n=n))
    return reports


def lambda1_estimate(t: GroupTuple, cutoff_J: int) -> SpectralReport:
    """:func:`lambda1_estimates` for one tuple."""
    return lambda1_estimates([t], cutoff_J)[0]


def per_gen_min_displacement(t: GroupTuple, level) -> list[float]:
    """Entry i is min_{|v|=1} ||(pi_k(t_i) - I) v||, in closed form.

    For a unitary with eigenangles theta this is min over theta of
    2|sin(theta/2)|; no matrix factorization is needed.  At even k every
    entry is 0 (weight-zero eigenvalue 1).
    """
    level = as_level(level)
    if level.k < 1:
        raise ValueError("displacements live on levels k >= 1")
    out = []
    for g in t:
        th = eigen_angles(level, g)
        out.append(float(np.min(2.0 * np.abs(np.sin(0.5 * th)))))
    return out


def literal_gap_formula(t: GroupTuple, cutoff_J: int) -> float:
    """min over k = 1..cutoff_J of max over i of per-generator displacement.

    Identically 0 once cutoff_J >= 2: every even level contributes a zero
    column (see module docstring).  Retained as a diagnostic of exactly that
    phenomenon; use :func:`level_gap_bounds` / :func:`minmax_gap_estimate`
    for the operative per-level gap.
    """
    if cutoff_J < 1:
        raise ValueError("cutoff_J must be >= 1")
    return min(
        max(per_gen_min_displacement(t, k)) for k in range(1, cutoff_J + 1)
    )


def _bounds_from_lambda(lam: float, n: int) -> tuple[float, float]:
    slack = max(2.0 * n - lam, 0.0)
    return math.sqrt(slack / n), math.sqrt(slack)


def level_gap_bounds(t: GroupTuple, level) -> LevelGap:
    """Sandwich bounds for the per-level min-max gap, from lambda_max alone."""
    level = as_level(level)
    lam = _level_lambda(t, level)
    lower, upper = _bounds_from_lambda(lam, len(t))
    return LevelGap(level=level, lambda_max=lam, lower=lower, upper=upper)


def minmax_gap_estimate(t: GroupTuple, level, restarts: int = 16,
                        iters: int = 300) -> LevelGap:
    """Estimate the min-max gap min_{|v|=1} max_i ||(pi_k(t_i) - I) v|| by
    projected subgradient descent with random restarts.

    One start is the top eigenvector of the averaging operator, which already
    satisfies f(v) <= upper; every unit vector satisfies f(v) >= lower, so the
    estimate always lands inside the sandwich.  Deterministic.
    """
    level = as_level(level)
    if level.k < 1:
        raise ValueError("gap estimates live on levels k >= 1")
    if iters < 0:
        raise ValueError("iters must be >= 0")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    d = level.dim
    # the sweep's own operator and lambda_max, from one irrep_stack call
    terms = list(_terms([t])(level, slice(None)))
    acc = _summed(terms)
    ps = [p[0] for p in terms]
    a = acc[0]
    lam = (_level_lambda(t, level) if len(t) == 2
           else float(np.linalg.eigvalsh(acc)[0, -1]))
    lower, upper = _bounds_from_lambda(lam, len(t))
    bs = np.stack(ps) - np.eye(d)
    bhb = np.stack([b.conj().T @ b for b in bs])

    def f_norms(v):
        return np.linalg.norm(bs @ v, axis=1)

    rng = np.random.default_rng(0)
    # a contiguous copy: BLAS rounds a strided column differently
    starts = [np.ascontiguousarray(np.linalg.eigh(a)[1][:, -1])]
    for _ in range(restarts - 1):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        starts.append(v / np.linalg.norm(v))
    best = math.inf
    for v in starts:
        norms = f_norms(v)
        best = min(best, float(np.max(norms)))
        for step in range(iters):
            i = int(np.argmax(norms))
            if norms[i] < 1e-15:
                best = 0.0
                break
            grad = (bhb[i] @ v) / norms[i]
            grad = grad - np.real(np.vdot(v, grad)) * v
            v = v - (0.3 / math.sqrt(step + 1.0)) * grad
            v = v / np.linalg.norm(v)
            norms = f_norms(v)
            best = min(best, float(np.max(norms)))
    return LevelGap(
        level=level, lambda_max=lam, lower=lower, upper=upper,
        minmax_estimate=best,
    )


def pgap_from_report(report: SpectralReport, threshold: float) -> int:
    """1 iff the cutoff gap proxy 2n - lambda1_J of ``report`` exceeds the
    threshold.

    A finite-cutoff stand-in for the gap indicator: the true infimum over
    all levels is not computable at finite J, so outputs are evidence about
    the gapped/ungapped alternative, never a verdict.
    """
    if threshold <= 0.0:
        raise ValueError("threshold must be positive")
    return int(report.gap_proxy > threshold)
