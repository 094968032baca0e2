"""Nielsen moves: the automorphism symmetries acting on tuples.

The four elementary move kinds

    swap(i, j)    t_i <-> t_j
    invert(i)     t_i -> t_i^-1
    rmul(i, j)    t_i -> t_i t_j
    lmul(i, j)    t_i -> t_j t_i

generate the automorphism group of F_n.  Applied to tuples in SU(2)^n they
are measure-preserving bijections.  A move sequence is a plain tuple of
:class:`NielsenMove`, applied left to right; on the free group side it is a
substitution sending the basis to new reduced words, computed by
:func:`move_to_basis_words` with eager free reduction.

:func:`word_length_bound` computes the constant of the generating-set
comparison: the longest reduced word needed to express an old generator in
the new generating set (i.e. the inverse substitution's max length L).  A
gap that is at least epsilon for the old set is at least epsilon/L for the
new one, via the telescoping bound ||rho(w) v - v|| <= sum of per-letter
displacements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .group import GroupTuple, Word, inv, mul

KINDS = ("swap", "invert", "rmul", "lmul")

# Substitution composition aborts beyond this many letters per image word.
MAX_WORD_LETTERS = 10_000


class WordLengthError(RuntimeError):
    """A composed substitution exceeded the word length budget."""


@dataclass(frozen=True)
class NielsenMove:
    """One elementary Nielsen move; indices are 1-based."""

    kind: str
    i: int
    j: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown move kind {self.kind!r}")
        if self.i < 1:
            raise ValueError("index i must be >= 1")
        if self.kind == "invert":
            if self.j is not None:
                raise ValueError("invert takes a single index")
        else:
            if self.j is None or self.j < 1:
                raise ValueError(f"{self.kind} needs a second index")
            if self.j == self.i:
                raise ValueError(f"{self.kind} needs distinct indices")

    def validate_for(self, n: int):
        if self.i > n or (self.j is not None and self.j > n):
            raise ValueError(f"move {self} out of range for n={n}")

    def __str__(self):
        if self.kind == "invert":
            return f"invert({self.i})"
        return f"{self.kind}({self.i},{self.j})"


def apply_move(m: NielsenMove, t: GroupTuple) -> GroupTuple:
    """The action of one move on a tuple; all other entries unchanged."""
    m.validate_for(len(t))
    elems = list(t)
    i = m.i - 1
    if m.kind == "swap":
        j = m.j - 1
        elems[i], elems[j] = elems[j], elems[i]
    elif m.kind == "invert":
        elems[i] = inv(elems[i])
    elif m.kind == "rmul":
        elems[i] = mul(elems[i], t[m.j - 1])
    else:  # lmul
        elems[i] = mul(t[m.j - 1], elems[i])
    return GroupTuple(elems)


def apply_sequence(s: tuple[NielsenMove, ...], t: GroupTuple) -> GroupTuple:
    for m in s:
        t = apply_move(m, t)
    return t


def _identity_substitution(n: int) -> list[tuple[int, ...]]:
    return [(i,) for i in range(1, n + 1)]


def _basic_substitution(m: NielsenMove, n: int) -> list[tuple[int, ...]]:
    words = _identity_substitution(n)
    i = m.i - 1
    if m.kind == "swap":
        words[i], words[m.j - 1] = (m.j,), (m.i,)
    elif m.kind == "invert":
        words[i] = (-m.i,)
    elif m.kind == "rmul":
        words[i] = (m.i, m.j)
    else:  # lmul
        words[i] = (m.j, m.i)
    return words


def _expand(word, subst) -> tuple[int, ...]:
    """Substitute each letter by its image word, reducing eagerly."""
    stack: list[int] = []
    for l in word:
        image = subst[l - 1] if l > 0 else tuple(-x for x in reversed(subst[-l - 1]))
        for a in image:
            if stack and stack[-1] == -a:
                stack.pop()
            else:
                stack.append(a)
        if len(stack) > MAX_WORD_LETTERS:
            raise WordLengthError(
                f"substitution image exceeded {MAX_WORD_LETTERS} letters"
            )
    return tuple(stack)


def move_to_basis_words(s: tuple[NielsenMove, ...], n: int) -> list[Word]:
    """Images of the basis (a_1, ..., a_n) under a move sequence, as reduced
    words: the moved tuple's entries are exactly these words evaluated on the
    original tuple."""
    if n < 2:
        raise ValueError("n must be >= 2")
    subst = _identity_substitution(n)
    for mv in s:
        mv.validate_for(n)
        basic = _basic_substitution(mv, n)
        subst = [_expand(w, subst) for w in basic]
    return [Word(w) for w in subst]


def _inverse_moves(m: NielsenMove) -> tuple[NielsenMove, ...]:
    if m.kind in ("swap", "invert"):
        return (m,)
    # (r/l)mul inverts to t_i -> t_j^-1-multiplied form, realized by
    # conjugating the move with invert(j)
    flip = NielsenMove("invert", m.j)
    return (flip, m, flip)


def inverse_sequence(s: tuple[NielsenMove, ...]) -> tuple[NielsenMove, ...]:
    """A move sequence realizing the inverse automorphism."""
    return tuple(mv for m in reversed(s) for mv in _inverse_moves(m))


def word_length_bound(s: tuple[NielsenMove, ...], n: int) -> int:
    """The generating-set comparison constant L: the longest reduced word
    expressing an old generator in the new generators (max image length of
    the inverse substitution).  Submultiplicative under concatenation."""
    words = move_to_basis_words(inverse_sequence(s), n)
    return max(len(w) for w in words)


def move_alphabet(n: int) -> list[NielsenMove]:
    """Every valid move for rank n: unordered swaps, inverts, and ordered
    multiply pairs."""
    moves = [NielsenMove("swap", i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    moves += [NielsenMove("invert", i) for i in range(1, n + 1)]
    for kind in ("rmul", "lmul"):
        moves += [
            NielsenMove(kind, i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if i != j
        ]
    return moves


def random_walk(rng: np.random.Generator, n: int,
                length: int) -> tuple[NielsenMove, ...]:
    """length i.i.d. uniform draws from the move alphabet."""
    if length < 0:
        raise ValueError("length must be >= 0")
    alphabet = move_alphabet(n)
    picks = rng.integers(0, len(alphabet), size=length)
    return tuple(alphabet[i] for i in picks)
