"""The symmetric group S_n acting as Weyl group of SL_n: lengths, reduced
words, parabolic subgroups and their longest elements.

Permutations are stored in 1-based one-line notation (``oneline[i-1]`` is
the image of i), matching the serialized form.  Simple reflections are
indexed by letters 1..n-1; letter i swaps the values i and i+1 on the
left and the positions i, i+1 on the right.

>>> w0 = longest_element(range(1, 4), 4)
>>> w0.oneline
(4, 3, 2, 1)
>>> length(w0)
6
>>> reduced_word(longest_element([1, 2], 3))
(1, 2, 1)
"""

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class WeylElement:
    """A permutation of {1..n} in one-line notation."""

    oneline: tuple

    def __post_init__(self):
        ol = tuple(int(x) for x in self.oneline)
        if sorted(ol) != list(range(1, len(ol) + 1)):
            raise ValueError(f"not a permutation of 1..{len(ol)}: {ol}")
        object.__setattr__(self, "oneline", ol)

    @classmethod
    def identity(cls, n: int) -> "WeylElement":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def simple(cls, i: int, n: int) -> "WeylElement":
        """The simple reflection s_i (1 <= i <= n-1)."""
        return cls.from_word((i,), n)

    @classmethod
    def from_word(cls, word: Iterable[int], n: int) -> "WeylElement":
        """Product of simple reflections, left to right: letter i swaps
        positions i and i+1 of the one-line notation built so far."""
        ol = list(range(1, n + 1))
        for i in word:
            if not 1 <= i <= n - 1:
                raise ValueError(f"letter out of range 1..{n - 1}: {i}")
            ol[i - 1], ol[i] = ol[i], ol[i - 1]
        return cls(tuple(ol))

    @property
    def n(self) -> int:
        return len(self.oneline)

    def __call__(self, i: int) -> int:
        return self.oneline[i - 1]

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return WeylElement(tuple(self.oneline[other.oneline[i] - 1]
                                 for i in range(self.n)))

    def inverse(self) -> "WeylElement":
        inv = [0] * self.n
        for i, v in enumerate(self.oneline):
            inv[v - 1] = i + 1
        return WeylElement(tuple(inv))

    def is_identity(self) -> bool:
        return all(self.oneline[i] == i + 1 for i in range(self.n))


def length(w: WeylElement) -> int:
    """Coxeter length = inversion count of the one-line notation.

    >>> length(WeylElement((3, 2, 1)))
    3
    """
    ol = w.oneline
    return sum(1 for i in range(len(ol)) for j in range(i + 1, len(ol))
               if ol[i] > ol[j])


def longest_element(J: Iterable[int], n: int) -> WeylElement:
    """Longest element of the parabolic subgroup generated by the letters
    in J: each maximal run of consecutive letters reverses the matching
    block of positions.  J = {1..n-1} gives the full reversal; J = {} the
    identity.
    """
    letters = sorted(set(int(j) for j in J))
    if any(not 1 <= j <= n - 1 for j in letters):
        raise ValueError(f"letters must lie in 1..{n - 1}: {letters}")
    ol = list(range(1, n + 1))
    run_start = None
    prev = None
    for j in letters + [None]:
        if run_start is not None and (j is None or j != prev + 1):
            ol[run_start - 1:prev + 1] = ol[run_start - 1:prev + 1][::-1]
            run_start = None
        if j is not None and run_start is None:
            run_start = j
        prev = j
    return WeylElement(tuple(ol))


def reduced_word(w: WeylElement) -> tuple:
    """The lexicographically smallest reduced word for w: strip the
    smallest left descent i (the value i placed after i+1) while there is
    one.  Stripping s_i swaps the places of the values i and i+1.

    >>> reduced_word(WeylElement((3, 2, 1)))
    (1, 2, 1)
    >>> reduced_word(WeylElement((2, 3, 1)))
    (1, 2)
    """
    place = {v: p for p, v in enumerate(w.oneline)}
    word = []
    while True:
        i = next((k for k in range(1, w.n) if place[k] > place[k + 1]), None)
        if i is None:
            return tuple(word)
        word.append(i)
        place[i], place[i + 1] = place[i + 1], place[i]


def is_reduced(word: Iterable[int], n: int) -> bool:
    word = tuple(word)
    return length(WeylElement.from_word(word, n)) == len(word)


def concat_is_reduced(w1: WeylElement, w2: WeylElement) -> bool:
    """True iff lengths add: length(w1*w2) == length(w1) + length(w2),
    i.e. concatenating reduced words of w1 and w2 stays reduced."""
    return length(w1 * w2) == length(w1) + length(w2)
