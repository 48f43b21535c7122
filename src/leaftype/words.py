"""Punctured-surface group presentations, freely reduced words, witness words.

A surface of genus g with n punctures has fundamental group generated by
a_1, b_1, ..., a_g, b_g, c_1, ..., c_n subject to the single relation
[a_1,b_1]...[a_g,b_g] c_1...c_n = 1. For n >= 1 the group is free of rank
2g+n-1 and we treat c_n as an abbreviation for the word the relation forces,
so every computation happens in a free group. For n = 0 the surface relation
is checked on representations instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

Letter = Tuple[str, int]


def _reduce_letters(letters: Iterable[Letter]) -> Tuple[Letter, ...]:
    stack: list = []
    for letter in letters:
        gen, sign = letter
        if sign not in (1, -1):
            raise ValueError("letter sign must be +1 or -1, got %r" % (sign,))
        if stack and stack[-1][0] == gen and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append(tuple(letter))  # tuple() of a tuple is that tuple, so words share letters
    return tuple(stack)


@dataclass(frozen=True)
class Word:
    """A freely reduced word over generator ids."""

    letters: Tuple[Letter, ...] = ()

    @staticmethod
    def from_letters(letters: Iterable[Letter]) -> "Word":
        return Word(_reduce_letters(letters))

    @staticmethod
    def generator(gen: str, power: int = 1) -> "Word":
        if power >= 0:
            return Word(((gen, 1),) * power)
        return Word(((gen, -1),) * -power)

    def __mul__(self, other: "Word") -> "Word":
        # both words are reduced, so letters can cancel only at the junction
        a, b = self.letters, other.letters
        k, m = 0, min(len(a), len(b))
        while k < m and a[-1 - k][0] == b[k][0] and a[-1 - k][1] == -b[k][1]:
            k += 1
        return Word(a[: len(a) - k] + b[k:])

    def inverse(self) -> "Word":
        return Word(tuple((g, -s) for g, s in reversed(self.letters)))

    def __pow__(self, n: int) -> "Word":
        base = self if n >= 0 else self.inverse()
        return Word.from_letters(base.letters * abs(n))

    def __len__(self) -> int:
        return len(self.letters)

    def syllables(self) -> Tuple[Tuple[str, int], ...]:
        """Collapse runs of the same letter into (generator, exponent) pairs."""
        out: list = []
        for gen, sign in self.letters:
            if out and out[-1][0] == gen:
                out[-1][1] += sign
            else:
                out.append([gen, sign])
        return tuple((g, e) for g, e in out)

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return ".".join(
            "%s%s" % (g, "" if e == 1 else "^%d" % e) for g, e in self.syllables()
        )


def commutator(u: Word, v: Word) -> Word:
    return u * v * u.inverse() * v.inverse()


class SurfacePresentation:
    """The pair (g, n) with its canonical generator alphabet.

    Excludes the closed sphere: 2g + n >= 1 is required. Generators a_i, b_i
    come from the 4g-gon edges, the c_j are loops around the punctures. The
    Cayley generating set omits c_n, which the relation determines.
    """

    def __init__(self, genus: int, punctures: int):
        if genus < 0 or punctures < 0:
            raise ValueError("genus and puncture count must be non-negative")
        if 2 * genus + punctures < 1:
            raise ValueError("the closed sphere has trivial fundamental group")
        self.genus = genus
        self.punctures = punctures
        handles = []
        for i in range(1, genus + 1):
            handles.extend(("a%d" % i, "b%d" % i))
        self.handle_gens: Tuple[str, ...] = tuple(handles)
        self.boundary_gens: Tuple[str, ...] = tuple(
            "c%d" % j for j in range(1, punctures + 1)
        )
        self.alphabet: Tuple[str, ...] = self.handle_gens + self.boundary_gens
        # the generators images are given for, and the Cayley generating set: c_n omitted
        self.free_gens: Tuple[str, ...] = self.alphabet[:-1] if punctures else self.handle_gens
        self._gens = frozenset(self.alphabet)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SurfacePresentation)
            and self.genus == other.genus
            and self.punctures == other.punctures
        )

    def __hash__(self) -> int:
        return hash((self.genus, self.punctures))

    def __repr__(self) -> str:
        return "SurfacePresentation(genus=%d, punctures=%d)" % (
            self.genus,
            self.punctures,
        )

    def check_gen(self, gen: str) -> None:
        if gen not in self._gens:
            raise ValueError(
                "unknown generator %r for %r (alphabet %s)"
                % (gen, self, ", ".join(self.alphabet))
            )

    def a(self, i: int) -> str:
        if not 1 <= i <= self.genus:
            raise ValueError("handle index %d out of range" % i)
        return "a%d" % i

    def b(self, i: int) -> str:
        if not 1 <= i <= self.genus:
            raise ValueError("handle index %d out of range" % i)
        return "b%d" % i

    def c(self, j: int) -> str:
        if not 1 <= j <= self.punctures:
            raise ValueError("puncture index %d out of range" % j)
        return "c%d" % j

    def surface_relator(self) -> Word:
        """The full relator [a_1,b_1]...[a_g,b_g] c_1...c_n."""
        handles = zip(self.handle_gens[::2], self.handle_gens[1::2])
        commutators = tuple(x for a, b in handles for x in ((a, 1), (b, 1), (a, -1), (b, -1)))
        return Word(commutators + tuple((gen, 1) for gen in self.boundary_gens))  # reduced as it stands

    def last_boundary_word(self) -> Word:
        """The word c_n abbreviates: the inverse of the relator before it."""
        if self.punctures == 0:
            raise ValueError("no boundary generators on a closed surface")
        return Word(self.surface_relator().letters[:-1]).inverse()


def puncture_pair_witness(
    pres: SurfacePresentation, i: int, j: int, m: int, mprime: int, l: int
) -> Tuple[Word, Word]:
    """Handle-witness cycle pair built from two boundary generators.

    Returns ([c_i^m, c_j^l], [c_i^-m', c_j^l]) on a punctured sphere. When
    both lie in the kernel of the holonomy and the power side conditions
    hold, their lifts in the cover cross an odd number of times.
    """
    if pres.genus != 0:
        raise ValueError("puncture-pair witness requires genus 0")
    if pres.punctures < 3:
        raise ValueError("puncture-pair witness requires at least 3 punctures")
    if i == j:
        raise ValueError("puncture indices must differ")
    if min(m, mprime, l) < 1:
        raise ValueError("exponents must be positive")
    ci = Word.generator(pres.c(i))
    cj = Word.generator(pres.c(j))
    return commutator(ci**m, cj**l), commutator(ci ** (-mprime), cj**l)


def handle_pair_witness(
    pres: SurfacePresentation,
    j: int,
    d: str,
    m: int,
    l: int,
    k: int,
    kprime: int,
    a_torsion: bool = False,
    b_torsion: bool = False,
) -> Tuple[Word, Word]:
    """Handle-witness cycle pair around the j-th handle, with helper letter d.

    gamma1 = a_j^m d^-k a_j^-2m d^k a_j^m and gamma2 = b_j^l d^k' b_j^-2l
    d^-k' b_j^l. When a_j (resp. b_j) has minimal torsion exponent m (resp. l)
    in the kernel, the corresponding cycle degenerates to the plain power.
    """
    if pres.genus < 1:
        raise ValueError("handle-pair witness requires genus >= 1")
    if 2 * pres.genus + pres.punctures < 3:
        raise ValueError("handle-pair witness requires 2g + n >= 3")
    if min(m, l, k, kprime) < 1:
        raise ValueError("exponents must be positive")
    aj, bj = pres.a(j), pres.b(j)
    wa, wb = Word.generator(aj), Word.generator(bj)
    if a_torsion and b_torsion:
        wd = Word()
    else:
        pres.check_gen(d)
        if d in (aj, bj):
            raise ValueError("helper generator must differ from a_j and b_j")
        wd = Word.generator(d)
    if a_torsion:
        gamma1 = wa**m
    else:
        gamma1 = (wa**m) * (wd**-k) * (wa ** (-2 * m)) * (wd**k) * (wa**m)
    if b_torsion:
        gamma2 = wb**l
    else:
        gamma2 = (wb**l) * (wd**kprime) * (wb ** (-2 * l)) * (wd**-kprime) * (wb**l)
    return gamma1, gamma2
