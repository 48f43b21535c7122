"""The three exact holonomy target groups and representations into them.

Circle elements are exp(2*pi*i*x) with x an ExponentScalar, stored with the
rational constant reduced mod 1 so equality is a plain data comparison.
Moebius elements are projective 2x2 matrices over the Gaussian rationals in
a canonical scaling. Permutations realize finite deck groups. Each target
knows how to compose, invert, test identity and compute exact element orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from .scalars import (
    GR_ONE,
    GR_ZERO,
    ExponentScalar,
    GaussianRational,
    rational_matrix_rank,
)
from .words import SurfacePresentation, Word

Order = Union[int, str]
INFINITE: str = "infinite"


@dataclass(frozen=True)
class CircleElement:
    """exp(2*pi*i*exponent); the identity iff the exponent is an integer."""

    exponent: ExponentScalar

    @staticmethod
    def of(exponent: ExponentScalar) -> "CircleElement":
        return CircleElement(exponent.fractional())

    @staticmethod
    def identity() -> "CircleElement":
        return CircleElement(ExponentScalar())

    def compose(self, other: "CircleElement") -> "CircleElement":
        return CircleElement((self.exponent + other.exponent).fractional())

    def inverse(self) -> "CircleElement":
        return CircleElement((-self.exponent).fractional())

    @property
    def is_identity(self) -> bool:
        return self.exponent.is_zero

    def order(self) -> Order:
        """Exact order: the reduced denominator for rational exponents.

        Symbolic or imaginary content forces infinite order, by the declared
        Q-independence of the symbol basis (nonzero imaginary part even gives
        a multiplier off the unit circle).
        """
        if not self.exponent.is_rational:
            return INFINITE
        return self.exponent.rational_value.denominator

    def key(self) -> str:
        return "circ[%s]" % self.exponent.key()


@dataclass(frozen=True)
class MoebiusElement:
    """An element of PSL(2, C) with Gaussian-rational entries.

    Stored in canonical projective form: entries divided through by the
    first nonzero one in (a, b, c, d) order, so equality is entry-wise.
    """

    a: GaussianRational
    b: GaussianRational
    c: GaussianRational
    d: GaussianRational

    @staticmethod
    def of(a, b, c, d) -> "MoebiusElement":
        entries = [_as_gaussian(v) for v in (a, b, c, d)]
        det = entries[0] * entries[3] - entries[1] * entries[2]
        if det.is_zero:
            raise ValueError("matrix is singular: determinant vanishes")
        scale = next(e for e in entries if not e.is_zero)
        if scale != GR_ONE:
            entries = [e / scale for e in entries]
        return MoebiusElement(*entries)

    @staticmethod
    def identity() -> "MoebiusElement":
        return _MOEBIUS_IDENTITY

    def compose(self, other: "MoebiusElement") -> "MoebiusElement":
        return MoebiusElement.of(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MoebiusElement":
        return MoebiusElement.of(self.d, -self.b, -self.c, self.a)

    @property
    def is_identity(self) -> bool:
        return (
            self.b.is_zero
            and self.c.is_zero
            and self.a == self.d
        )

    def det(self) -> GaussianRational:
        return self.a * self.d - self.b * self.c

    def trace_sq_over_det(self) -> GaussianRational:
        t = self.a + self.d
        return (t * t) / self.det()

    @property
    def is_parabolic(self) -> bool:
        four = GaussianRational.of(4)
        return (not self.is_identity) and self.trace_sq_over_det() == four

    def fixed_point(self) -> GaussianRational | None:
        """The unique fixed point of a parabolic element; None encodes infinity."""
        if not self.is_parabolic:
            raise ValueError("fixed_point is defined here for parabolic elements only")
        if self.c.is_zero:
            return None
        return (self.a - self.d) / (self.c + self.c)

    def order(self) -> Order:
        """Exact order via the scale-invariant trace test.

        tr^2/det equals 2 + 2cos(theta) for an elliptic rotation by theta.
        A rational cosine of a rational angle is 0, +-1/2 or +-1 (Niven), so
        over the Gaussian rationals the only finite orders are 1, 2, 3, 4, 6,
        at tr^2/det = 4, 0, 1, 2, 3. Everything else is infinite, including
        parabolics (tr^2/det = 4, not the identity).
        """
        if self.is_identity:
            return 1
        t = self.trace_sq_over_det()
        if not t.is_real:
            return INFINITE
        table = {
            Fraction(0): 2,
            Fraction(1): 3,
            Fraction(2): 4,
            Fraction(3): 6,
        }
        return table.get(t.re, INFINITE)

    def key(self) -> str:
        cached = self.__dict__.get("_key")
        if cached is None:
            cached = "mob[%s;%s;%s;%s]" % (
                self.a.key(),
                self.b.key(),
                self.c.key(),
                self.d.key(),
            )
            object.__setattr__(self, "_key", cached)
        return cached


def _as_gaussian(v) -> GaussianRational:
    if isinstance(v, GaussianRational):
        return v
    return GaussianRational.of(v)


_MOEBIUS_IDENTITY = MoebiusElement(GR_ONE, GR_ZERO, GR_ZERO, GR_ONE)


@dataclass(frozen=True)
class PermutationElement:
    """A permutation of {0, ..., d-1} in one-line notation."""

    mapping: Tuple[int, ...]

    @staticmethod
    def of(mapping: Sequence[int]) -> "PermutationElement":
        m = tuple(mapping)
        if sorted(m) != list(range(len(m))):
            raise ValueError("not a permutation of 0..%d: %r" % (len(m) - 1, m))
        return PermutationElement(m)

    @staticmethod
    def identity_of_degree(d: int) -> "PermutationElement":
        return PermutationElement(tuple(range(d)))

    def compose(self, other: "PermutationElement") -> "PermutationElement":
        # (self o other)(x) = self(other(x))
        return PermutationElement(tuple(self.mapping[i] for i in other.mapping))

    def inverse(self) -> "PermutationElement":
        inv = [0] * len(self.mapping)
        for i, v in enumerate(self.mapping):
            inv[v] = i
        return PermutationElement(tuple(inv))

    @property
    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.mapping))

    def order(self) -> Order:
        seen = [False] * len(self.mapping)
        result = 1
        for i in range(len(self.mapping)):
            if seen[i]:
                continue
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = self.mapping[j]
                length += 1
            result = result * length // gcd(result, length)
        return result

    def key(self) -> str:
        return "perm[%s]" % ",".join(map(str, self.mapping))


Element = Union[CircleElement, MoebiusElement, PermutationElement]

CIRCLE = "circle"
MOEBIUS = "moebius"
PERMUTATION = "permutation"
TARGET_KINDS = (CIRCLE, MOEBIUS, PERMUTATION)


def element_order(e: Element) -> Order:
    """Exact order of a target element; 'infinite' when no power is trivial."""
    return e.order()


def is_identity(e: Element) -> bool:
    return e.is_identity


def element_power(e: Element, n: int) -> Element:
    if n < 0:
        return element_power(e.inverse(), -n)
    acc = type(e).identity() if not isinstance(e, PermutationElement) else PermutationElement.identity_of_degree(len(e.mapping))
    for _ in range(n):
        acc = acc.compose(e)
    return acc


class Representation:
    """A homomorphism from a punctured-surface group into one exact target.

    Images are stored for the free generators (all handles plus c_1..c_{n-1});
    the image of c_n is derived from the relation. For closed surfaces the
    product of image commutators must be the identity.
    """

    def __init__(
        self,
        presentation: SurfacePresentation,
        kind: str,
        images: Mapping[str, Element],
    ):
        if kind not in TARGET_KINDS:
            raise ValueError("unknown target kind %r" % (kind,))
        self.presentation = presentation
        self.kind = kind
        self._images: Dict[str, Element] = {}
        given = dict(images)
        for gen in presentation.free_gens:
            if gen not in given:
                raise ValueError("missing image for generator %r" % (gen,))
            self._images[gen] = given.pop(gen)
        if kind == PERMUTATION:
            degrees = sorted({len(e.mapping) for e in self._images.values()})
            if len(degrees) > 1:
                raise ValueError(
                    "permutation images have different degrees: %s"
                    % ", ".join(map(str, degrees))
                )
        last = None
        if presentation.punctures >= 1:
            last = presentation.boundary_gens[-1]
            self._images[last] = self.evaluate(presentation.last_boundary_word())
        self._check_consistency(given, last)

    def _check_consistency(self, leftover: Dict[str, Element], last: str | None) -> None:
        if last is not None and last in leftover:
            supplied = leftover.pop(last)
            if supplied.key() != self._images[last].key():
                raise ValueError(
                    "supplied image of %s (%s) conflicts with the value the "
                    "relation forces (%s)" % (last, supplied.key(), self._images[last].key())
                )
        if leftover:
            raise ValueError("unexpected generator images: %s" % sorted(leftover))
        if self.presentation.punctures == 0 and self.presentation.genus > 0:
            rel = self.evaluate(self.presentation.surface_relator())
            if not rel.is_identity:
                raise ValueError(
                    "images violate the closed-surface relation: product of "
                    "commutators is %s" % rel.key()
                )

    def identity(self) -> Element:
        if self.kind == PERMUTATION:
            degree = len(next(iter(self._images.values())).mapping) if self._images else 1
            return PermutationElement.identity_of_degree(degree)
        if self.kind == CIRCLE:
            return CircleElement.identity()
        return MoebiusElement.identity()

    def image(self, gen: str) -> Element:
        self.presentation.check_gen(gen)
        return self._images[gen]

    def evaluate(self, word: Word) -> Element:
        """Evaluate homomorphically: letters compose left to right."""
        acc = self.identity()
        for gen, sign in word.letters:
            el = self.image(gen)
            acc = acc.compose(el if sign == 1 else el.inverse())
        return acc

    # -- constructors -----------------------------------------------------

    @staticmethod
    def circle_from_exponents(
        presentation: SurfacePresentation,
        boundary_exponents: Sequence[ExponentScalar],
        handle_exponents: Sequence[ExponentScalar] | None = None,
    ) -> "Representation":
        """Circle representation from per-puncture exponents.

        All n boundary exponents are given; consistency of the last one with
        the relation is checked modulo 1. Handle exponents default to zero.
        """
        n = presentation.punctures
        if len(boundary_exponents) != n:
            raise ValueError(
                "expected %d boundary exponents, got %d" % (n, len(boundary_exponents))
            )
        handle_exponents = handle_exponents or []
        images: Dict[str, Element] = {}
        for idx, gen in enumerate(presentation.handle_gens):
            exp = handle_exponents[idx] if idx < len(handle_exponents) else ExponentScalar()
            images[gen] = CircleElement.of(exp)
        for j, gen in enumerate(presentation.boundary_gens):
            images[gen] = CircleElement.of(boundary_exponents[j])
        return Representation(presentation, CIRCLE, images)

    @staticmethod
    def trivial(presentation: SurfacePresentation, kind: str = CIRCLE, degree: int = 1) -> "Representation":
        if kind == CIRCLE:
            ident: Element = CircleElement.identity()
        elif kind == MOEBIUS:
            ident = MoebiusElement.identity()
        else:
            ident = PermutationElement.identity_of_degree(degree)
        return Representation(
            presentation, kind, {g: ident for g in presentation.free_gens}
        )


def abelian_free_rank(rep: Representation) -> int:
    """Torsion-free rank of the image of a circle representation."""
    if rep.kind != CIRCLE:
        raise ValueError("free rank computation applies to circle targets")
    return circle_free_rank([rep.image(g) for g in rep.presentation.free_gens])


def circle_free_rank(elements: Sequence[CircleElement]) -> int:
    """Torsion-free rank of the group generated by circle elements.

    The group embeds in exponent space modulo the integers; its free rank
    equals the Q-dimension of the span of the exponents in
    (exponent space)/(Q*1), with real-symbol, imaginary-constant and
    imaginary-symbol directions as independent coordinates.
    """
    coords = sorted({key for e in elements for key in e.exponent.coordinates_mod_one()})
    if not coords:
        return 0
    rows = []
    for e in elements:
        c = e.exponent.coordinates_mod_one()
        rows.append([c.get(k, Fraction(0)) for k in coords])
    return rational_matrix_rank(rows)


def ping_pong_free_certificate(e1: MoebiusElement, e2: MoebiusElement) -> bool:
    """Certify that two Moebius elements generate a free group of rank two.

    Matches the unipotent ping-pong pattern up to simultaneous conjugation:
    both elements parabolic with distinct fixed points, and after moving the
    fixed points to infinity and zero the off-diagonal entries x, y satisfy
    |xy| >= 4 (the balanced form of the classical pattern x = y, |x| >= 2).
    False means the pattern was not certified, not that the group fails to
    be free.
    """
    for e in (e1, e2):
        if e.is_identity or not e.is_parabolic:
            return False
    p1, p2 = e1.fixed_point(), e2.fixed_point()
    if p1 == p2:
        return False
    conj = _moebius_sending(p2, p1)
    f1 = conj.compose(e1).compose(conj.inverse())
    f2 = conj.compose(e2).compose(conj.inverse())
    # f1 fixes infinity (upper unipotent), f2 fixes zero (lower unipotent)
    if not (f1.c.is_zero and f1.a == f1.d and not f1.a.is_zero):
        return False
    if not (f2.b.is_zero and f2.a == f2.d and not f2.a.is_zero):
        return False
    x = f1.b / f1.a
    y = f2.c / f2.a
    return (x * y).modulus_sq() >= 16


def _moebius_sending(to_zero: GaussianRational | None, to_inf: GaussianRational | None) -> MoebiusElement:
    """A Moebius map sending to_zero -> 0 and to_inf -> infinity (None = infinity)."""
    if to_inf is None:
        return MoebiusElement.of(GR_ONE, -to_zero, GR_ZERO, GR_ONE)
    if to_zero is None:
        return MoebiusElement.of(GR_ZERO, GR_ONE, GR_ONE, -to_inf)
    return MoebiusElement.of(GR_ONE, -to_zero, GR_ONE, -to_inf)


def enumerate_image_group(rep: Representation, cap: int) -> List[Element] | None:
    """All elements of the image group, sorted by key, or None if it exceeds cap."""
    gens = [rep.image(g) for g in rep.presentation.free_gens]
    seen = enumerate_group(rep.identity(), gens, cap)
    return None if seen is None else [seen[k] for k in sorted(seen)]


def enumerate_group(identity: Element, gens: Sequence[Element], cap: int) -> Dict[str, Element] | None:
    """Key -> element for the group the gens generate, or None if it exceeds cap.

    Breadth-first closure under the generators and their inverses; exact
    because element keys are canonical.
    """
    steps = [h for g in gens if not g.is_identity for h in (g, g.inverse())]
    seen = {identity.key(): identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for v in frontier:
            for h in steps:
                w = v.compose(h)
                if w.key() not in seen:
                    if len(seen) >= cap:
                        return None
                    seen[w.key()] = w
                    nxt.append(w)
        frontier = nxt
    return seen


# Finite subgroups of PSL(2, C) with Gaussian-rational entries have order at
# most 24: element orders are restricted to {1,2,3,4,6} by the trace test, so
# only cyclic (<=6), dihedral (<=12), A4 (12) and S4 (24) can occur.
MOEBIUS_FINITE_CAP = 64


def deck_group_is_finite(rep: Representation, cap: int = 200000) -> Tuple[bool, int | None]:
    """Decide finiteness of the image group and give its order; exact for all three targets.

    A finite circle image is a finite subgroup of Q/Z, hence cyclic, and its
    order is the lcm of the generator orders; only the other two targets are
    enumerated.
    """
    gens = [rep.image(g) for g in rep.presentation.free_gens]
    if rep.kind == PERMUTATION:
        elements = enumerate_group(rep.identity(), gens, cap)
        if elements is None:
            raise BudgetExceededError("permutation deck enumeration", cap)
        return True, len(elements)
    orders = [g.order() for g in gens]
    if INFINITE in orders:
        return False, None
    if rep.kind == CIRCLE:
        return True, lcm(*orders)
    elements = enumerate_group(rep.identity(), gens, MOEBIUS_FINITE_CAP)
    if elements is None:
        return False, None
    return True, len(elements)


class BudgetExceededError(RuntimeError):
    """A configured resource ceiling was hit; names the budget that tripped."""

    def __init__(self, what: str, budget: int):
        super().__init__("%s exceeded the configured budget of %d" % (what, budget))
        self.what = what
        self.budget = budget
