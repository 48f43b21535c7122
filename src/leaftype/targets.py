"""The three exact holonomy target groups and representations into them.

Circle elements are exp(2*pi*i*x) with x an ExponentScalar, stored as
integer coordinates over the one lattice (CircleBasis) of their
representation, with the rational constant reduced mod 1, so composing them
is an integer tuple add and equal elements are equal tuples.
Moebius elements are projective 2x2 matrices over the Gaussian rationals,
stored as eight integer parts over one positive denominator in a canonical
scaling, so composing them and testing their order is integer arithmetic
with no Fraction. Permutations realize finite deck groups. Each target
knows how to compose, invert, test identity and compute exact element
orders. Elements are their own dict and set keys; key() strings are for
export and messages.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, neg
from typing import Dict, Iterable, Mapping, Sequence, Tuple, Union

from .scalars import ExponentScalar, GaussianRational, rational_matrix_rank
from .words import Letter, SurfacePresentation, Word

Order = Union[int, str]
INFINITE: str = "infinite"


class CircleElement:
    """exp(2*pi*i*x) for an exponent x, as integer coordinates in a CircleBasis.

    c is the numerator of x's real constant over the basis denominator D,
    reduced mod D; vec holds the numerators of the other directions. So
    compose is a tuple add and one mod, inverse a negation, and equality and
    hashing are the tuple's own. Elements of two different bases do not
    compare or compose: that raises ValueError. Construct through of(),
    identity(), CircleBasis.element() or the group operations.
    """

    __slots__ = ("basis", "c", "vec")

    def __init__(self, basis: "CircleBasis", c: int, vec: Tuple[int, ...]):
        self.basis = basis
        self.c = c
        self.vec = vec

    def __eq__(self, other) -> bool:
        if not isinstance(other, CircleElement):
            return NotImplemented
        if other.basis is not self.basis:
            self.basis.check_same(other.basis)
        return self.c == other.c and self.vec == other.vec

    def __hash__(self) -> int:
        return hash((self.c, self.vec))

    def __repr__(self) -> str:
        return "CircleElement(%s)" % self.key()

    @staticmethod
    def of(exponent: ExponentScalar) -> "CircleElement":
        """The element of exponent, in a basis of its own."""
        return CircleBasis.of([exponent]).element(exponent)

    @staticmethod
    def identity() -> "CircleElement":
        return _CIRCLE_EMPTY_BASIS.identity

    def compose(self, other: "CircleElement") -> "CircleElement":
        basis = self.basis
        if other.basis is not basis:
            basis.check_same(other.basis)
        return CircleElement(basis, (self.c + other.c) % basis.den, tuple(map(add, self.vec, other.vec)))

    def inverse(self) -> "CircleElement":
        return CircleElement(self.basis, -self.c % self.basis.den, tuple(map(neg, self.vec)))

    @property
    def is_identity(self) -> bool:
        return not self.c and not any(self.vec)

    def order(self) -> Order:
        """Exact order: the reduced denominator for rational exponents.

        Symbolic or imaginary content forces infinite order, by the declared
        Q-independence of the symbol basis (nonzero imaginary part even gives
        a multiplier off the unit circle).
        """
        if any(self.vec):
            return INFINITE
        return self.basis.den // gcd(self.c, self.basis.den)

    @property
    def exponent(self) -> ExponentScalar:
        """The exponent, with its real constant in [0, 1)."""
        den = self.basis.den
        coords = {d: Fraction(v, den) for d, v in zip(self.basis.dirs, self.vec) if v}
        return ExponentScalar(
            Fraction(self.c, den),
            tuple((s, q) for (part, s), q in coords.items() if part == "re"),
            coords.get(("im", ""), Fraction(0)),
            tuple((s, q) for (part, s), q in coords.items() if part == "im" and s),
        )

    def key(self) -> str:
        return "circ[%s]" % self.exponent.key()


class CircleBasis:
    """The integer lattice that the circle elements of one representation share.

    den is a common denominator D of every coordinate, and dirs the sorted
    coordinate directions other than the real constant: ("im", "") for the
    imaginary constant, ("im", s) and ("re", s) for the parts of symbol s, as
    ExponentScalar.coordinates_mod_one names them. Two bases are the same
    lattice when den and dirs agree.
    """

    __slots__ = ("den", "dirs", "identity")

    def __init__(self, den: int, dirs: Tuple[Tuple[str, str], ...]):
        self.den = den
        self.dirs = dirs
        self.identity = CircleElement(self, 0, (0,) * len(dirs))

    @staticmethod
    def of(exponents: Iterable[ExponentScalar]) -> "CircleBasis":
        """The smallest basis holding every given exponent."""
        dens = [1]
        dirs = set()
        for x in exponents:
            dens.append(x.real_const.denominator)
            for d, q in x.coordinates_mod_one().items():
                dirs.add(d)
                dens.append(q.denominator)
        return CircleBasis(lcm(*dens), tuple(sorted(dirs)))

    @staticmethod
    def spanning(bases: Iterable["CircleBasis"]) -> "CircleBasis":
        """The smallest basis that every given basis embeds in."""
        bases = list(bases)
        dirs = {d for b in bases for d in b.dirs}
        return CircleBasis(lcm(1, *(b.den for b in bases)), tuple(sorted(dirs)))

    def rebase(self, e: CircleElement) -> CircleElement:
        """e in this basis, which must contain e's basis (see spanning)."""
        scale = self.den // e.basis.den
        coords = dict(zip(e.basis.dirs, e.vec))
        return CircleElement(self, e.c * scale, tuple(coords.get(d, 0) * scale for d in self.dirs))

    def check_same(self, other: "CircleBasis") -> None:
        if self.den != other.den or self.dirs != other.dirs:
            raise ValueError(
                "circle elements of different bases: denominator %d over %s "
                "against %d over %s" % (self.den, self.dirs, other.den, other.dirs)
            )

    def element(self, x: ExponentScalar) -> CircleElement:
        """exp(2*pi*i*x); ValueError if x does not lie in this lattice."""
        den = self.den
        coords = x.coordinates_mod_one()
        scaled = [x.real_const * den] + [coords.pop(d, Fraction(0)) * den for d in self.dirs]
        if coords or any(q.denominator != 1 for q in scaled):
            raise ValueError("exponent %s does not lie in the circle basis" % x.key())
        c, *vec = (q.numerator for q in scaled)
        return CircleElement(self, c % den, tuple(vec))


_CIRCLE_EMPTY_BASIS = CircleBasis(1, ())


class MoebiusElement:
    """An element of PSL(2, C) with Gaussian-rational entries.

    Stored as one canonical tuple of nine ints, parts = (ar, ai, br, bi, cr,
    ci, dr, di, den): entry a is (ar + ai*i)/den, and so on. den > 0, the
    nine ints have gcd 1, and the first nonzero entry in (a, b, c, d) order
    is den + 0i. That is the matrix divided through by its first nonzero
    entry, so equality is a tuple comparison. Order, parabolicity and the
    ping-pong certificate read the trace and determinant of the integer
    numerator matrix, which the denominator does not affect projectively.
    Construct through of(), identity() or the group operations; the
    constructor takes parts that are already canonical.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Tuple[int, ...]):
        self.parts = parts

    @staticmethod
    def of(a, b, c, d) -> "MoebiusElement":
        entries = [v if isinstance(v, GaussianRational) else GaussianRational.of(v) for v in (a, b, c, d)]
        den = lcm(*(x.denominator for e in entries for x in (e.re, e.im)))
        ints = [x.numerator * (den // x.denominator) for e in entries for x in (e.re, e.im)]
        ar, ai, br, bi, cr, ci, dr, di = ints
        # ad == bc, in real and imaginary parts
        if ar * dr - ai * di == br * cr - bi * ci and ar * di + ai * dr == br * ci + bi * cr:
            raise ValueError("matrix is singular: determinant vanishes")
        return _moebius_from_matrix(*ints)

    @staticmethod
    def identity() -> "MoebiusElement":
        return _MOEBIUS_IDENTITY

    def compose(self, other: "MoebiusElement") -> "MoebiusElement":
        # the integer product of the numerator matrices; denominators cancel projectively
        ar, ai, br, bi, cr, ci, dr, di, _ = self.parts
        er, ei, fr, fi, gr, gi, hr, hi, _ = other.parts
        return _moebius_from_matrix(
            ar * er - ai * ei + br * gr - bi * gi,
            ar * ei + ai * er + br * gi + bi * gr,
            ar * fr - ai * fi + br * hr - bi * hi,
            ar * fi + ai * fr + br * hi + bi * hr,
            cr * er - ci * ei + dr * gr - di * gi,
            cr * ei + ci * er + dr * gi + di * gr,
            cr * fr - ci * fi + dr * hr - di * hi,
            cr * fi + ci * fr + dr * hi + di * hr,
        )

    def inverse(self) -> "MoebiusElement":
        ar, ai, br, bi, cr, ci, dr, di, _ = self.parts
        return _moebius_from_matrix(dr, di, -br, -bi, -cr, -ci, ar, ai)

    @property
    def is_identity(self) -> bool:
        ar, ai, br, bi, cr, ci, dr, di, _ = self.parts
        return not (br or bi or cr or ci) and ar == dr and ai == di

    def __eq__(self, other) -> bool:
        if not isinstance(other, MoebiusElement):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return "MoebiusElement(%s)" % self.key()

    def _trace_det(self) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        """Trace and determinant of the integer numerator matrix, each as
        (real, imaginary). Every test below reads them through a
        scale-invariant ratio, so the denominator cancels."""
        ar, ai, br, bi, cr, ci, dr, di, _ = self.parts
        return (ar + dr, ai + di), (
            ar * dr - ai * di - br * cr + bi * ci,
            ar * di + ai * dr - br * ci - bi * cr,
        )

    @property
    def is_parabolic(self) -> bool:
        (t_re, t_im), (d_re, d_im) = self._trace_det()
        # tr^2 == 4 det
        return not self.is_identity and t_re * t_re - t_im * t_im == 4 * d_re and t_re * t_im == 2 * d_im

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
        (t_re, t_im), (d_re, d_im) = self._trace_det()
        sq_re, sq_im = t_re * t_re - t_im * t_im, 2 * t_re * t_im
        for k, order in ((0, 2), (1, 3), (2, 4), (3, 6)):
            if sq_re == k * d_re and sq_im == k * d_im:  # tr^2 == k det
                return order
        return INFINITE

    def key(self) -> str:
        """mob[a;b;c;d]: each entry as re+imi, each part as str(Fraction) prints it."""
        q = self.parts
        den = q[8]
        if den == 1:
            s = q
        else:
            s = []
            for v in q[:8]:
                g = gcd(v, den)
                s.append(str(v // g) if g == den else "%d/%d" % (v // g, den // g))
        return "mob[%s%s%si;%s%s%si;%s%s%si;%s%s%si]" % (
            s[0], "" if q[1] < 0 else "+", s[1],
            s[2], "" if q[3] < 0 else "+", s[3],
            s[4], "" if q[5] < 0 else "+", s[5],
            s[6], "" if q[7] < 0 else "+", s[7],
        )


def _moebius_from_matrix(ar, ai, br, bi, cr, ci, dr, di) -> MoebiusElement:
    """The canonical element of a nonsingular Gaussian-integer matrix.

    Multiplies every entry by the conjugate of the first nonzero entry z,
    which makes that entry |z|^2 + 0i, takes den = |z|^2 and divides the nine
    ints by their gcd. A real z only needs its sign: the form is unique, so
    the shorter route reaches the same nine ints.
    """
    # a = b = 0 would make the matrix singular, so z is a or b
    zr, zi = (ar, ai) if ar or ai else (br, bi)
    if zi:
        parts = (
            ar * zr + ai * zi, ai * zr - ar * zi,
            br * zr + bi * zi, bi * zr - br * zi,
            cr * zr + ci * zi, ci * zr - cr * zi,
            dr * zr + di * zi, di * zr - dr * zi,
            zr * zr + zi * zi,
        )
    elif zr > 0:
        parts = (ar, ai, br, bi, cr, ci, dr, di, zr)
    else:
        parts = (-ar, -ai, -br, -bi, -cr, -ci, -dr, -di, -zr)
    g = gcd(*parts)
    if g != 1:
        parts = tuple(v // g for v in parts)
    return MoebiusElement(parts)


_MOEBIUS_IDENTITY = MoebiusElement((1, 0, 0, 0, 0, 0, 1, 0, 1))


class PermutationElement:
    """A permutation of {0, ..., d-1} in one-line notation."""

    __slots__ = ("mapping",)

    def __init__(self, mapping: Tuple[int, ...]):
        self.mapping = mapping

    def __eq__(self, other) -> bool:
        if not isinstance(other, PermutationElement):
            return NotImplemented
        return self.mapping == other.mapping

    def __hash__(self) -> int:
        return hash(self.mapping)

    def __repr__(self) -> str:
        return "PermutationElement(%s)" % self.key()

    @staticmethod
    def of(mapping: Sequence[int]) -> "PermutationElement":
        m = tuple(mapping)
        if any(type(x) is not int for x in m) or sorted(m) != list(range(len(m))):
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


class Representation:
    """A homomorphism from a punctured-surface group into one exact target.

    Images are stored for the free generators (all handles plus c_1..c_{n-1});
    the image of c_n is derived from the relation. For closed surfaces the
    product of image commutators must be the identity. Circle images are
    rewritten into one CircleBasis spanning the bases of all the given
    images, so every element the representation yields lives in it.
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
        self.basis: CircleBasis | None = None
        self._images: Dict[str, Element] = {}
        self._letter_images: Dict[Letter, Element] = {}  # filled by evaluate
        given = dict(images)
        if kind == CIRCLE:
            self.basis = CircleBasis.spanning(e.basis for e in given.values())
            given = {g: self.basis.rebase(e) for g, e in given.items()}
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
            supplied, forced = leftover.pop(last), self._images[last]
            if supplied != forced:
                if self.kind == CIRCLE:
                    raise ValueError(
                        "supplied exponent of %s (%s) conflicts with the value the relation "
                        "forces (%s): the puncture exponents must sum to an integer"
                        % (last, _exponent_text(supplied.exponent), _exponent_text(forced.exponent))
                    )
                raise ValueError(
                    "supplied image of %s (%s) conflicts with the value the "
                    "relation forces (%s)" % (last, supplied.key(), forced.key())
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
            return self.basis.identity
        return MoebiusElement.identity()

    def image(self, gen: str) -> Element:
        self.presentation.check_gen(gen)
        return self._images[gen]

    def evaluate(self, word: Word) -> Element:
        """Evaluate homomorphically: letters compose left to right."""
        table = self._letter_images
        acc = self.identity()
        for letter in word.letters:
            el = table.get(letter)
            if el is None:
                el = self._letter_image(*letter)
            acc = acc.compose(el)
        return acc

    def _letter_image(self, gen: str, sign: int) -> Element:
        """The image of a letter (gen, +-1), entered in the table with its inverse."""
        image = self.image(gen)
        self._letter_images[gen, 1] = image
        self._letter_images[gen, -1] = image.inverse()
        return self._letter_images[gen, sign]

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


def _exponent_text(x: ExponentScalar) -> str:
    """A rational exponent as a fraction; any other in its key form."""
    return str(x.rational_value) if x.is_rational else x.key()


def circle_free_rank(elements: Sequence[CircleElement]) -> int:
    """Torsion-free rank of the group generated by circle elements of one basis.

    The group embeds in exponent space modulo the integers; its free rank
    equals the Q-dimension of the span of the exponents in
    (exponent space)/(Q*1), with real-symbol, imaginary-constant and
    imaginary-symbol directions as independent coordinates: the rank of the
    elements' integer vectors.
    """
    for e in elements[1:]:
        elements[0].basis.check_same(e.basis)
    return rational_matrix_rank([e.vec for e in elements])


def ping_pong_free_certificate(e1: MoebiusElement, e2: MoebiusElement) -> bool:
    """Certify that two Moebius elements generate a free group of rank two.

    Matches the unipotent ping-pong pattern up to simultaneous conjugation:
    both elements parabolic with distinct fixed points, and, conjugated to
    [[1, x], [0, 1]] and [[1, 0], [y, 1]], |xy| >= 4 (the balanced form of
    the classical pattern x = y, |x| >= 2). No conjugation is needed: with
    E1, E2 the integer numerator matrices, A_k = 2*E_k/tr(E_k) is the
    trace-2 lift, and tr(A1*A2) = 2 + xy, where xy = 0 exactly when the
    fixed points coincide. With T = tr(E1*E2) and U = tr(E1)*tr(E2) that
    is xy = (4T - 2U)/U, so the test is |2T - U|^2 >= 4|U|^2. False means
    the pattern was not certified, not that the group fails to be free.
    """
    if not (e1.is_parabolic and e2.is_parabolic):
        return False
    ar, ai, br, bi, cr, ci, dr, di, _ = e1.parts
    er, ei, fr, fi, gr, gi, hr, hi, _ = e2.parts
    # T = ae + bg + cf + dh, U = (a + d)(e + h)
    t_re = ar * er - ai * ei + br * gr - bi * gi + cr * fr - ci * fi + dr * hr - di * hi
    t_im = ar * ei + ai * er + br * gi + bi * gr + cr * fi + ci * fr + dr * hi + di * hr
    (p_re, p_im), _ = e1._trace_det()
    (q_re, q_im), _ = e2._trace_det()
    u_re, u_im = p_re * q_re - p_im * q_im, p_re * q_im + p_im * q_re
    v_re, v_im = 2 * t_re - u_re, 2 * t_im - u_im
    return v_re * v_re + v_im * v_im >= 4 * (u_re * u_re + u_im * u_im)


def enumerate_group(
    identity: Element, gens: Sequence[Element], cap: int, radius: int | None = None
) -> Dict[Element, int] | None:
    """Each element within radius of identity, mapped to its word length in
    the gens, in discovery order; None once more than cap elements turn up.

    Breadth-first closure under the generators and their inverses; exact
    because element equality is canonical. The radius defaults to cap, which
    gives the whole group: a group of at most cap elements has diameter below
    cap, and a larger one has more than cap elements within radius cap.
    """
    if cap < 1:
        return None  # not even the identity fits
    if radius is None:
        radius = cap
    # stepping by a trivial image never leaves the vertex
    steps = [h for g in gens if not g.is_identity for h in (g, g.inverse())]
    distances = {identity: 0}
    frontier = [identity]
    d = 0
    while frontier and d < radius:
        d += 1
        nxt = []
        for v in frontier:
            for h in steps:
                w = v.compose(h)
                if w not in distances:
                    if len(distances) >= cap:
                        return None
                    distances[w] = d
                    nxt.append(w)
        frontier = nxt
    return distances


# Finite subgroups of PSL(2, C) with Gaussian-rational entries have order at
# most 24: element orders are restricted to {1,2,3,4,6} by the trace test, so
# only cyclic (<=6), dihedral (<=12), A4 (12) and S4 (24) can occur.
MOEBIUS_FINITE_CAP = 64
# default --budget: the most elements one Cayley ball or one permutation deck
# enumeration may hold
DEFAULT_VERTEX_BUDGET = 10**6


def deck_group_is_finite(
    rep: Representation, vertex_budget: int = DEFAULT_VERTEX_BUDGET
) -> Tuple[bool, int | None]:
    """Decide finiteness of the image group and give its order; exact for all three targets.

    A finite circle image is a finite subgroup of Q/Z, hence cyclic, and its
    order is the lcm of the generator orders; only the other two targets are
    enumerated. A permutation image larger than vertex_budget raises
    BudgetExceededError.
    """
    gens = [rep.image(g) for g in rep.presentation.free_gens]
    if rep.kind == PERMUTATION:
        elements = enumerate_group(rep.identity(), gens, vertex_budget)
        if elements is None:
            raise BudgetExceededError("permutation deck enumeration", vertex_budget)
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
