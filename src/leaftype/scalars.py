"""Exact scalar arithmetic: Gaussian rationals and symbolic complex exponents.

Everything here is exact. Rational numbers are fractions.Fraction, complex
rationals are pairs of fractions, and irrational residues are formal rational
combinations of named symbols that the caller asserts to be Q-linearly
independent together with 1. Equality is coefficient-wise, so it can be used
for hashing and canonical serialization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Tuple, Union

RationalLike = Union[int, str, Fraction]


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int (not a bool), Fraction or exact decimal/ratio string to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError("zero denominator in %r" % (value,)) from None
    raise TypeError("cannot interpret %r as an exact rational" % (value,))


@dataclass(frozen=True)
class GaussianRational:
    """A complex number a + b*i with rational a, b."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re: RationalLike, im: RationalLike = 0) -> "GaussianRational":
        return GaussianRational(as_fraction(re), as_fraction(im))

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        if other.is_zero:
            raise ZeroDivisionError("division by zero Gaussian rational")
        d = other.re * other.re + other.im * other.im
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def key(self) -> str:
        im = str(self.im)
        sign = "" if im.startswith("-") else "+"
        return "%s%s%si" % (self.re, sign, im)

    def __str__(self) -> str:
        return self.key()


def _clean(items: Iterable[Tuple[str, Fraction]]) -> Tuple[Tuple[str, Fraction], ...]:
    return tuple(sorted((s, c) for s, c in items if c != 0))


@dataclass(frozen=True)
class ExponentScalar:
    """Exact complex scalar: rational constants plus rational symbol combinations.

    Represents  (real_const + sum q_s * s) + i*(imag_const + sum r_s * s)
    where s ranges over declared symbol names. Symbols are asserted, not
    verified, to be Q-linearly independent together with 1; that assertion is
    what makes identity and order tests on circle elements exact.
    """

    real_const: Fraction = Fraction(0)
    real_syms: Tuple[Tuple[str, Fraction], ...] = ()
    imag_const: Fraction = Fraction(0)
    imag_syms: Tuple[Tuple[str, Fraction], ...] = ()

    @staticmethod
    def make(
        real_const: RationalLike = 0,
        real_syms: Mapping[str, RationalLike] | None = None,
        imag_const: RationalLike = 0,
        imag_syms: Mapping[str, RationalLike] | None = None,
    ) -> "ExponentScalar":
        return ExponentScalar(
            as_fraction(real_const),
            _clean((s, as_fraction(c)) for s, c in (real_syms or {}).items()),
            as_fraction(imag_const),
            _clean((s, as_fraction(c)) for s, c in (imag_syms or {}).items()),
        )

    @staticmethod
    def rational(value: RationalLike) -> "ExponentScalar":
        return ExponentScalar.make(real_const=value)

    @staticmethod
    def symbol(name: str, coeff: RationalLike = 1) -> "ExponentScalar":
        return ExponentScalar.make(real_syms={name: coeff})

    @staticmethod
    def from_gaussian(g: GaussianRational) -> "ExponentScalar":
        return ExponentScalar.make(real_const=g.re, imag_const=g.im)

    def __add__(self, other: "ExponentScalar") -> "ExponentScalar":
        rs = dict(self.real_syms)
        for s, c in other.real_syms:
            rs[s] = rs.get(s, Fraction(0)) + c
        ims = dict(self.imag_syms)
        for s, c in other.imag_syms:
            ims[s] = ims.get(s, Fraction(0)) + c
        return ExponentScalar(
            self.real_const + other.real_const,
            _clean(rs.items()),
            self.imag_const + other.imag_const,
            _clean(ims.items()),
        )

    def __neg__(self) -> "ExponentScalar":
        return ExponentScalar(
            -self.real_const,
            tuple((s, -c) for s, c in self.real_syms),
            -self.imag_const,
            tuple((s, -c) for s, c in self.imag_syms),
        )

    def __sub__(self, other: "ExponentScalar") -> "ExponentScalar":
        return self + (-other)

    def scale(self, q: RationalLike) -> "ExponentScalar":
        q = as_fraction(q)
        return ExponentScalar(
            self.real_const * q,
            _clean((s, c * q) for s, c in self.real_syms),
            self.imag_const * q,
            _clean((s, c * q) for s, c in self.imag_syms),
        )

    @property
    def is_zero(self) -> bool:
        return (
            self.real_const == 0
            and not self.real_syms
            and self.imag_const == 0
            and not self.imag_syms
        )

    @property
    def is_rational(self) -> bool:
        """True when the scalar is a plain rational constant."""
        return not self.real_syms and self.imag_const == 0 and not self.imag_syms

    @property
    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("scalar %s is not a rational constant" % (self,))
        return self.real_const

    def coordinates_mod_one(self) -> dict:
        """Coordinates in exponent space modulo the rational line Q*1.

        Keys are ('re', symbol), ('im', '') for the imaginary constant and
        ('im', symbol); the real constant direction is quotiented away.
        """
        coords: dict = {}
        for s, c in self.real_syms:
            coords[("re", s)] = c
        if self.imag_const != 0:
            coords[("im", "")] = self.imag_const
        for s, c in self.imag_syms:
            coords[("im", s)] = c
        return coords

    def key(self) -> str:
        parts = [str(self.real_const)]
        parts.extend("%s*%s" % (c, s) for s, c in self.real_syms)
        parts.append("|")
        parts.append(str(self.imag_const))
        parts.extend("%s*%s" % (c, s) for s, c in self.imag_syms)
        return "+".join(parts)

    def __str__(self) -> str:
        return self.key()


def rational_matrix_rank(rows: list) -> int:
    """Rank over Q of a matrix given as a list of Fraction rows."""
    if not rows:
        return 0
    m = [list(map(Fraction, row)) for row in rows]
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(m)):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col] / pv
                for c in range(col, ncols):
                    m[r][c] -= f * m[rank][c]
        rank += 1
        if rank == len(m):
            break
    return rank
