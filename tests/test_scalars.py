from fractions import Fraction

import pytest

from leaftype.scalars import (
    ExponentScalar,
    GaussianRational,
    as_fraction,
    rational_matrix_rank,
)
from leaftype.targets import CircleElement


class TestGaussianRational:
    def test_field_ops(self):
        x = GaussianRational.of(1, 2)
        y = GaussianRational.of("1/2", "-1/3")
        assert (x + y) - y == x
        assert (x * y) / y == x

    def test_division_exact(self):
        x = GaussianRational.of(-1, -1)
        y = GaussianRational.of(0, 1)
        q = x / y
        assert q == GaussianRational.of(-1, 1)

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            GaussianRational.of(1) / GaussianRational.of(0)

    def test_as_fraction_forms(self):
        assert as_fraction("3/4") == Fraction(3, 4)
        assert as_fraction(2) == Fraction(2)
        with pytest.raises(TypeError):
            as_fraction(0.5)


class TestExponentScalar:
    def test_addition_and_cleanup(self):
        t = ExponentScalar.symbol("t")
        x = t + ExponentScalar.rational(Fraction(1, 2)) - t
        assert x.is_rational
        assert x.rational_value == Fraction(1, 2)

    def test_scale(self):
        t = ExponentScalar.symbol("t", 2)
        assert t.scale(Fraction(1, 2)) == ExponentScalar.symbol("t")

    def test_rational_detection(self):
        assert ExponentScalar.rational(5).rational_value == 5
        assert not ExponentScalar.symbol("t").is_rational
        with pytest.raises(ValueError):
            ExponentScalar.symbol("t").rational_value

    def test_circle_exponent_reduces_mod_one(self):
        x = CircleElement.of(ExponentScalar.rational(Fraction(7, 3))).exponent
        assert x.rational_value == Fraction(1, 3)
        y = CircleElement.of(ExponentScalar.rational(Fraction(-1, 3))).exponent
        assert y.rational_value == Fraction(2, 3)

    def test_imaginary_parts_tracked(self):
        g = GaussianRational.of(Fraction(1, 2), 3)
        x = ExponentScalar.from_gaussian(g)
        assert not x.is_rational
        assert x.imag_const == 3

    def test_keys_are_canonical(self):
        a = ExponentScalar.symbol("t") + ExponentScalar.symbol("u")
        b = ExponentScalar.symbol("u") + ExponentScalar.symbol("t")
        assert a.key() == b.key()


class TestRationalRank:
    def test_rank_examples(self):
        F = Fraction
        assert rational_matrix_rank([]) == 0
        assert rational_matrix_rank([[F(0), F(0)]]) == 0
        assert rational_matrix_rank([[F(1), F(2)], [F(2), F(4)]]) == 1
        assert rational_matrix_rank([[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]]) == 2

    def test_rank_with_fractions(self):
        F = Fraction
        rows = [[F(1, 2), F(1, 3)], [F(1, 4), F(1, 6)]]
        assert rational_matrix_rank(rows) == 1
