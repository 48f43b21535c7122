import random

import pytest

from leaftype import (
    SurfacePresentation,
    Word,
    commutator,
    handle_pair_witness,
    puncture_pair_witness,
)


def letters(*pairs):
    return list(pairs)


def exponent_sums(word):
    """The nonzero exponent sum of each generator: the word's abelianization."""
    sums = {}
    for gen, sign in word.letters:
        sums[gen] = sums.get(gen, 0) + sign
    return {g: v for g, v in sums.items() if v}


class TestReduce:
    def test_cancellation(self):
        w = Word.from_letters(letters(("a1", 1), ("a1", -1)))
        assert w == Word()

    def test_inner_cancellation(self):
        w = Word.from_letters(letters(("a1", 1), ("b1", 1), ("b1", -1), ("a1", 1)))
        assert w == Word.generator("a1", 2)

    def test_already_reduced(self):
        raw = letters(("c1", 1), ("c2", 1), ("c1", -1))
        assert Word.from_letters(raw).letters == tuple(raw)

    def test_unknown_generator_rejected(self):
        pres = SurfacePresentation(0, 3)
        with pytest.raises(ValueError):
            pres.check_gen("z9")

    def test_idempotent_and_length_nonincreasing(self):
        pres = SurfacePresentation(2, 2)
        rng = random.Random(7)
        alphabet = pres.alphabet
        for _ in range(300):
            raw = [
                (rng.choice(alphabet), rng.choice([1, -1]))
                for _ in range(rng.randrange(0, 14))
            ]
            w = Word.from_letters(raw)
            assert len(w) <= len(raw)
            assert Word.from_letters(w.letters) == w


class TestPresentation:
    def test_sphere_rejected(self):
        with pytest.raises(ValueError):
            SurfacePresentation(0, 0)

    def test_alphabet_layout(self):
        pres = SurfacePresentation(2, 3)
        assert pres.alphabet == ("a1", "b1", "a2", "b2", "c1", "c2", "c3")
        assert pres.free_gens == ("a1", "b1", "a2", "b2", "c1", "c2")

    def test_closed_surface_free_gens(self):
        pres = SurfacePresentation(2, 0)
        assert pres.free_gens == ("a1", "b1", "a2", "b2")

    def test_last_boundary_word(self):
        pres = SurfacePresentation(0, 3)
        assert pres.last_boundary_word() == (
            Word.generator("c1") * Word.generator("c2")
        ).inverse()

    def test_relator_reduces_to_empty_with_substitution(self):
        pres = SurfacePresentation(1, 2)
        a, b, c1 = (Word.generator(gen) for gen in ("a1", "b1", "c1"))
        rel = commutator(a, b) * c1 * pres.last_boundary_word()
        assert rel == Word()


class TestWordAlgebra:
    def test_syllable_length_count(self):
        w = Word.generator("a1", 2) * Word.generator("c1", -3)
        assert w.syllables() == (("a1", 2), ("c1", -3))
        assert len(w) == 5

    def test_inverse_roundtrip(self):
        rng = random.Random(11)
        pres = SurfacePresentation(1, 2)
        for _ in range(100):
            raw = [
                (rng.choice(pres.alphabet), rng.choice([1, -1]))
                for _ in range(rng.randrange(0, 10))
            ]
            w = Word.from_letters(raw)
            assert (w * w.inverse()) == Word()

    def test_product_equals_reduced_concatenation(self):
        # few generators, so products often cancel deep into both words
        rng = random.Random(12)

        def random_word():
            return Word.from_letters(
                (rng.choice(("a1", "b1")), rng.choice([1, -1])) for _ in range(rng.randrange(0, 8))
            )

        cancelled = 0
        for _ in range(500):
            u, v = random_word(), random_word()
            product = u * v
            assert product == Word.from_letters(u.letters + v.letters)
            cancelled += len(product) < len(u) + len(v)
        assert cancelled > 50


class TestPunctureWitness:
    def test_unit_exponents(self):
        pres = SurfacePresentation(0, 3)
        g1, g2 = puncture_pair_witness(pres, 1, 2, 1, 1, 1)
        c1, c2 = Word.generator("c1"), Word.generator("c2")
        assert g1 == commutator(c1, c2)
        assert g2 == commutator(c1.inverse(), c2)

    def test_power_exponents(self):
        pres = SurfacePresentation(0, 3)
        g1, g2 = puncture_pair_witness(pres, 1, 2, 2, 1, 1)
        c1, c2 = Word.generator("c1"), Word.generator("c2")
        assert g1 == commutator(c1**2, c2)
        assert g2 == commutator(c1.inverse(), c2)

    def test_abelianization_vanishes(self):
        pres = SurfacePresentation(0, 4)
        g1, g2 = puncture_pair_witness(pres, 1, 3, 2, 3, 2)
        assert exponent_sums(g1) == {}
        assert exponent_sums(g2) == {}

    def test_preconditions(self):
        with pytest.raises(ValueError):
            puncture_pair_witness(SurfacePresentation(1, 3), 1, 2, 1, 1, 1)
        with pytest.raises(ValueError):
            puncture_pair_witness(SurfacePresentation(0, 2), 1, 2, 1, 1, 1)
        with pytest.raises(ValueError):
            puncture_pair_witness(SurfacePresentation(0, 3), 2, 2, 1, 1, 1)


class TestHandleWitness:
    def test_stated_words_length_six(self):
        pres = SurfacePresentation(2, 0)
        g1, g2 = handle_pair_witness(pres, 1, "a2", 1, 1, 1, 1)
        assert len(g1) == 6
        assert len(g2) == 6
        a1, b1, a2 = (Word.generator(g) for g in ("a1", "b1", "a2"))
        assert g1 == a1 * a2.inverse() * a1**-2 * a2 * a1
        assert g2 == b1 * a2 * b1**-2 * a2.inverse() * b1

    def test_exponent_sums_vanish(self):
        pres = SurfacePresentation(2, 1)
        g1, g2 = handle_pair_witness(pres, 2, "c1", 2, 3, 1, 2)
        assert exponent_sums(g1) == {}
        assert exponent_sums(g2) == {}

    def test_torsion_shortcut(self):
        pres = SurfacePresentation(2, 0)
        g1, g2 = handle_pair_witness(pres, 1, "a2", 3, 1, 1, 1, a_torsion=True)
        assert g1 == Word.generator("a1", 3)
        assert len(g2) == 6
        g1b, g2b = handle_pair_witness(pres, 1, "", 3, 2, 1, 1, a_torsion=True, b_torsion=True)
        assert g1b == Word.generator("a1", 3)
        assert g2b == Word.generator("b1", 2)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            handle_pair_witness(SurfacePresentation(0, 3), 1, "c1", 1, 1, 1, 1)
        with pytest.raises(ValueError):
            handle_pair_witness(SurfacePresentation(1, 0), 1, "b1", 1, 1, 1, 1)
        with pytest.raises(ValueError):
            handle_pair_witness(SurfacePresentation(2, 0), 1, "a1", 1, 1, 1, 1)
