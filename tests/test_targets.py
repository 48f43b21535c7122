import random
from fractions import Fraction

import pytest

from conftest import circle_rep, moebius, rational, symbol

from leaftype import (
    Representation,
    SurfacePresentation,
    Word,
    commutator,
    ping_pong_free_certificate,
)
from leaftype.cli import main
from leaftype.scalars import ExponentScalar, GaussianRational, rational_matrix_rank
from leaftype.targets import (
    CircleBasis,
    CircleElement,
    MoebiusElement,
    PermutationElement,
    circle_free_rank,
    deck_group_is_finite,
    enumerate_group,
)


class TestCircleElement:
    def test_identity_criterion(self):
        assert CircleElement.of(rational(5)).is_identity
        assert not CircleElement.of(rational(1, 2)).is_identity
        assert not CircleElement.of(symbol("t")).is_identity
        imag = ExponentScalar.make(imag_const=Fraction(1, 3))
        assert not CircleElement.of(imag).is_identity

    def test_composition_adds_exponents(self):
        basis = CircleBasis.of([symbol("t"), rational(1, 3)])
        a = basis.element(symbol("t"))
        b = basis.element(rational(1, 3))
        ab = a.compose(b)
        assert ab == basis.element(symbol("t") + rational(1, 3))
        assert ab == b.compose(a)
        assert a.compose(a.inverse()).is_identity

    def test_orders(self):
        assert CircleElement.of(rational(1, 3)).order() == 3
        assert CircleElement.of(rational(5)).order() == 1
        assert CircleElement.of(rational(4, 6)).order() == 3
        assert CircleElement.of(symbol("t")).order() == "infinite"
        imag = ExponentScalar.make(imag_const=1)
        assert CircleElement.of(imag).order() == "infinite"

    def test_order_power_consistency_upto_12(self):
        for q in range(1, 13):
            for p in range(1, q + 1):
                e = CircleElement.of(rational(p, q))
                o = e.order()
                acc = e
                for smaller in range(1, o):
                    assert not acc.is_identity
                    acc = acc.compose(e)
                assert acc.is_identity


class TestMoebiusElement:
    def test_canonical_form(self):
        m = MoebiusElement.of(2, 4, 0, 2)
        assert m == MoebiusElement.of(1, 2, 0, 1)
        n = MoebiusElement.of(-1, -2, 0, -1)
        assert n == m

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            MoebiusElement.of(1, 2, 2, 4)

    def test_compose_inverse(self):
        m = moebius(1, 2, 0, 1)
        n = moebius(1, 0, 2, 1)
        assert m.compose(m.inverse()).is_identity
        assert m.compose(n) != n.compose(m)

    def test_nontrivial_parabolic_not_identity(self):
        assert not moebius(1, 2, 0, 1).is_identity

    def test_canonical_form_idempotent(self):
        m = moebius(3, 5, 7, 11)
        again = MoebiusElement.of(*_entries(m))
        assert m == again

    def test_orders_realizable_over_gaussian_rationals(self):
        i = GaussianRational.of(0, 1)
        assert moebius(1, 1, 0, 1).order() == "infinite"  # translation
        assert moebius(0, 1, 1, 0).order() == 2
        assert moebius(0, -1, 1, 1).order() == 3
        assert MoebiusElement.of(i, 0, 0, 1).order() == 4
        sixth = MoebiusElement.of(
            GaussianRational.of(1, 1),
            GaussianRational.of(1),
            GaussianRational.of(0, Fraction(-2, 3)),
            GaussianRational.of(0),
        )
        assert sixth.order() == 6
        assert moebius(2, 0, 0, 1).order() == "infinite"  # hyperbolic

    def test_trace_criterion_vs_powering_random(self):
        rng = random.Random(99)
        checked = 0
        while checked < 120:
            entries = [
                GaussianRational.of(
                    Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                    Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
                )
                for _ in range(4)
            ]
            det = entries[0] * entries[3] - entries[1] * entries[2]
            if det.is_zero:
                continue
            m = MoebiusElement.of(*entries)
            checked += 1
            o = m.order()
            acc = MoebiusElement.identity()
            for p in range(1, 25 if o == "infinite" else o + 1):
                acc = acc.compose(m)
                assert acc.is_identity == (p == o)


def _gr(re, im=0):
    return GaussianRational.of(Fraction(re), Fraction(im))


def _entries(m):
    """The entries a, b, c, d of m as Gaussian rationals, read from its parts."""
    *ints, den = m.parts
    return tuple(GaussianRational.of(Fraction(re, den), Fraction(im, den)) for re, im in zip(ints[::2], ints[1::2]))


def _ref_normal(m):
    """Reference projective form: the Fraction matrix divided by its first nonzero entry."""
    z = next(x for x in m if not x.is_zero)
    return tuple(x / z for x in m)


def _ref_compose(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return _ref_normal((a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h))


def _ref_key(m):
    return "mob[%s]" % ";".join(x.key() for x in m)


def _ref_is_identity(m):
    return m[1].is_zero and m[2].is_zero and m[0] == m[3]


def _ref_order(m):
    # over Q(i) a finite order is at most 6, so powering to 12 decides it
    acc = m
    for k in range(1, 13):
        if _ref_is_identity(acc):
            return k
        acc = _ref_compose(acc, m)
    return "infinite"


class TestMoebiusKernelDifferential:
    """The integer kernel against a Fraction reference on random words."""

    GENERATORS = [
        (_gr(2, 1), _gr(1), _gr(0, Fraction(-2, 3)), _gr(0)),
        (_gr(Fraction(1, 2), 3), _gr(Fraction(-1, 5)), _gr(0, Fraction(7, 15)), _gr(1, 1)),
        (_gr(Fraction(4, 3)), _gr(1, Fraction(-1, 2)), _gr(Fraction(2, 5), 1), _gr(3)),
        # first nonzero entry b; c or d would need a = b = 0, a singular matrix
        (_gr(0), _gr(3, -1), _gr(1), _gr(Fraction(1, 2), 5)),
        (_gr(0), _gr(Fraction(2, 15), -1), _gr(Fraction(1, 3)), _gr(0)),
        # order 6, from test_orders_realizable_over_gaussian_rationals
        (_gr(1, 1), _gr(1), _gr(0, Fraction(-2, 3)), _gr(0)),
        (_gr(0), _gr(1), _gr(1), _gr(0)),
    ]

    def test_random_words_match_reference(self):
        rng = random.Random(7)
        letters = []
        for entries in self.GENERATORS:
            m = MoebiusElement.of(*entries)
            ref = _ref_normal(entries)
            inv = _ref_normal((entries[3], -entries[1], -entries[2], entries[0]))
            letters += [(m, ref), (m.inverse(), inv)]
        by_key = {}
        for _ in range(400):
            m, ref = MoebiusElement.identity(), (_gr(1), _gr(0), _gr(0), _gr(1))
            for _ in range(rng.randint(0, 8)):
                step, step_ref = rng.choice(letters)
                m, ref = m.compose(step), _ref_compose(ref, step_ref)
            assert m.key() == _ref_key(ref)
            assert m.is_identity == _ref_is_identity(ref)
            assert m.order() == _ref_order(ref)
            assert MoebiusElement.of(*_entries(m)) == m
            same = by_key.setdefault(m.key(), m)
            assert same == m and hash(same) == hash(m)

    @pytest.mark.parametrize(
        "entries", [(0, 0, _gr(Fraction(-3, 5), Fraction(1, 15)), 2), (0, 0, 0, _gr(1, 1))]
    )
    def test_first_nonzero_c_or_d_is_singular(self, entries):
        with pytest.raises(ValueError, match="singular"):
            MoebiusElement.of(*entries)

    def test_golden_keys(self):
        a = MoebiusElement.of(_gr(2, 1), 1, _gr(0, Fraction(-2, 3)), 0)
        b = MoebiusElement.of(0, _gr(3, -1), 1, _gr(Fraction(1, 2), 5))
        assert a.key() == "mob[1+0i;2/5-1/5i;-2/15-4/15i;0+0i]"
        assert a.inverse().key() == "mob[0+0i;1+0i;0-2/3i;-2-1i]"
        assert b.key() == "mob[0+0i;1+0i;3/10+1/10i;-7/20+31/20i]"
        assert a.compose(b).key() == "mob[1+0i;15/2+6i;0+0i;-2/3-2i]"


class TestPermutationElement:
    def test_bijectivity_enforced(self):
        with pytest.raises(ValueError):
            PermutationElement.of([0, 0, 2])

    def test_compose_order(self):
        s = PermutationElement.of([1, 0, 2])
        t = PermutationElement.of([0, 2, 1])
        assert s.order() == 2
        assert s.compose(t).order() == 3
        assert PermutationElement.of([1, 2, 3, 0]).order() == 4

    def test_inverse(self):
        s = PermutationElement.of([2, 0, 1])
        assert s.compose(s.inverse()).is_identity


class TestRepresentation:
    def test_circle_power_rule(self):
        rep = circle_rep(2, [symbol("t"), -symbol("t")])
        value = rep.evaluate(Word.generator("c1", 3))
        assert value == rep.basis.element(symbol("t", 3))

    def test_commutator_of_unipotents_nontrivial(self):
        # direct 2x2 integer matrix multiplication as the oracle
        e1 = moebius(1, 2, 0, 1)
        e2 = moebius(1, 0, 2, 1)
        prod = e1.compose(e2).compose(e1.inverse()).compose(e2.inverse())
        pres = SurfacePresentation(2, 0)
        ident = MoebiusElement.identity()
        images = {g: ident for g in pres.free_gens}
        images["a1"], images["a2"] = e1, e2
        rep = Representation(pres, "moebius", images)
        w = commutator(Word.generator("a1"), Word.generator("a2"))
        assert rep.evaluate(w) == prod
        assert not rep.evaluate(w).is_identity

    def test_cancellation_evaluates_to_identity(self):
        rep = circle_rep(3, [symbol("t"), rational(1, 2), -symbol("t") - rational(1, 2)])
        w = Word.from_letters([("c1", 1), ("c1", -1)])
        assert rep.evaluate(w).is_identity

    def test_homomorphism_property_random(self):
        rng = random.Random(5)
        reps = [
            circle_rep(3, [symbol("t"), rational(1, 3), -symbol("t") - rational(1, 3)]),
        ]
        pres = SurfacePresentation(2, 0)
        ident = MoebiusElement.identity()
        images = {g: ident for g in pres.free_gens}
        images["a1"], images["a2"] = moebius(1, 2, 0, 1), moebius(1, 0, 2, 1)
        reps.append(Representation(pres, "moebius", images))
        pres_p = SurfacePresentation(0, 3)
        reps.append(
            Representation(
                pres_p,
                "permutation",
                {"c1": PermutationElement.of([1, 0, 2]), "c2": PermutationElement.of([0, 2, 1])},
            )
        )
        for rep in reps:
            alphabet = rep.presentation.alphabet
            for _ in range(200):
                w1 = Word.from_letters(
                    [(rng.choice(alphabet), rng.choice([1, -1])) for _ in range(rng.randrange(0, 6))]
                )
                w2 = Word.from_letters(
                    [(rng.choice(alphabet), rng.choice([1, -1])) for _ in range(rng.randrange(0, 6))]
                )
                lhs = rep.evaluate(w1 * w2)
                rhs = rep.evaluate(w1).compose(rep.evaluate(w2))
                assert lhs == rhs

    def test_closed_surface_relation_checked(self):
        pres = SurfacePresentation(1, 0)
        with pytest.raises(ValueError):
            Representation(
                pres,
                "moebius",
                {"a1": moebius(2, 0, 0, 1), "b1": moebius(1, 1, 0, 1)},
            )

    def test_supplied_last_boundary_image_checked(self):
        pres = SurfacePresentation(0, 3)
        t = symbol("t")
        # consistent mod 1: the relation forces -(t + 1) == -t mod 1
        Representation.circle_from_exponents(pres, [t, rational(1), -t])
        with pytest.raises(ValueError):
            Representation.circle_from_exponents(pres, [t, rational(1), t])


def _free_rank(rep):
    return circle_free_rank([rep.image(g) for g in rep.presentation.free_gens])


class TestAbelianRank:
    def test_rank_one(self):
        rep = circle_rep(3, [symbol("t"), rational(1), -symbol("t")])
        assert _free_rank(rep) == 1

    def test_rank_one_with_torsion(self):
        t = symbol("t")
        rep = circle_rep(3, [t, rational(1, 2), rational(1, 2) - t])
        assert _free_rank(rep) == 1

    def test_rank_two(self):
        t1, t2 = symbol("t1"), symbol("t2")
        rep = circle_rep(3, [t1, t2, rational(1) - t1 - t2])
        assert _free_rank(rep) == 2

    def test_imaginary_direction_counts(self):
        g = GaussianRational.of(0, 1)
        e = ExponentScalar.from_gaussian(g)
        rep = circle_rep(3, [e, e.scale(2), e.scale(-3)])
        assert _free_rank(rep) == 1


class TestPingPong:
    def test_paper_pattern(self):
        assert ping_pong_free_certificate(moebius(1, 2, 0, 1), moebius(1, 0, 2, 1))

    def test_small_entry_not_certified(self):
        assert not ping_pong_free_certificate(moebius(1, 1, 0, 1), moebius(1, 0, 1, 1))

    def test_identity_not_certified(self):
        assert not ping_pong_free_certificate(
            MoebiusElement.identity(), moebius(1, 2, 0, 1)
        )

    def test_conjugation_invariant(self):
        g = moebius(1, 1, 1, 2)
        e1 = g.compose(moebius(1, 2, 0, 1)).compose(g.inverse())
        e2 = g.compose(moebius(1, 0, 2, 1)).compose(g.inverse())
        assert ping_pong_free_certificate(e1, e2)

    def test_mixed_product_threshold(self):
        # |x*y| = 4 exactly with x = 4i, y = -i
        e1 = MoebiusElement.of(1, GaussianRational.of(0, 4), 0, 1)
        e2 = MoebiusElement.of(1, 0, GaussianRational.of(0, -1), 1)
        assert ping_pong_free_certificate(e1, e2)
        e3 = MoebiusElement.of(1, 0, GaussianRational.of(0, Fraction(-1, 2)), 1)
        assert not ping_pong_free_certificate(e1, e3)


def _ref_is_parabolic(m):
    a, b, c, d = _entries(m)
    t = a + d
    return not _ref_is_identity((a, b, c, d)) and (t * t) / (a * d - b * c) == _gr(4)


def _ref_fixed_point(m):
    """The fixed point of a parabolic element; None encodes infinity."""
    a, _, c, d = _entries(m)
    return None if c.is_zero else (a - d) / (c + c)


def _ref_sending(to_zero, to_inf):
    """A Moebius map sending to_zero to 0 and to_inf to infinity (None = infinity)."""
    one, zero = _gr(1), _gr(0)
    if to_inf is None:
        return MoebiusElement.of(one, -to_zero, zero, one)
    if to_zero is None:
        return MoebiusElement.of(zero, one, one, -to_inf)
    return MoebiusElement.of(one, -to_zero, one, -to_inf)


def _ref_ping_pong(e1, e2):
    """The conjugation route: send the fixed points of e1, e2 to infinity
    and 0, read x and y off [[1, x], [0, 1]] and [[1, 0], [y, 1]], and
    certify iff |xy| >= 4."""
    if not (_ref_is_parabolic(e1) and _ref_is_parabolic(e2)):
        return False
    p1, p2 = _ref_fixed_point(e1), _ref_fixed_point(e2)
    if p1 == p2:
        return False
    conj = _ref_sending(p2, p1)
    a1, b1, c1, d1 = _entries(conj.compose(e1).compose(conj.inverse()))
    a2, b2, c2, d2 = _entries(conj.compose(e2).compose(conj.inverse()))
    assert c1.is_zero and a1 == d1 and b2.is_zero and a2 == d2
    xy = (b1 / a1) * (c2 / a2)
    return xy.re * xy.re + xy.im * xy.im >= 16


class TestPingPongDifferential:
    """The integer trace test against the conjugation route it replaced."""

    @staticmethod
    def _pairs(rng, count):
        def small():
            return _gr(Fraction(rng.randint(-6, 6), rng.randint(1, 3)), Fraction(rng.randint(-4, 4), rng.randint(1, 2)))

        def conjugator():
            while True:
                entries = [_gr(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(4)]
                if not (entries[0] * entries[3] - entries[1] * entries[2]).is_zero:
                    return MoebiusElement.of(*entries)

        def conjugate(g, m):
            return g.compose(m).compose(g.inverse())

        def nonzero():
            x = small()
            return x if not x.is_zero else _gr(1)

        def upper():
            return MoebiusElement.of(1, nonzero(), 0, 1)

        def lower():
            return MoebiusElement.of(1, 0, nonzero(), 1)

        others = [
            MoebiusElement.identity(),
            moebius(0, 1, 1, 0),  # elliptic, order 2
            moebius(0, -1, 1, 1),  # elliptic, order 3
            MoebiusElement.of(_gr(0, 1), 0, 0, 1),  # elliptic, order 4
            moebius(3, -4, 4, 3),  # elliptic of infinite order
            moebius(2, 0, 0, 1),  # hyperbolic
            moebius(5, 1, 4, 1),  # hyperbolic, trace 6
            MoebiusElement.of(_gr(2, 1), 0, 0, 1),  # loxodromic
        ]
        pairs = []
        kinds = ["shared", "distinct", "same_point", "mixed", "other"]
        while len(pairs) < count:
            kind = rng.choice(kinds)
            if kind == "shared":
                g = conjugator()
                pair = (conjugate(g, upper()), conjugate(g, lower()))
            elif kind == "distinct":
                pair = (conjugate(conjugator(), upper()), conjugate(conjugator(), rng.choice([upper, lower])()))
            elif kind == "same_point":
                g = conjugator()
                pair = (conjugate(g, upper()), conjugate(g, upper()))
            elif kind == "mixed":
                pair = (conjugate(conjugator(), upper()), conjugate(conjugator(), rng.choice(others)))
            else:
                pair = (conjugate(conjugator(), rng.choice(others)), conjugate(conjugator(), rng.choice(others)))
            pairs.append(pair if rng.random() < 0.5 else pair[::-1])
        return pairs

    def test_agrees_with_conjugation_route(self):
        verdicts = []
        for e1, e2 in self._pairs(random.Random(33), 2000):
            assert (e1.is_parabolic, e2.is_parabolic) == (_ref_is_parabolic(e1), _ref_is_parabolic(e2))
            verdict = ping_pong_free_certificate(e1, e2)
            assert verdict == _ref_ping_pong(e1, e2), (e1, e2)
            verdicts.append(verdict)
        assert 300 < sum(verdicts) < len(verdicts) - 300


class TestDeckFiniteness:
    def test_circle_finite(self):
        rep = circle_rep(3, [rational(1, 2), rational(1, 3), rational(1, 6)])
        assert deck_group_is_finite(rep) == (True, 6)

    def test_circle_infinite(self):
        rep = circle_rep(3, [symbol("t"), rational(1), -symbol("t")])
        assert deck_group_is_finite(rep)[0] is False

    def test_moebius_infinite_translation(self):
        pres = SurfacePresentation(2, 0)
        ident = MoebiusElement.identity()
        images = {g: ident for g in pres.free_gens}
        images["a1"] = moebius(1, 1, 0, 1)
        rep = Representation(pres, "moebius", images)
        assert deck_group_is_finite(rep)[0] is False

    def test_moebius_finite_rotation_group(self):
        pres = SurfacePresentation(0, 3)
        i = GaussianRational.of(0, 1)
        r4 = MoebiusElement.of(i, 0, 0, 1)  # z -> iz, order 4
        rep = Representation(
            pres, "moebius", {"c1": r4, "c2": r4.inverse()}
        )
        finite, order = deck_group_is_finite(rep)
        assert finite and order == 4

    def test_permutation_enumeration(self):
        pres = SurfacePresentation(0, 3)
        rep = Representation(
            pres,
            "permutation",
            {"c1": PermutationElement.of([1, 0, 2]), "c2": PermutationElement.of([0, 2, 1])},
        )
        finite, order = deck_group_is_finite(rep)
        assert finite and order == 6  # two transpositions generate S3
        assert len(enumerate_group(rep.identity(), [rep.image(g) for g in pres.free_gens], 100)) == 6

    def test_circle_order_in_closed_form(self):
        # the image is cyclic of order lcm(1000003, 999983); enumerating its
        # 999985999949 elements would be hopeless
        q = 1000003 * 999983
        rep = circle_rep(
            3, [rational(1, 1000003), rational(1, 999983), rational(-1999986, q)]
        )
        assert deck_group_is_finite(rep) == (True, q)

    def test_permutation_degrees_must_agree(self):
        pres = SurfacePresentation(0, 3)
        with pytest.raises(ValueError, match="different degrees"):
            Representation(
                pres,
                "permutation",
                {"c1": PermutationElement.of([1, 0]), "c2": PermutationElement.of([0, 2, 1])},
            )


class TestCircleKernel:
    """Integer circle elements against an ExponentScalar reference."""

    # denominators 2, 3, 5 and 15; real and imaginary symbol parts and an
    # imaginary constant
    EXPONENTS = {
        "a1": ExponentScalar.make(Fraction(1, 2), {"t": Fraction(1, 3)}),
        "b1": ExponentScalar.make(imag_const=Fraction(2, 5)),
        "c1": ExponentScalar.make(Fraction(7, 15), imag_syms={"u": Fraction(1, 2)}),
        "c2": ExponentScalar.make(real_syms={"t": Fraction(1, 5), "u": Fraction(-1, 15)}),
        "c3": ExponentScalar.make(Fraction(2, 3)),
    }

    @staticmethod
    def _mod_one(x):
        """x with its real constant reduced into [0, 1)."""
        return ExponentScalar(x.real_const % 1, x.real_syms, x.imag_const, x.imag_syms)

    def _circ(self, x):
        return "circ[%s]" % self._mod_one(x).key()

    def _words(self):
        pres = SurfacePresentation(1, 4)
        rep = Representation(
            pres, "circle", {g: CircleElement.of(x) for g, x in self.EXPONENTS.items()}
        )
        rng = random.Random(11)
        gens = sorted(self.EXPONENTS)
        out = []
        for _ in range(400):
            letters = [(rng.choice(gens), rng.choice([1, -1])) for _ in range(rng.randrange(0, 9))]
            ref = ExponentScalar()
            for g, sign in letters:
                ref = ref + (self.EXPONENTS[g] if sign == 1 else -self.EXPONENTS[g])
            out.append((rep.evaluate(Word.from_letters(letters)), self._mod_one(ref)))
        return rep, out

    def test_words_match_the_reference(self):
        _, pairs = self._words()
        for e, ref in pairs:
            assert e.key() == self._circ(ref)
            assert e.is_identity == ref.is_zero
            assert e.order() == (ref.rational_value.denominator if ref.is_rational else "infinite")
            assert e.inverse().key() == self._circ(-ref)
            assert e.compose(e.inverse()).is_identity
        assert any(e.is_identity for e, _ in pairs)
        assert any(e.order() not in (1, "infinite") for e, _ in pairs)

    def test_equal_keys_iff_equal_elements(self):
        _, pairs = self._words()
        elements = [e for e, _ in pairs]
        keys = [e.key() for e in elements]
        repeats = 0
        for i, (ei, ki) in enumerate(zip(elements, keys)):
            for ej, kj in zip(elements[i + 1:], keys[i + 1:]):
                assert (ki == kj) == (ei == ej)
                if ei == ej:
                    repeats += 1
                    assert hash(ei) == hash(ej)
        assert repeats > 0
        assert len(set(elements)) == len(set(keys))

    def test_free_rank_matches_rational_rank(self):
        _, pairs = self._words()
        rng = random.Random(3)
        for _ in range(60):
            chosen = rng.sample(pairs, rng.randrange(1, 5))
            coords = [ref.coordinates_mod_one() for _, ref in chosen]
            dirs = sorted({d for c in coords for d in c})
            rows = [[c.get(d, Fraction(0)) for d in dirs] for c in coords]
            expected = rational_matrix_rank(rows) if dirs else 0
            assert circle_free_rank([e for e, _ in chosen]) == expected

    def test_representation_elements_share_one_basis(self):
        rep, pairs = self._words()
        assert rep.identity().basis is rep.basis
        assert all(e.basis is rep.basis for e, _ in pairs)
        assert rep.basis.den == 30

    def test_two_bases_do_not_mix(self):
        a = CircleElement.of(symbol("t"))
        b = CircleElement.of(rational(1, 3))
        with pytest.raises(ValueError, match="different bases"):
            a == b
        with pytest.raises(ValueError, match="different bases"):
            a.compose(b)
        with pytest.raises(ValueError, match="does not lie"):
            a.basis.element(rational(1, 3))

    def test_classify_builds_no_circle_keys(self, tmp_path, monkeypatch, capsys):
        # the coincident-multiplier blind spot: an exhaustive witness search
        # whose elements only compare and hash
        count = [0]
        key = CircleElement.key

        def counting_key(self):
            count[0] += 1
            return key(self)

        monkeypatch.setattr(CircleElement, "key", counting_key)
        cfg = tmp_path / "blind.json"
        cfg.write_text(
            '{"kind": "homogeneous", "symbols": ["t"], "exponents": '
            '["t", "0", "t", {"real": {"t": "-2"}}]}',
            encoding="utf-8",
        )
        assert main(["classify", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert count[0] == 0
