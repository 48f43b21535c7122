import hashlib
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import circle_rep, moebius, rational, symbol

from leaftype import (
    CircleElement,
    Representation,
    SurfacePresentation,
    boundary_orders,
    classify_cover,
    ends_of_group,
    handle_witness_search,
    riemann_hurwitz_finite,
)
from leaftype.classify import ENDS_CANTOR, ENDS_ONE, ENDS_TWO, ENDS_ZERO
from leaftype.gluing import AbstractCover
from leaftype.targets import MoebiusElement, PermutationElement, deck_group_is_finite


class TestBoundaryOrders:
    def test_planar_case(self, log3_case1):
        assert boundary_orders(log3_case1) == ["infinite", 1, "infinite"]

    def test_torsion_case(self, log3_case2):
        assert boundary_orders(log3_case2) == ["infinite", 2, "infinite"]

    def test_trivial_rep(self):
        rep = Representation.trivial(SurfacePresentation(0, 3))
        assert boundary_orders(rep) == [1, 1, 1]


def ends_of_deck_group(rep):
    return ends_of_group(rep, [rep.image(g) for g in rep.presentation.free_gens])


class TestEndsOfDeckGroup:
    def test_translation_two_ends(self, translation_rep):
        assert ends_of_deck_group(translation_rep) == ENDS_TWO

    def test_ping_pong_cantor(self, free_rank_two_rep):
        assert ends_of_deck_group(free_rank_two_rep) == ENDS_CANTOR

    def test_rank_two_one_end(self, log3_case3):
        assert ends_of_deck_group(log3_case3) == ENDS_ONE

    def test_rank_one_two_ends(self, log3_case1):
        assert ends_of_deck_group(log3_case1) == ENDS_TWO

    def test_finite_zero(self):
        rep = circle_rep(3, [rational(1, 2), rational(1, 2), rational(0)])
        assert ends_of_deck_group(rep) == ENDS_ZERO

    def test_unrecognized_moebius_inconclusive(self):
        pres = SurfacePresentation(0, 3)
        rep = Representation(
            pres,
            "moebius",
            {"c1": moebius(1, 1, 0, 1), "c2": moebius(2, 0, 0, 1)},
        )
        assert ends_of_deck_group(rep) == "inconclusive"


class TestWitnessSearch:
    def test_torsion_case_finds_witness(self, log3_case2):
        w = handle_witness_search(log3_case2, max_exp=4)
        assert w is not None
        assert w.case == "boundary_pair"
        assert w.params["l"] == 1  # the order-2 generator enters with power < 2

    def test_planar_case_none(self, log3_case1):
        assert handle_witness_search(log3_case1, max_exp=6) is None

    def test_rank_two_case_finds_witness(self, log3_case3):
        w = handle_witness_search(log3_case3, max_exp=3)
        assert w is not None

    def test_trivial_handle_pair_found(self, translation_rep):
        w = handle_witness_search(translation_rep)
        assert w is not None
        assert w.case == "handle_pair_torsion_both"
        assert w.params["j"] == 2  # the untouched handle survives per copy

    def test_tree_cover_has_no_witness(self, genus2_free_rep):
        assert handle_witness_search(genus2_free_rep) is None

    def test_known_blind_spot_documented(self):
        # Finite coincident-image covers can have genus that no cycle pair of
        # the searched shapes certifies mod 2: both generators map to the same
        # order-4 rotation. The finite branch classifies them exactly anyway.
        rep = circle_rep(3, [rational(1, 4), rational(1, 4), rational(1, 2)])
        assert handle_witness_search(rep) is None
        assert riemann_hurwitz_finite(rep).genus == 1

    def test_known_blind_spot_infinite_coincident_multipliers(self):
        # Repeated nontrivial multiplier at two punctures: every searched
        # cycle pair crosses an even number of times although the cover has
        # handles, so the classifier reports the genus as inconclusive
        # instead of certifying it.
        from leaftype import genus_growth

        t = symbol("t")
        rep = circle_rep(4, [t.scale(2), rational(0), t.scale(2), t.scale(-4)])
        assert handle_witness_search(rep) is None
        rows = genus_growth(rep, (2, 4))
        assert all(r["genus"] > 0 for r in rows)
        report, label = classify_cover(rep)
        assert label is None
        assert report.genus_class.kind == "inconclusive"

    @pytest.mark.xfail(strict=True, reason="ROADMAP F1")
    @pytest.mark.parametrize(
        "exponents",
        [
            (symbol("t"), rational(0), symbol("t", -1), rational(0)),
            (rational(0), rational(1) + symbol("t"), rational(0), symbol("t", -1), rational(-1)),
        ],
        ids=["t,0,-t,0", "0,1+t,0,-t,-1"],
    )
    def test_planar_cover_gets_no_infinite_genus(self, exponents):
        # only two punctures have nontrivial holonomy, so the cover is planar;
        # the self-glued side rule certifies a handle on both today
        from leaftype import classify_homogeneous

        verdict = classify_homogeneous(list(exponents))
        assert verdict.ends_report.genus_class.kind != "infinite"

    def test_search_deterministic(self, log3_case2):
        w1 = handle_witness_search(log3_case2)
        w2 = handle_witness_search(log3_case2)
        assert w1.to_json_dict() == w2.to_json_dict()

    def test_seeded_sweep_pins_witnesses_and_lifts(self, monkeypatch):
        # Every witness (or None) and the lift count over a seeded sweep of
        # infinite-deck circle covers. The sweep reaches every case, so a
        # change of candidate order, of a side condition or of a word shows.
        lifts = [0]
        lift = AbstractCover.lift

        def counting(self, word):
            lifts[0] += 1
            return lift(self, word)

        reps = _sweep_circle_covers(random.Random(1), 300)
        monkeypatch.setattr(AbstractCover, "lift", counting)
        witnesses = [handle_witness_search(rep, max_exp=4) for rep in reps]
        assert Counter(w.case if w else None for w in witnesses) == {
            "boundary_pair": 116,
            "handle_pair": 47,
            "handle_pair_torsion_a": 28,
            "handle_pair_torsion_b": 28,
            "handle_pair_torsion_both": 18,
            None: 63,
        }
        blob = json.dumps([w and w.to_json_dict() for w in witnesses], sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "f273d4860a9169bc06e389aa3b6c3bb5b54de1490025ae6ad156e141c8b0d7f8"
        )
        assert lifts[0] == 2302

    def test_blind_spot_evaluates_each_distinct_word_once(self, monkeypatch):
        t = symbol("t")
        rep = circle_rep(4, [t.scale(2), rational(0), t.scale(2), t.scale(-4)])
        words = []
        evaluate = Representation.evaluate

        def counting(self, word):
            words.append(word.letters)
            return evaluate(self, word)

        monkeypatch.setattr(Representation, "evaluate", counting)
        assert handle_witness_search(rep) is None
        assert len(words) == len(set(words)) == 144


_SWEEP_EXPONENTS = (
    [rational(0)],
    [rational(p, q) for q in (2, 3, 4, 6) for p in range(1, q) if Fraction(p, q).denominator == q],
    [symbol("s"), symbol("s", -1), symbol("t"), symbol("t", -1), symbol("s", 2)],
)


def _sweep_circle_covers(rng: random.Random, count: int):
    """count seeded circle representations with an infinite deck group.

    Genus 0 with 3-5 punctures or genus 1-2 with 0-3 punctures; each image
    is 0, a rational of denominator 2, 3, 4 or 6, or a multiple of s or t,
    one of the three kinds picked first. The last puncture closes the
    relation.
    """
    def pick():
        return rng.choice(rng.choice(_SWEEP_EXPONENTS))

    reps = []
    while len(reps) < count:
        if rng.random() < 0.5:
            pres = SurfacePresentation(0, rng.randint(3, 5))
        else:
            pres = SurfacePresentation(rng.randint(1, 2), rng.randint(0, 3))
        handles = [pick() for _ in pres.handle_gens]
        boundary = [pick() for _ in range(max(pres.punctures - 1, 0))]
        if pres.punctures:
            boundary.append(-sum(boundary, rational(0)))
        rep = Representation.circle_from_exponents(pres, boundary, handles)
        if not deck_group_is_finite(rep)[0]:
            reps.append(rep)
    return reps


class TestRiemannHurwitz:
    def test_identity_cover(self):
        rep = Representation.trivial(SurfacePresentation(0, 3))
        label = riemann_hurwitz_finite(rep)
        assert (label.genus, label.punctures) == (0, 3)

    def test_two_sheets(self):
        rep = circle_rep(3, [rational(1, 2), rational(1, 2), rational(0)])
        label = riemann_hurwitz_finite(rep)
        assert (label.genus, label.punctures) == (0, 4)

    def test_three_sheets(self):
        rep = circle_rep(3, [rational(1, 3)] * 3)
        label = riemann_hurwitz_finite(rep)
        assert (label.genus, label.punctures) == (1, 3)

    def test_infinite_rejected(self, log3_case1):
        with pytest.raises(ValueError):
            riemann_hurwitz_finite(log3_case1)


class TestClassifyCover:
    def test_blooming_cantor_tree(self, free_rank_two_rep):
        report, label = classify_cover(free_rank_two_rep)
        assert label.name == "blooming_cantor_tree"
        assert report.eprime_class == ENDS_CANTOR
        assert not report.planar_discrete_ends

    def test_cantor_tree(self, genus2_free_rep):
        report, label = classify_cover(genus2_free_rep)
        assert label.name == "cantor_tree"
        assert report.genus_class.kind == "zero_certified"

    def test_jacobs_ladder(self, translation_rep):
        report, label = classify_cover(translation_rep)
        assert label.name == "jacobs_ladder"
        assert report.eprime_class == ENDS_TWO

    def test_log_cases(self, log3_case1, log3_case2, log3_case3):
        assert classify_cover(log3_case1)[1].name == "plane_minus_discrete"
        assert classify_cover(log3_case2)[1].name == "lnm_minus_discrete"
        assert classify_cover(log3_case3)[1].name == "loch_ness_monster"

    def test_finite_deck_labelled_by_formula(self):
        rep = circle_rep(3, [rational(1, 3)] * 3)
        report, label = classify_cover(rep)
        assert report.deck_is_finite and report.deck_order == 3
        assert label.name == "finite_cover"
        assert (label.genus, label.punctures) == (1, 3)

    def test_unnamed_combination_withheld(self):
        # two ends, genus zero, plus a discrete planar end set: realizable
        # but outside the eleven names, so the label is withheld
        pres = SurfacePresentation(1, 1)
        rep = Representation(
            pres,
            "circle",
            {"a1": CircleElement.of(symbol("t")), "b1": CircleElement.identity()},
        )
        report, label = classify_cover(rep)
        assert label is None
        assert any("withheld" in note for note in report.notes)
        assert report.planar_discrete_ends

    def test_inconclusive_moebius_keeps_report(self):
        pres = SurfacePresentation(0, 3)
        rep = Representation(
            pres,
            "moebius",
            {"c1": moebius(1, 1, 0, 1), "c2": moebius(2, 0, 0, 1)},
        )
        report, label = classify_cover(rep)
        assert label is None
        assert report.deck_is_finite is False

    def test_label_stable_under_larger_bounds(self, log3_case2, translation_rep):
        for rep in (log3_case2, translation_rep):
            _, first = classify_cover(rep, search_bound=4, radii=(2, 4))
            _, second = classify_cover(rep, search_bound=6, radii=(2, 4, 6))
            assert first.name == second.name

    def test_report_json_round(self, log3_case2):
        report, label = classify_cover(log3_case2)
        data = report.to_json_dict()
        assert data["planar_discrete_ends"] is True
        assert data["witness"]["case"] == "boundary_pair"
        assert data["genus_class"]["kind"] == "infinite"


class TestOracleAgreement:
    """Witness verdicts against the glued-ball genus, both directions."""

    def test_witness_implies_growth(self, log3_case2):
        from leaftype import genus_growth

        assert handle_witness_search(log3_case2) is not None
        rows = genus_growth(log3_case2, (2, 4, 6))
        assert any(r["genus"] > 0 for r in rows)

    def test_no_witness_implies_flat_growth(self, log3_case1, genus2_free_rep):
        from leaftype import genus_growth

        for rep in (log3_case1, genus2_free_rep):
            assert handle_witness_search(rep) is None
            rows = genus_growth(rep, (2, 4, 6))
            assert all(r["genus"] == 0 for r in rows)


class TestOneDeckComputation:
    """Each representation has its deck group decided exactly once."""

    @pytest.fixture
    def deck_calls(self, monkeypatch):
        import leaftype.classify
        import leaftype.foliations
        import leaftype.targets

        calls = []

        def counting(rep, *args, **kwargs):
            calls.append(rep)
            return deck_group_is_finite(rep, *args, **kwargs)

        for module in (leaftype.targets, leaftype.classify, leaftype.foliations):
            monkeypatch.setattr(module, "deck_group_is_finite", counting)
        return calls

    def test_classify_cover(self, deck_calls, log3_case2):
        finite = circle_rep(3, [rational(1, 3)] * 3)
        for rep in (finite, log3_case2):
            deck_calls.clear()
            classify_cover(rep)
            assert deck_calls == [rep]

    def test_classify_homogeneous(self, deck_calls):
        from leaftype import classify_homogeneous

        t = symbol("t")
        for exponents in ([rational(1, 3)] * 3, [t, rational(1, 2), rational(1, 2) - t]):
            deck_calls.clear()
            verdict = classify_homogeneous(exponents)
            assert verdict.label is not None
            assert len(deck_calls) == 1
