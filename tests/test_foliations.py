import itertools
import random
from fractions import Fraction

import pytest

from conftest import rational, symbol

from leaftype import (
    LogComponent,
    LogFoliationSpec,
    Representation,
    SurfacePresentation,
    classify_homogeneous,
    classify_logarithmic,
    classify_riccati,
    component_holonomy,
    handle_witness_search,
    validate_log_spec,
    validate_log_structure,
)
from leaftype.foliations import EXPLICIT_RATIOS, PROPORTIONAL, InvalidFoliationError
from leaftype.scalars import ExponentScalar, GaussianRational
from leaftype.targets import CIRCLE, MoebiusElement, deck_group_is_finite


def lines(*coeffs):
    return [LogComponent(1, GaussianRational.of(re, im)) for re, im in coeffs]


THREE_LINES = lines((1, 0), (0, 1), (-1, -1))
FOUR_LINES = lines((1, 0), (0, 1), (0, 2), (-1, -3))


class TestValidation:
    def test_two_components_forced_negative_ratio(self):
        spec = LogFoliationSpec(PROPORTIONAL, lines((1, 0), (-1, 0)))
        report = validate_log_spec(spec)
        assert not report.valid
        assert any("negative real" in f for f in report.failures)
        assert any("three" in n for n in report.notes)

    def test_three_lines_valid(self):
        report = validate_log_spec(LogFoliationSpec(PROPORTIONAL, THREE_LINES))
        assert report.valid
        assert report.decided_ratios["lambda_2/lambda_1"] == "0+1i"

    def test_sum_violation(self):
        spec = LogFoliationSpec(PROPORTIONAL, lines((1, 0), (0, 1), (-1, 0)))
        report = validate_log_spec(spec)
        assert not report.valid
        assert any("residue relation" in f for f in report.failures)

    def test_conic_plus_line_refused(self):
        spec = LogFoliationSpec(
            PROPORTIONAL,
            [LogComponent(2, GaussianRational.of(1)), LogComponent(1, GaussianRational.of(-2))],
        )
        report = validate_log_spec(spec)
        assert not report.valid

    def test_explicit_ratio_mode(self):
        t = symbol("u")
        spec = LogFoliationSpec(
            EXPLICIT_RATIOS,
            [LogComponent(1), LogComponent(1), LogComponent(1)],
            ratios={2: {1: t, 3: -t - rational(1)}},
            generic_asserted=True,
        )
        report = validate_log_spec(spec)
        assert report.valid
        assert "asserted" in report.decided_ratios["lambda_1/lambda_2"]

    def test_explicit_ratio_sum_checked(self):
        t = symbol("u")
        spec = LogFoliationSpec(
            EXPLICIT_RATIOS,
            [LogComponent(1), LogComponent(1), LogComponent(1)],
            ratios={2: {1: t, 3: -t}},
            generic_asserted=True,
        )
        report = validate_log_spec(spec)
        assert not report.valid


class TestStructuralValidation:
    @pytest.mark.parametrize(
        "components", [lines((2, 0), (3, 0), (-5, 0)), lines((1, 0), (-1, 0))]
    )
    def test_accepts_negative_real_ratios(self, components):
        spec = LogFoliationSpec(PROPORTIONAL, components)
        assert validate_log_structure(spec).valid
        report = validate_log_spec(spec)
        assert not report.valid
        assert all("negative real" in f for f in report.failures)

    @pytest.mark.parametrize(
        "spec,message",
        [
            (LogFoliationSpec(PROPORTIONAL, lines((1, 0), (0, 1), (-1, 0))), "residue relation"),
            (LogFoliationSpec(PROPORTIONAL, lines((1, 0), (0, 0), (-1, 0))), "nonzero"),
            (LogFoliationSpec(PROPORTIONAL, lines((1, 0))), "at least 2 components"),
            (LogFoliationSpec(PROPORTIONAL, THREE_LINES, normal_crossing=False), "normal-crossing"),
            (LogFoliationSpec(PROPORTIONAL, THREE_LINES, crossings={1: {2: -1}}), "non-negative"),
            (LogFoliationSpec(PROPORTIONAL, THREE_LINES, crossings={1: {2: 3}}), "Bezout number 1, not 3"),
            (LogFoliationSpec(PROPORTIONAL, THREE_LINES, crossings={2: {5: 1}}), "two distinct components"),
        ],
    )
    def test_rejects_malformed_spec(self, spec, message):
        report = validate_log_structure(spec)
        assert not report.valid
        assert any(message in f for f in report.failures)
        assert not any("negative real" in f for f in report.failures)

    def test_rejects_missing_explicit_ratio_data(self):
        spec = LogFoliationSpec(EXPLICIT_RATIOS, [LogComponent(1)] * 3)
        report = validate_log_structure(spec)
        assert report.failures == ["explicit-ratio mode requires ratio data"]


class TestComponentHolonomy:
    def test_rational_proportional_example(self):
        spec = LogFoliationSpec(
            PROPORTIONAL, lines((2, 0), (3, 0), (-5, 0))
        )
        rep = component_holonomy(spec, 1)
        assert rep.presentation.punctures == 2
        finite, order = deck_group_is_finite(rep)
        assert finite and order == 2  # exponents 3/2 and -5/2

    def test_line_arrangement_shape(self):
        spec = LogFoliationSpec(PROPORTIONAL, FOUR_LINES)
        rep = component_holonomy(spec, 2)
        assert rep.presentation.genus == 0
        assert rep.presentation.punctures == 3  # r - 1 crossings for lines

    def test_bezout_counts_for_conic(self):
        spec = LogFoliationSpec(
            PROPORTIONAL,
            [
                LogComponent(2, GaussianRational.of(1, 1)),
                LogComponent(1, GaussianRational.of(0, 1)),
                LogComponent(1, GaussianRational.of(-2, -3)),
            ],
        )
        rep = component_holonomy(spec, 1)
        assert rep.presentation.punctures == 2 + 2  # conic meets each line twice

    def test_crossing_override(self):
        spec = LogFoliationSpec(
            PROPORTIONAL,
            THREE_LINES,
            crossings={1: {2: 1, 3: 1}},
        )
        rep = component_holonomy(spec, 1)
        assert rep.presentation.punctures == 2

    def test_explicit_exponent_route_matches_direct_rep(self, log3_case1):
        t = symbol("t")
        spec = LogFoliationSpec(
            EXPLICIT_RATIOS,
            [LogComponent(1), LogComponent(1), LogComponent(1)],
            ratios={1: {2: t, 3: -t - rational(1)}},
            generic_asserted=True,
        )
        rep = component_holonomy(spec, 1)
        assert rep.presentation.punctures == 2
        finite, _ = deck_group_is_finite(rep)
        assert not finite


class TestTwistedHandleHolonomy:
    """Trivial handle images lose no generality for a component cover.

    Every handle image of a logarithmic component lies in the group the
    puncture images generate, and puncture pushes carry any such choice to
    the trivial one (see component_holonomy). So a cover whose handles map
    to products of puncture images must agree with the default one.
    """

    SHAPES = ((3, 1, 1), (3, 2, 1), (4, 1, 1), (3, 1, 1, 1), (3, 3, 1))

    def test_twisted_and_default_agree_on_witness(self):
        rng = random.Random(1)
        pairs = twisted_differs = 0
        for degrees in self.SHAPES:
            for _ in range(8):
                spec = _random_generic_spec(rng, degrees)
                for j, degree in enumerate(degrees, 1):
                    rep = component_holonomy(spec, j)
                    if degree < 3 or deck_group_is_finite(rep)[0]:
                        continue
                    twisted = _twist_handles(rep, rng)
                    twisted_differs += any(
                        not twisted.image(g).is_identity for g in rep.presentation.handle_gens
                    )
                    found = handle_witness_search(rep) is not None
                    assert found == (handle_witness_search(twisted) is not None)
                    pairs += 1
        assert pairs == 48
        assert twisted_differs == 48


def _random_generic_spec(rng: random.Random, degrees) -> LogFoliationSpec:
    """A proportional spec with small Gaussian-integer residues that passes validation."""
    while True:
        coeffs = [GaussianRational.of(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in degrees[:-1]]
        total = GaussianRational.of(0)
        for coeff, degree in zip(coeffs, degrees):
            total = total + coeff * GaussianRational.of(degree)
        coeffs.append(-total / GaussianRational.of(degrees[-1]))
        if any(c.is_zero for c in coeffs):
            continue
        spec = LogFoliationSpec(PROPORTIONAL, [LogComponent(d, c) for d, c in zip(degrees, coeffs)])
        if validate_log_spec(spec).valid:
            return spec


def _twist_handles(rep: Representation, rng: random.Random) -> Representation:
    """rep with each handle image a random product of puncture-image powers."""
    pres = rep.presentation
    images = {g: rep.image(g) for g in pres.free_gens}
    for gen in pres.handle_gens:
        acc = rep.identity()
        for c in pres.boundary_gens:
            n = rng.randint(-2, 2)
            step = rep.image(c) if n >= 0 else rep.image(c).inverse()
            for _ in range(abs(n)):
                acc = acc.compose(step)
        images[gen] = acc
    return Representation(pres, CIRCLE, images)


class TestClassifyLogarithmic:
    def test_three_general_lines(self):
        verdict = classify_logarithmic(LogFoliationSpec(PROPORTIONAL, THREE_LINES))
        assert verdict.label.name == "plane_biholomorphic_to_C"
        assert any("finite exceptional set" in c for c in verdict.caveats)

    def test_four_general_lines(self):
        verdict = classify_logarithmic(LogFoliationSpec(PROPORTIONAL, FOUR_LINES))
        assert verdict.label.name == "loch_ness_monster"
        assert verdict.computational_evidence["handle_witness"]["status"] == "confirmed"

    def test_negative_crossing_count_refused(self):
        spec = LogFoliationSpec(PROPORTIONAL, THREE_LINES, crossings={1: {2: -1}})
        with pytest.raises(InvalidFoliationError, match="crossing counts must be non-negative"):
            classify_logarithmic(spec)

    def test_refusal_path(self):
        spec = LogFoliationSpec(
            PROPORTIONAL,
            [LogComponent(2, GaussianRational.of(1)), LogComponent(1, GaussianRational.of(-2))],
        )
        with pytest.raises(InvalidFoliationError):
            classify_logarithmic(spec)

    def test_rescaling_invariance(self):
        verdicts = []
        for q in (Fraction(1), Fraction(3), Fraction(-1, 2)):
            comps = [
                LogComponent(1, c.coeff * GaussianRational.of(q)) for c in FOUR_LINES
            ]
            verdicts.append(classify_logarithmic(LogFoliationSpec(PROPORTIONAL, comps)))
        names = {v.label.name for v in verdicts}
        assert names == {"loch_ness_monster"}

    def test_permutation_invariance(self):
        names = set()
        for perm in itertools.permutations(FOUR_LINES):
            verdict = classify_logarithmic(LogFoliationSpec(PROPORTIONAL, list(perm)))
            names.add(verdict.label.name)
        assert names == {"loch_ness_monster"}

    def test_explicit_ratio_route(self):
        u = symbol("u")
        spec = LogFoliationSpec(
            EXPLICIT_RATIOS,
            [LogComponent(1), LogComponent(1), LogComponent(1), LogComponent(1)],
            ratios={1: {2: u, 3: u.scale(2), 4: -rational(1) - u.scale(3)}},
            generic_asserted=True,
        )
        verdict = classify_logarithmic(spec)
        assert verdict.label.name == "loch_ness_monster"
        assert verdict.computational_evidence["handle_witness"]["status"] == "confirmed"


class TestClassifyHomogeneous:
    def test_two_line_symbolic_gives_plane(self):
        t = symbol("t")
        verdict = classify_homogeneous([t, rational(1) - t])
        assert verdict.label.name == "plane"

    def test_two_line_rational_gives_algebraic_report(self):
        verdict = classify_homogeneous([rational(2, 3), rational(1, 3)])
        assert verdict.label.name == "finite_cover"
        assert (verdict.label.genus, verdict.label.punctures) == (0, 2)
        assert any("algebraic" in step for step in verdict.theorem_route)

    def test_log_example_cases(self):
        t = symbol("t")
        v1 = classify_homogeneous([t, rational(1), -t])
        assert v1.label.name == "plane_minus_discrete"
        v2 = classify_homogeneous([t, rational(1, 2), rational(1, 2) - t])
        assert v2.label.name == "lnm_minus_discrete"
        t1, t2 = symbol("t1"), symbol("t2")
        v3 = classify_homogeneous([t1, t2, rational(1) - t1 - t2])
        assert v3.label.name == "loch_ness_monster"

    def test_inconsistent_sum_rejected(self):
        with pytest.raises(ValueError):
            classify_homogeneous([symbol("t"), rational(1, 2)])

    def test_rational_inputs_always_finite_and_consistent(self):
        from leaftype import riemann_hurwitz_finite
        from leaftype import GluedSurface, build_ball
        from leaftype.targets import deck_group_is_finite
        from leaftype import Representation

        cases = [
            [Fraction(1, 2), Fraction(1, 2), Fraction(0)],
            [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)],
            [Fraction(2, 5), Fraction(2, 5), Fraction(1, 5)],
        ]
        for exps in cases:
            verdict = classify_homogeneous([rational(e) for e in exps])
            assert verdict.label.name == "finite_cover"
            pres = SurfacePresentation(0, len(exps))
            rep = Representation.circle_from_exponents(
                pres, [rational(e) for e in exps]
            )
            _, k = deck_group_is_finite(rep)
            surf = GluedSurface(rep, build_ball(rep, k))
            assert surf.genus == verdict.label.genus
            assert surf.r == verdict.label.punctures


class TestClassifyRiccati:
    def test_blooming_cantor_tree(self, free_rank_two_rep):
        verdict = classify_riccati(free_rank_two_rep)
        assert verdict.label.name == "blooming_cantor_tree"
        assert any("countable" in c for c in verdict.caveats)

    def test_cantor_tree(self, genus2_free_rep):
        assert classify_riccati(genus2_free_rep).label.name == "cantor_tree"

    def test_jacobs_ladder(self, translation_rep):
        assert classify_riccati(translation_rep).label.name == "jacobs_ladder"

    def test_relation_violation_rejected(self):
        pres = SurfacePresentation(1, 0)
        with pytest.raises(ValueError):
            classify_riccati(
                Representation(
                    pres,
                    "moebius",
                    {
                        "a1": MoebiusElement.of(2, 0, 0, 1),
                        "b1": MoebiusElement.of(1, 1, 0, 1),
                    },
                )
            )

    def test_circle_holonomy_rejected(self, log3_case1):
        with pytest.raises(ValueError, match="Moebius group"):
            classify_riccati(log3_case1)


class TestRatioIndices:
    @pytest.mark.parametrize(
        "ratios",
        [
            {1: {2: rational(1, 2), 5: rational(1)}},
            {1: {0: rational(-1, 2), 2: rational(-1, 2)}},
            {0: {1: rational(-1, 2), 2: rational(-1, 2)}},
        ],
    )
    def test_index_outside_components_rejected(self, ratios):
        spec = LogFoliationSpec(EXPLICIT_RATIOS, [LogComponent(1)] * 3, ratios=ratios)
        for validate in (validate_log_structure, validate_log_spec):
            report = validate(spec)
            assert not report.valid
            assert any("ratio indices outside 1..3" in f for f in report.failures)
        with pytest.raises(InvalidFoliationError, match="outside 1..3"):
            classify_logarithmic(spec)
