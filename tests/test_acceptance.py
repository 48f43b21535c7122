"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Every tolerance here is exact: all comparisons are on integers,
exact rationals or canonical strings.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from conftest import circle_rep, moebius, rational, symbol

from leaftype import (
    CircleElement,
    GluedSurface,
    Representation,
    SurfacePresentation,
    Word,
    build_ball,
    classify_cover,
    classify_homogeneous,
    classify_logarithmic,
    genus_growth,
    handle_witness_search,
    intersection_number_mod2,
    lift_cycle,
    riemann_hurwitz_finite,
)
from leaftype.cli import main as cli_main
from leaftype.foliations import PROPORTIONAL, LogComponent, LogFoliationSpec
from leaftype.scalars import ExponentScalar, GaussianRational
from leaftype.targets import (
    MoebiusElement,
    PermutationElement,
    deck_group_is_finite,
)


def _riccati_rep(genus, unipotent_x=2, translation_only=False):
    pres = SurfacePresentation(genus, 0)
    ident = MoebiusElement.identity()
    images = {g: ident for g in pres.free_gens}
    if translation_only:
        images["a1"] = moebius(1, 1, 0, 1)
    else:
        images["a1"] = moebius(1, unipotent_x, 0, 1)
        images["a2"] = moebius(1, 0, unipotent_x, 1)
    return Representation(pres, "moebius", images)


SURFACES_SEEN = []


def _surface(rep, radius):
    s = GluedSurface(rep, build_ball(rep, radius))
    SURFACES_SEEN.append(s)
    return s


def test_criterion_1_paper_example_regression():
    started = time.time()
    t = symbol("t")

    report, label = classify_cover(_riccati_rep(3))
    assert label.name == "blooming_cantor_tree"

    report, label = classify_cover(_riccati_rep(2))
    assert label.name == "cantor_tree"

    report, label = classify_cover(_riccati_rep(2, translation_only=True))
    assert label.name == "jacobs_ladder"

    assert classify_homogeneous([t, rational(1) - t]).label.name == "plane"

    assert classify_homogeneous([t, rational(1), -t]).label.name == "plane_minus_discrete"
    assert (
        classify_homogeneous([t, rational(1, 2), rational(1, 2) - t]).label.name
        == "lnm_minus_discrete"
    )
    t1, t2 = symbol("t1"), symbol("t2")
    assert (
        classify_homogeneous([t1, t2, rational(1) - t1 - t2]).label.name
        == "loch_ness_monster"
    )

    three = LogFoliationSpec(
        PROPORTIONAL,
        [
            LogComponent(1, GaussianRational.of(1, 0)),
            LogComponent(1, GaussianRational.of(0, 1)),
            LogComponent(1, GaussianRational.of(-1, -1)),
        ],
    )
    assert classify_logarithmic(three).label.name == "plane_biholomorphic_to_C"

    four = LogFoliationSpec(
        PROPORTIONAL,
        [
            LogComponent(1, GaussianRational.of(1, 0)),
            LogComponent(1, GaussianRational.of(0, 1)),
            LogComponent(1, GaussianRational.of(0, 2)),
            LogComponent(1, GaussianRational.of(-1, -3)),
        ],
    )
    assert classify_logarithmic(four).label.name == "loch_ness_monster"

    elapsed = time.time() - started
    assert elapsed < 10.0
    print("ACCEPTANCE 1: PASS - paper examples reproduced in %.2fs" % elapsed)


def _random_finite_circle_rep(rng):
    while True:
        g = rng.choice([0, 0, 0, 1])
        n = rng.randint(max(1, 3 - 2 * g), 6 - 2 * g)
        denominators = [1, 2, 3, 4, 6, 8, 12]
        handle_exps = [
            rational(rng.randint(0, 3), rng.choice(denominators))
            for _ in range(2 * g)
        ]
        boundary = [
            rational(rng.randint(0, 5), rng.choice(denominators))
            for _ in range(n - 1)
        ]
        # handle exponents cancel from the relation; only boundary ones sum
        total = ExponentScalar.rational(0)
        for e in boundary:
            total = total + e
        boundary.append(rational(rng.randint(0, 2)) - total)
        rep = Representation.circle_from_exponents(
            SurfacePresentation(g, n), boundary, handle_exps
        )
        finite, k = deck_group_is_finite(rep)
        if finite and k <= 24:
            return rep, k


def _random_finite_permutation_rep(rng):
    while True:
        n = rng.randint(3, 6)
        degree = rng.randint(2, 4)
        images = {}
        for j in range(1, n):
            perm = list(range(degree))
            rng.shuffle(perm)
            images["c%d" % j] = PermutationElement.of(perm)
        rep = Representation(SurfacePresentation(0, n), "permutation", images)
        finite, k = deck_group_is_finite(rep)
        if k <= 24:
            return rep, k


def test_criterion_2_dual_pipeline_riemann_hurwitz():
    rng = random.Random(1202)
    checked = 0
    while checked < 200:
        if checked % 2 == 0:
            rep, k = _random_finite_circle_rep(rng)
        else:
            rep, k = _random_finite_permutation_rep(rng)
        label = riemann_hurwitz_finite(rep)
        surf = _surface(rep, k)
        assert surf.connected
        assert (surf.genus, surf.r) == (label.genus, label.punctures), (
            "dual-pipeline mismatch for deck order %d" % k
        )
        checked += 1
    print("ACCEPTANCE 2: PASS - %d finite covers match the counting formula" % checked)


def _third_party_chi(s):
    L = s.template.size
    parent = list(range(len(s.faces) * L))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pair_count = 0
    for side, other in enumerate(s.partner):
        if other < 0:
            continue
        (fi, p), (fj, q) = divmod(side, L), divmod(other, L)
        if (fi, p) <= (fj, q):
            pair_count += 1
            a, b = find(fi * L + p), find(fj * L + (q + 1) % L)
            if a != b:
                parent[b] = a
            a, b = find(fi * L + (p + 1) % L), find(fj * L + q)
            if a != b:
                parent[b] = a
    vertices = len({find(x) for x in range(len(parent))})
    edges = pair_count + len(s.free_sides)
    return vertices - edges + len(s.faces)


def test_criterion_3_euler_characteristic_soundness():
    # surfaces accumulated by the other criteria plus a fresh assortment
    t = symbol("t")
    fresh = [
        (Representation.trivial(SurfacePresentation(0, 3)), 2),
        (Representation.trivial(SurfacePresentation(2, 0)), 2),
        (circle_rep(3, [t, rational(1), -t]), 5),
        (circle_rep(3, [t, rational(1, 2), rational(1, 2) - t]), 5),
        (_riccati_rep(2), 3),
        (_riccati_rep(2, translation_only=True), 4),
    ]
    for rep, radius in fresh:
        _surface(rep, radius)
    assert len(SURFACES_SEEN) >= 6
    for s in SURFACES_SEEN:
        assert s.chi == _third_party_chi(s)
        assert s.genus >= 0
        assert (2 - s.root_chi - s.root_r) % 2 == 0
        assert s.orientation_consistent()
    print(
        "ACCEPTANCE 3: PASS - chi recount, integer genus and orientability on %d surfaces"
        % len(SURFACES_SEEN)
    )


def _random_abelian_rep(rng):
    """Infinite-deck circle representation mixing torsion and free parts.

    Distinct punctures get distinct nontrivial multipliers: a repeated
    multiplier is a non-generic residue coincidence on which lifted cycle
    pairs can cross an even number of times, so the parity certificate is
    silent there (see the documented blind-spot test in test_classify).
    """
    while True:
        n = rng.choice([3, 3, 4, 4, 5])
        exps = []
        for _ in range(n - 1):
            kind = rng.random()
            if kind < 0.45:
                exps.append(rational(rng.randint(1, 3), rng.choice([2, 3, 4])))
            elif kind < 0.8:
                exps.append(symbol("t", rng.choice([1, -1, 2])))
            else:
                exps.append(
                    symbol("t", rng.choice([1, -1]))
                    + rational(rng.randint(1, 3), rng.choice([2, 3, 4]))
                )
        total = ExponentScalar.rational(0)
        for e in exps:
            total = total + e
        exps.append(rational(rng.randint(0, 2)) - total)
        rep = Representation.circle_from_exponents(SurfacePresentation(0, n), exps)
        if deck_group_is_finite(rep)[0]:
            continue
        images = [rep.image(c) for c in rep.presentation.boundary_gens]
        nontrivial = [e.key() for e in images if not e.is_identity]
        if len(set(nontrivial)) != len(nontrivial):
            continue
        return rep


def test_criterion_4_witness_oracle_equivalence():
    rng = random.Random(20260810)
    agreements = 0
    witnesses_checked = 0
    reps = [_random_abelian_rep(rng) for _ in range(50)]
    for rep in reps:
        witness = handle_witness_search(rep, max_exp=6)
        rows = genus_growth(rep, (2, 4, 6))
        positive = any(row["genus"] > 0 for row in rows)
        assert (witness is not None) == positive, (
            "witness/growth mismatch on %s"
            % [rep.image(c).key() for c in rep.presentation.boundary_gens]
        )
        agreements += 1
        if witness is not None:
            surf = _surface(rep, 6)
            p1 = lift_cycle(rep, surf, witness.gamma1)
            p2 = lift_cycle(rep, surf, witness.gamma2)
            assert p1.closed and p2.closed
            assert intersection_number_mod2(p1, p2) == 1
            witnesses_checked += 1
    assert agreements == 50
    assert witnesses_checked >= 20
    print(
        "ACCEPTANCE 4: PASS - witness/growth agreement on %d reps, %d witnesses lift with parity 1"
        % (agreements, witnesses_checked)
    )


def test_criterion_5_boundary_order_dichotomy():
    rng = random.Random(77)
    t = symbol("t")
    suite = [
        circle_rep(3, [t, rational(1), -t]),
        circle_rep(3, [t, rational(1, 2), rational(1, 2) - t]),
        circle_rep(3, [symbol("t1"), symbol("t2"), rational(1) - symbol("t1") - symbol("t2")]),
        circle_rep(3, [t, t.scale(2), t.scale(-3)]),
    ]
    for _ in range(8):
        suite.append(_random_abelian_rep(rng))
    checked = 0
    for rep in suite:
        orders = [rep.image(c).order() for c in rep.presentation.boundary_gens]
        surf = _surface(rep, 6)
        closed = surf.closed_beta_indices()
        for j, order in enumerate(orders, start=1):
            if order == "infinite":
                assert j not in closed
                probe = lift_cycle(rep, surf, Word.generator("c%d" % j, 13))
                assert probe.exits_ball
            else:
                assert j in closed, "no closed delta-circle for finite order %s" % order
            checked += 1
    print("ACCEPTANCE 5: PASS - boundary dichotomy verified on %d puncture checks" % checked)


def test_criterion_6_cli_determinism(tmp_path, capsys):
    configs = [
        (
            "classify",
            {
                "kind": "homogeneous",
                "symbols": ["t"],
                "exponents": ["t", "1/2", {"real": {"const": "1/2", "t": "-1"}}],
            },
        ),
        (
            "ball",
            {
                "kind": "representation",
                "target": "circle",
                "genus": 0,
                "punctures": 2,
                "symbols": ["t"],
                "images": {"c1": "t"},
            },
        ),
        (
            "surface",
            {
                "kind": "representation",
                "target": "circle",
                "genus": 0,
                "punctures": 3,
                "symbols": ["t"],
                "images": {"c1": "t", "c2": "1/2"},
            },
        ),
    ]
    for command, payload in configs:
        cfg = tmp_path / ("%s.json" % command)
        cfg.write_text(json.dumps(payload), encoding="utf-8")
        seen = []
        for run in range(2):
            out_dir = tmp_path / ("%s-%d" % (command, run))
            code = cli_main(
                [command, "--config", str(cfg), "--radius", "2,4", "--out", str(out_dir)]
            )
            stdout = capsys.readouterr().out
            assert code == 0
            files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            seen.append((stdout, files))
        assert seen[0] == seen[1], "%s output not byte-identical" % command
    print("ACCEPTANCE 6: PASS - classify/ball/surface byte-identical across runs")


def test_criterion_7_homomorphism_and_order_properties():
    rng = random.Random(424242)
    cases = 0

    # evaluate multiplicativity across the three targets
    t = symbol("t")
    reps = [
        circle_rep(3, [t, rational(1, 3), -t - rational(1, 3)]),
        _riccati_rep(2),
        Representation(
            SurfacePresentation(0, 4),
            "permutation",
            {
                "c1": PermutationElement.of([1, 0, 2, 3]),
                "c2": PermutationElement.of([0, 2, 1, 3]),
                "c3": PermutationElement.of([3, 1, 2, 0]),
            },
        ),
    ]
    for _ in range(2700):
        rep = reps[rng.randrange(len(reps))]
        alphabet = rep.presentation.alphabet
        w1 = Word.from_letters(
            [(rng.choice(alphabet), rng.choice([1, -1])) for _ in range(rng.randrange(0, 6))]
        )
        w2 = Word.from_letters(
            [(rng.choice(alphabet), rng.choice([1, -1])) for _ in range(rng.randrange(0, 6))]
        )
        assert rep.evaluate(w1 * w2) == rep.evaluate(w1).compose(rep.evaluate(w2))
        cases += 1

    # circle order correctness for denominators up to 12
    for _ in range(7000):
        q = rng.randint(1, 12)
        p = rng.randint(-24, 24)
        e = CircleElement.of(rational(p, q))
        order = e.order()
        acc = e
        for smaller in range(1, order):
            if acc.is_identity:
                raise AssertionError("premature identity for %s" % e.key())
            acc = acc.compose(e)
        assert acc.is_identity
        cases += 1

    # Niven criterion against direct powering up to exponent 24
    niven = 0
    while niven < 400:
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
        order = m.order()
        acc = MoebiusElement.identity()
        for step in range(1, 25):
            acc = acc.compose(m)
            if order == "infinite":
                assert not acc.is_identity
            else:
                assert acc.is_identity == (step % order == 0)
        niven += 1
        cases += 1
    # targeted finite orders so every branch of the trace table is exercised
    for m, expected in [
        (MoebiusElement.of(0, 1, 1, 0), 2),
        (MoebiusElement.of(0, -1, 1, 1), 3),
        (MoebiusElement.of(GaussianRational.of(0, 1), 0, 0, 1), 4),
        (
            MoebiusElement.of(
                GaussianRational.of(1, 1),
                GaussianRational.of(1),
                GaussianRational.of(0, Fraction(-2, 3)),
                GaussianRational.of(0),
            ),
            6,
        ),
    ]:
        assert m.order() == expected
        acc = m
        for _ in range(expected - 1):
            acc = acc.compose(m)
        assert acc.is_identity
        cases += 1

    assert cases >= 10**4
    print("ACCEPTANCE 7: PASS - %d property cases, zero failures" % cases)
