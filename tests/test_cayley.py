import hashlib
import itertools
import random

import pytest

from conftest import circle_rep, moebius, rational, symbol

from leaftype import (
    Representation,
    SurfacePresentation,
    Word,
    build_ball,
    export_dot,
)
from leaftype.scalars import ExponentScalar
from leaftype.targets import (
    BudgetExceededError,
    MoebiusElement,
    PermutationElement,
    deck_group_is_finite,
    enumerate_group,
)


class TestBuildBall:
    def test_trivial_rep_single_vertex_with_loops(self):
        rep = Representation.trivial(SurfacePresentation(0, 3))
        ball = build_ball(rep, 5)
        assert ball.vertex_count == 1
        assert all(src == dst for src, _, dst in ball.edges)
        assert len(ball.edges) == 2  # one loop per canonical generator

    def test_infinite_cyclic_path(self):
        rep = circle_rep(2, [symbol("t"), -symbol("t")])
        ball = build_ball(rep, 3)
        assert ball.vertex_count == 7
        in_deg = {}
        for src, gen, dst in ball.edges:
            assert gen == "c1"
            in_deg[dst] = in_deg.get(dst, 0) + 1
        # a path: every vertex has at most one incoming c1-edge
        assert ball.vertex_count - len(ball.edges) == 1

    def test_free_rank_two_count_matches_word_enumeration(self, free_rank_two_rep):
        # oracle: all reduced words of length <= 2 in the two nontrivial
        # generator images, deduplicated by exact matrix comparison
        e1 = moebius(1, 2, 0, 1)
        e2 = moebius(1, 0, 2, 1)
        letters = [e1, e1.inverse(), e2, e2.inverse()]
        inverse_of = {0: 1, 1: 0, 2: 3, 3: 2}
        keys = {MoebiusElement.identity().key()}
        for i, li in enumerate(letters):
            keys.add(li.key())
            for j, lj in enumerate(letters):
                if j != inverse_of[i]:
                    keys.add(li.compose(lj).key())
        assert len(keys) == 17
        ball = build_ball(free_rank_two_rep, 2)
        assert ball.vertex_count == len(keys)
        assert {v.key() for v in ball.distances} == keys

    def test_monotone_in_radius(self, log3_case2):
        previous = set()
        for radius in range(0, 4):
            ball = build_ball(log3_case2, radius)
            vertices = set(ball.distances)
            assert previous <= vertices
            previous = vertices

    def test_finite_group_stabilizes_at_order(self):
        pres = SurfacePresentation(0, 3)
        rep = Representation(
            pres,
            "permutation",
            {
                "c1": PermutationElement.of([1, 0, 2]),
                "c2": PermutationElement.of([0, 2, 1]),
            },
        )
        sizes = [build_ball(rep, radius).vertex_count for radius in range(0, 8)]
        assert sizes[-1] == 6  # |S3|
        assert sizes[-2] == 6
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    def test_distances_match_exhaustive_word_search(self, log3_case2):
        rep = log3_case2
        ball = build_ball(rep, 3)
        best = {}
        gens = rep.presentation.free_gens
        for length in range(0, 4):
            for combo in itertools.product(
                [(g, s) for g in gens for s in (1, -1)], repeat=length
            ):
                el = rep.evaluate(Word.from_letters(list(combo)))
                k = el.key()
                if k not in best:
                    best[k] = length
        assert best == {v.key(): d for v, d in ball.distances.items()}

    def test_budget_enforced(self, log3_case3):
        with pytest.raises(BudgetExceededError) as err:
            build_ball(log3_case3, 6, vertex_budget=10)
        assert "10" in str(err.value)

    def test_negative_radius_rejected(self, log3_case2):
        with pytest.raises(ValueError):
            build_ball(log3_case2, -1)


def _permutation_decks(rng):
    """Seeded permutation decks of degree 3, 4 and 5 on the thrice-punctured sphere."""
    for degree in (3, 4, 5):
        images = {}
        for g in ("c1", "c2"):
            mapping = list(range(degree))
            rng.shuffle(mapping)
            images[g] = PermutationElement.of(mapping)
        yield Representation(SurfacePresentation(0, 3), "permutation", images)


def _seeded_balls():
    """Balls of all three targets: seeded circle covers at radius 3, the
    genus-3 Moebius ping-pong pair at radius 4, and permutation decks at a
    radius equal to their order, which saturates them."""
    rng = random.Random(26)
    pool = [rational(1, 2), rational(1, 3), rational(2, 3), symbol("s"), symbol("t"),
            symbol("s") + rational(1, 2), -symbol("t")]
    for n in (3, 4, 5):
        exps = [rng.choice(pool) for _ in range(n - 1)]
        yield build_ball(circle_rep(n, exps + [-sum(exps, ExponentScalar())]), 3)
    pres = SurfacePresentation(3, 0)
    images = {g: moebius(1, 0, 0, 1) for g in pres.free_gens}
    images["a1"] = moebius(1, 2, 0, 1)
    images["a2"] = moebius(1, 0, 2, 1)
    yield build_ball(Representation(pres, "moebius", images), 4)
    for rep in _permutation_decks(rng):
        yield build_ball(rep, deck_group_is_finite(rep)[1])


class TestBreadthFirstClosure:
    def test_discovery_order_is_pinned(self):
        # the discovery order fixes the face ids of a GluedSurface
        digest = hashlib.sha256()
        sizes = []
        for ball in _seeded_balls():
            sizes.append(ball.vertex_count)
            for v, d in ball.distances.items():
                digest.update(("%s %d\n" % (v.key(), d)).encode())
        assert sizes == [17, 34, 28, 161, 6, 24, 120]
        assert digest.hexdigest() == "145919d87b0c88362509721350e8d7911124b2a16dced3da2f678518fa099e61"

    def test_closure_is_the_saturated_ball(self):
        # decks of order 6, 8 and 24
        for rep in _permutation_decks(random.Random(2)):
            gens = [rep.image(g) for g in rep.presentation.free_gens]
            _, order = deck_group_is_finite(rep)
            group = enumerate_group(rep.identity(), gens, order)
            assert list(group.items()) == list(build_ball(rep, order).distances.items())
            assert enumerate_group(rep.identity(), gens, order - 1) is None
            with pytest.raises(BudgetExceededError, match="^Cayley ball vertex count exceeded"):
                build_ball(rep, order, vertex_budget=order - 1)
            with pytest.raises(BudgetExceededError, match="^permutation deck enumeration exceeded"):
                deck_group_is_finite(rep, vertex_budget=order - 1)

    def test_budget_zero_holds_not_even_the_identity(self):
        decks = [
            Representation.trivial(SurfacePresentation(0, 3), "permutation", 3),
            *_permutation_decks(random.Random(2)),
        ]
        for rep in [Representation.trivial(SurfacePresentation(0, 3)), *decks]:
            assert enumerate_group(rep.identity(), [rep.image(g) for g in rep.presentation.free_gens], 0) is None
            for radius in (0, 3):
                with pytest.raises(BudgetExceededError, match="^Cayley ball vertex count exceeded"):
                    build_ball(rep, radius, vertex_budget=0)
        for rep in decks:
            with pytest.raises(BudgetExceededError, match="^permutation deck enumeration exceeded"):
                deck_group_is_finite(rep, vertex_budget=0)


class TestExport:
    def test_single_vertex_dot(self):
        rep = Representation.trivial(SurfacePresentation(0, 1))
        ball = build_ball(rep, 4)
        dot = export_dot(ball)
        assert dot.count('[label="0"]') == 1
        assert "->" not in dot  # no canonical generators at all

    def test_path_dot_counts(self):
        rep = circle_rep(2, [symbol("t"), -symbol("t")])
        ball = build_ball(rep, 1)
        dot = export_dot(ball)
        assert dot.count("label=") == 3 + 2  # 3 nodes, 2 edges
        assert dot.count("->") == 2

    def test_free_rank_two_dot_matches_ball(self, free_rank_two_rep):
        ball = build_ball(free_rank_two_rep, 2)
        dot = export_dot(ball)
        assert dot.count("// ") == ball.vertex_count
        assert dot.count("->") == len(ball.edges)

    def test_byte_determinism(self, log3_case2):
        a = export_dot(build_ball(log3_case2, 3))
        b = export_dot(build_ball(log3_case2, 3))
        assert a == b
        ja = build_ball(log3_case2, 3).to_json_dict()
        jb = build_ball(log3_case2, 3).to_json_dict()
        assert ja == jb

    def test_json_shape(self, log3_case2):
        data = build_ball(log3_case2, 2).to_json_dict()
        assert set(data) == {"radius", "root", "vertices", "edges"}
        assert data["vertices"] == sorted(data["vertices"], key=lambda v: v["key"])
        assert all(len(e) == 3 for e in data["edges"])
