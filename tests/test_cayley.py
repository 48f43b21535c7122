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
from leaftype.targets import BudgetExceededError, MoebiusElement, PermutationElement


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
        gens = rep.presentation.cayley_gens
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
