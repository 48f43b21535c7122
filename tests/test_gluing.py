import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import pytest

from conftest import circle_rep, moebius, rational, symbol

from leaftype import (
    DomainTemplate,
    GluedSurface,
    Representation,
    SurfacePresentation,
    Word,
    build_ball,
    commutator,
    genus_growth,
    intersection_number_mod2,
    lift_cycle,
)
from leaftype import gluing
from leaftype.gluing import AbstractCover, InternalConsistencyError
from leaftype.scalars import ExponentScalar, GaussianRational
from leaftype.targets import CircleElement, MoebiusElement, PermutationElement


def surface_for(rep, radius):
    return GluedSurface(rep, build_ball(rep, radius))


@dataclass(frozen=True)
class FreeElement:
    """A free-group element as a reduced Word, with the group operations
    `DomainTemplate.step_elements` uses."""

    word: Word

    def compose(self, other):
        return FreeElement(self.word * other.word)

    def inverse(self):
        return FreeElement(self.word.inverse())


class FreeGroup:
    """The free group of a punctured presentation, c_n read as its rewrite:
    under it, each step element is the crossing's shift word itself."""

    def __init__(self, presentation):
        self.presentation = presentation

    def identity(self):
        return FreeElement(Word())

    def image(self, gen):
        pres = self.presentation
        if pres.punctures and gen == pres.boundary_gens[-1]:
            return FreeElement(pres.last_boundary_word())
        return FreeElement(Word.generator(gen))


def free_steps(tpl):
    """The shift word of every crossing (pair, direction)."""
    return {c: e.word for c, e in tpl.step_elements(FreeGroup(tpl.presentation)).items()}


def path_word(steps, path):
    """The deck word a crossing sequence effects."""
    out = Word()
    for crossing in path:
        out = out * steps[crossing]
    return out


class TestTemplate:
    def test_slot_layout(self):
        tpl = DomainTemplate(SurfacePresentation(1, 1))
        labels = [label for label, _ in tpl.slots]
        assert labels == ["a1", "b1", "a1", "b1", "s1", "beta1", "s1"]

    def test_letter_paths_effect_exactly_the_letter(self):
        # the step product of each crossing sequence must equal the letter
        # as a free-group element (c_n compares against its rewrite)
        for g, n in [(0, 3), (1, 1), (1, 2), (2, 0), (2, 2), (3, 1), (4, 5), (7, 11), (9, 30)]:
            pres = SurfacePresentation(g, n)
            tpl = DomainTemplate(pres)
            steps = free_steps(tpl)
            for gen in pres.alphabet:
                product = path_word(steps, tpl.word_path(Word.generator(gen)))
                if n >= 1 and gen == pres.boundary_gens[-1]:
                    assert product == pres.last_boundary_word()
                else:
                    assert product == Word.generator(gen)

    def test_letter_paths_are_written_at_first_use(self):
        # the component of three degree-40 curves: genus 741, 3200 punctures
        g, n = 741, 3200
        tpl = DomainTemplate(SurfacePresentation(g, n))
        assert tpl.word_path(Word.generator("a1")) == (("a1", 1), ("b1", 1), ("a1", -1))
        assert set(tpl._letter_paths) == {("a1", 1), ("a1", -1)}
        assert len(tpl.word_path(Word.generator("c%d" % n))) == 2 * (4 * g + n - 1) + 1

    def test_word_path_concatenates(self):
        pres = SurfacePresentation(0, 3)
        tpl = DomainTemplate(pres)
        w = Word.generator("c1") * Word.generator("c2", -1)
        assert path_word(free_steps(tpl), tpl.word_path(w)) == w

    def test_step_elements_evaluate_the_free_steps(self):
        rng = random.Random(40)
        t, u = symbol("t"), symbol("u")
        exponents = [t, u, -t, rational(1, 2), rational(1, 3), rational(0), t + rational(1, 2)]

        def image(kind):
            if kind == "circle":
                return CircleElement.of(rng.choice(exponents))
            if kind == "moebius":
                while True:
                    entries = [GaussianRational.of(rng.randint(-3, 3), rng.randint(-1, 1)) for _ in range(4)]
                    try:
                        return MoebiusElement.of(*entries)
                    except ValueError:
                        pass
            mapping = list(range(5))
            rng.shuffle(mapping)
            return PermutationElement.of(mapping)

        checked = 0
        for kind in ("circle", "moebius", "permutation"):
            for _ in range(12):
                g, n = rng.randint(0, 6), rng.randint(0, 8)
                if 2 * g + n < 1 or (n == 0 and kind != "circle"):
                    continue  # closed surfaces need images satisfying the relation
                pres = SurfacePresentation(g, n)
                rep = Representation(pres, kind, {gen: image(kind) for gen in pres.free_gens})
                tpl = DomainTemplate(pres)
                words = free_steps(tpl)
                for crossing, element in tpl.step_elements(rep).items():
                    assert element == rep.evaluate(words[crossing]), (kind, g, n, crossing)
                checked += 1
        assert checked >= 20

    def test_step_elements_are_linear_in_the_template(self, monkeypatch):
        pres = SurfacePresentation(10, 30)
        t = symbol("t")
        rep = Representation.circle_from_exponents(
            pres, [t] * 29 + [t.scale(-29)], [rational(1, 2), t] * 10
        )
        calls = []
        compose = CircleElement.compose

        def counting(self, other):
            calls.append(1)
            return compose(self, other)

        monkeypatch.setattr(CircleElement, "compose", counting)
        tpl = DomainTemplate(pres)
        tpl.step_elements(rep)
        assert len(calls) <= tpl.size + len(tpl.pairs)


class TestBaseSurfaces:
    def test_pair_of_pants(self):
        rep = Representation.trivial(SurfacePresentation(0, 3))
        s = surface_for(rep, 2)
        assert (s.chi, s.r, s.genus) == (-1, 3, 0)
        assert s.connected
        assert s.closed_beta_indices() == {1, 2, 3}

    def test_closed_genus_two(self):
        rep = Representation.trivial(SurfacePresentation(2, 0))
        s = surface_for(rep, 2)
        assert (s.chi, s.r, s.genus) == (-2, 0, 2)

    def test_disk(self):
        rep = Representation.trivial(SurfacePresentation(0, 1))
        s = surface_for(rep, 1)
        assert (s.chi, s.r, s.genus) == (1, 1, 0)

    def test_torus(self):
        rep = Representation.trivial(SurfacePresentation(1, 0))
        s = surface_for(rep, 1)
        assert (s.chi, s.r, s.genus) == (0, 0, 1)

    def test_orientability(self):
        for pres in (SurfacePresentation(0, 3), SurfacePresentation(2, 0)):
            rep = Representation.trivial(pres)
            assert surface_for(rep, 2).orientation_consistent()


class TestEulerBookkeeping:
    def euler_recount(self, s):
        """Third, test-local recount of chi via a fresh corner union-find."""
        L = s.template.size
        parent = list(range(len(s.faces) * L))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[ry] = rx

        pair_count = 0
        for side, other in enumerate(s.partner):
            if other < 0:
                continue
            (fi, p), (fj, q) = divmod(side, L), divmod(other, L)
            if (fi, p) <= (fj, q):
                pair_count += 1
                union(fi * L + p, fj * L + (q + 1) % L)
                union(fi * L + (p + 1) % L, fj * L + q)
        V = len({find(x) for x in range(len(parent))})
        E = pair_count + len(s.free_sides)
        return V - E + len(s.faces)

    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_recount_matches(self, log3_case2, radius):
        s = surface_for(log3_case2, radius)
        assert self.euler_recount(s) == s.chi

    def test_recount_matches_moebius(self, genus2_free_rep):
        s = surface_for(genus2_free_rep, 2)
        assert self.euler_recount(s) == s.chi
        assert s.genus >= 0


class TestCoverGrowth:
    def test_planar_case_genus_zero_boundary_grows(self, log3_case1):
        rows = genus_growth(log3_case1, (2, 4, 6))
        assert [row["genus"] for row in rows] == [0, 0, 0]
        rs = [row["boundary_components"] for row in rows]
        assert rs[0] < rs[1] < rs[2]

    def test_torsion_case_genus_strictly_increases(self, log3_case2):
        rows = genus_growth(log3_case2, (2, 4, 6))
        genera = [row["genus"] for row in rows]
        assert genera[0] < genera[1] < genera[2]

    def test_trivial_rep_constant(self):
        rep = Representation.trivial(SurfacePresentation(0, 3))
        rows = genus_growth(rep, (1, 2, 3))
        assert all((row["genus"], row["boundary_components"]) == (0, 3) for row in rows)

    def test_genus_nondecreasing_random_reps(self):
        rng = random.Random(23)
        for _ in range(8):
            exps = [
                rational(rng.randint(1, 3), rng.choice([2, 3, 4])),
                symbol("t", rng.choice([1, -1])),
            ]
            total = exps[0] + exps[1]
            rep = circle_rep(3, [exps[0], exps[1], -total])
            genera = [row["genus"] for row in genus_growth(rep, (1, 2, 3, 4))]
            assert all(a <= b for a, b in zip(genera, genera[1:]))

    def test_schedule_must_increase(self, log3_case1):
        with pytest.raises(ValueError):
            genus_growth(log3_case1, (4, 2))


class TestLifts:
    def test_trivial_boundary_loop_closes(self):
        rep = Representation.trivial(SurfacePresentation(0, 3))
        s = surface_for(rep, 1)
        p = lift_cycle(rep, s, Word.generator("c1"))
        assert p.closed
        assert len(p) == 1

    def test_commutator_closes_on_torsion_cover(self, log3_case2):
        s = surface_for(log3_case2, 6)
        w = commutator(Word.generator("c1"), Word.generator("c2"))
        assert lift_cycle(log3_case2, s, w).closed

    def test_boundary_lift_exits_on_rank_two_cover(self, log3_case3):
        s = surface_for(log3_case3, 4)
        p = lift_cycle(log3_case3, s, Word.generator("c1", 9))
        assert p.exits_ball
        assert not p.closed

    def test_closed_iff_kernel_membership(self, log3_case2):
        s = surface_for(log3_case2, 8)
        half_loop = Word.generator("c2")  # image has order 2
        assert not lift_cycle(log3_case2, s, half_loop).closed
        assert lift_cycle(log3_case2, s, half_loop * half_loop).closed

    def test_unknown_base_rejected(self, log3_case2):
        s = surface_for(log3_case2, 2)
        with pytest.raises(ValueError):
            lift_cycle(log3_case2, s, Word.generator("c1"), base="nonsense")


class TestIntersection:
    def test_torus_handle_pair(self):
        rep = Representation.trivial(SurfacePresentation(1, 0))
        s = surface_for(rep, 1)
        pa = lift_cycle(rep, s, Word.generator("a1"))
        pb = lift_cycle(rep, s, Word.generator("b1"))
        assert intersection_number_mod2(pa, pb) == 1
        assert intersection_number_mod2(pb, pa) == 1

    def test_reversal_invariance(self):
        rep = Representation.trivial(SurfacePresentation(1, 0))
        s = surface_for(rep, 1)
        pa = lift_cycle(rep, s, Word.generator("a1"))
        pb_rev = lift_cycle(rep, s, Word.generator("b1", -1))
        assert intersection_number_mod2(pa, pb_rev) == 1

    def test_null_homologous_commutator(self):
        rep = Representation.trivial(SurfacePresentation(1, 0))
        s = surface_for(rep, 1)
        pc = lift_cycle(rep, s, commutator(Word.generator("a1"), Word.generator("b1")))
        pa = lift_cycle(rep, s, Word.generator("a1"))
        assert intersection_number_mod2(pc, pa) == 0

    def test_trivial_loop_gives_zero(self, log3_case2):
        s = surface_for(log3_case2, 6)
        w = commutator(Word.generator("c1"), Word.generator("c2"))
        p = lift_cycle(log3_case2, s, w)
        trivial = lift_cycle(log3_case2, s, Word())
        assert intersection_number_mod2(p, trivial) == 0

    def test_witness_pair_on_cyclic_cover(self):
        # frozen from the independent hand count of chord crossings on the
        # order-3 cyclic cover: faces id and 2g contribute three crossings
        rep = circle_rep(3, [rational(1, 3)] * 3)
        s = surface_for(rep, 8)
        g1 = commutator(Word.generator("c1"), Word.generator("c2"))
        g2 = commutator(Word.generator("c1", -1), Word.generator("c2"))
        p1, p2 = lift_cycle(rep, s, g1), lift_cycle(rep, s, g2)
        assert p1.closed and p2.closed
        assert intersection_number_mod2(p1, p2) == 1

    def test_witness_pair_on_mixed_cover(self, log3_case2):
        # frozen from the independent hand count on the Z x Z/2 cover
        s = surface_for(log3_case2, 8)
        g1 = commutator(Word.generator("c1"), Word.generator("c2"))
        g2 = commutator(Word.generator("c1", -1), Word.generator("c2"))
        p1, p2 = lift_cycle(log3_case2, s, g1), lift_cycle(log3_case2, s, g2)
        assert intersection_number_mod2(p1, p2) == 1

    def test_parallel_boundary_circles_disjoint(self):
        rep = circle_rep(3, [rational(1, 2), rational(1, 2), rational(0)])
        s = surface_for(rep, 4)
        w = Word.generator("c1", 2)
        keys = sorted(s.ball.distances, key=lambda v: v.key())
        p1 = lift_cycle(rep, s, w, keys[0])
        p2 = lift_cycle(rep, s, w, keys[1])
        assert intersection_number_mod2(p1, p2) == 0

    def test_open_path_rejected(self, log3_case3):
        s = surface_for(log3_case3, 3)
        open_path = lift_cycle(log3_case3, s, Word.generator("c1"))
        closed = lift_cycle(
            log3_case3, s, commutator(Word.generator("c1"), Word.generator("c2"))
        )
        with pytest.raises(ValueError):
            intersection_number_mod2(open_path, closed)

    def test_parity_stable_under_ball_enlargement(self, log3_case2):
        g1 = commutator(Word.generator("c1"), Word.generator("c2"))
        g2 = commutator(Word.generator("c1", -1), Word.generator("c2"))
        parities = []
        for radius in (6, 8, 10):
            s = surface_for(log3_case2, radius)
            parities.append(
                intersection_number_mod2(
                    lift_cycle(log3_case2, s, g1), lift_cycle(log3_case2, s, g2)
                )
            )
        assert parities == [1, 1, 1]

    def test_abstract_cover_agrees_with_ball(self, log3_case2):
        g1 = commutator(Word.generator("c1"), Word.generator("c2"))
        g2 = commutator(Word.generator("c1", -1), Word.generator("c2"))
        cover = AbstractCover(log3_case2)
        q1, q2 = cover.lift(g1), cover.lift(g2)
        assert q1.closed and q2.closed
        assert intersection_number_mod2(q1, q2) == 1


class TestLemmaOneReflection:
    def test_finite_order_boundary_closes(self, log3_case1):
        s = surface_for(log3_case1, 6)
        assert 2 in s.closed_beta_indices()  # exponent 1 has order 1

    def test_infinite_order_boundaries_reach_frontier(self, log3_case1):
        s = surface_for(log3_case1, 6)
        closed = s.closed_beta_indices()
        assert 1 not in closed and 3 not in closed

    def test_all_infinite_no_closed_beta(self, log3_case3):
        s = surface_for(log3_case3, 4)
        assert s.closed_beta_indices() == set()


class TestFiniteCoverAgainstFormula:
    @pytest.mark.parametrize(
        "exps,expected",
        [
            (((1, 2), (1, 2), (0, 1)), (0, 4)),
            (((1, 3), (1, 3), (1, 3)), (1, 3)),
            (((1, 2), (1, 3), (1, 6)), (1, 6)),
        ],
    )
    def test_saturated_ball_matches_formula(self, exps, expected):
        from leaftype import riemann_hurwitz_finite
        from leaftype.targets import deck_group_is_finite

        rep = circle_rep(3, [rational(p, q) for p, q in exps])
        finite, k = deck_group_is_finite(rep)
        assert finite
        label = riemann_hurwitz_finite(rep)
        assert (label.genus, label.punctures) == expected
        s = surface_for(rep, k)
        assert (s.genus, s.r) == expected

    def test_nonabelian_symmetric_cover(self):
        # S3 holonomy on the three-punctured sphere: the conjugated shift
        # pairings are what make the saturated complex the genuine cover
        from leaftype import Representation, SurfacePresentation, riemann_hurwitz_finite
        from leaftype.targets import PermutationElement

        pres = SurfacePresentation(0, 3)
        rep = Representation(
            pres,
            "permutation",
            {
                "c1": PermutationElement.of([1, 0, 2]),
                "c2": PermutationElement.of([0, 2, 1]),
            },
        )
        label = riemann_hurwitz_finite(rep)
        assert (label.genus, label.punctures) == (0, 8)
        s = surface_for(rep, 6)
        assert s.connected
        assert (s.genus, s.r) == (0, 8)
        small = surface_for(rep, 1)
        assert small.genus >= 0  # partial nonabelian balls stay consistent


class TestPermutationCoverSurfaces:
    """Glued surfaces of seeded permutation covers, pinned to the values the
    tuple-keyed gluing gave; 72 of the 200 are disconnected partial balls."""

    GOLDEN_SHA256 = "423188b16633dd9c7d27e4e6aa3725a099062bb362cbf110dc1f6b4d7154445f"

    @staticmethod
    def covers(count, seed):
        rng = random.Random(seed)
        for _ in range(count):
            genus = rng.randint(0, 1)
            pres = SurfacePresentation(genus, rng.randint(3, 4) if genus == 0 else rng.randint(1, 2))
            degree = rng.randint(3, 5)
            images = {}
            for gen in pres.free_gens:
                mapping = list(range(degree))
                rng.shuffle(mapping)
                images[gen] = PermutationElement.of(mapping)
            yield Representation(pres, "permutation", images), rng.randint(1, 3)

    def test_rows_match_golden(self):
        rows = []
        for rep, radius in self.covers(200, 20261019):
            s = surface_for(rep, radius)
            rows.append(dict(
                s.to_json_dict(),
                root_F=s.root_F,
                closed_beta=sorted(s.closed_beta_indices()),
                whole_chi=s.chi,
                whole_r=s.r,
            ))
        assert sum(not row["connected"] for row in rows) == 72
        assert sum(row["root_F"] for row in rows) == 2429
        assert sum(row["genus"] for row in rows) == 895
        text = "\n".join(json.dumps(row, sort_keys=True) for row in rows)
        assert hashlib.sha256(text.encode()).hexdigest() == self.GOLDEN_SHA256

    def test_partner_glued_to_two_sides_raises(self, log3_case2):
        s = surface_for(log3_case2, 2)
        glued = [side for side, other in enumerate(s.partner) if other >= 0]
        a = glued[0]
        c = next(side for side in glued if side not in (a, s.partner[a]))
        # side a now claims c's partner, which stays glued to c
        s.partner[a] = s.partner[c]
        with pytest.raises(InternalConsistencyError):
            s._count()


class TestParityProperties:
    """Algebraic laws of the mod-2 intersection form on seeded kernel words."""

    @staticmethod
    def kernel_words(rep, rng, count):
        gens = rep.presentation.free_gens

        def random_word():
            w = Word()
            for _ in range(rng.randint(1, 3)):
                w = w * Word.generator(rng.choice(gens), rng.choice((1, -1)))
            return w

        c1, c2 = Word.generator("c1"), Word.generator("c2")
        # the witness pair of the cyclic and mixed covers above, where it is kernel
        words = [
            w for w in (commutator(c1, c2), commutator(c1.inverse(), c2))
            if rep.evaluate(w).is_identity
        ]
        while len(words) < count:
            u, v = random_word(), random_word()
            for w in (commutator(u, v), u ** 2, u ** 3, commutator(u, v) ** 3):
                if w.letters and rep.evaluate(w).is_identity and w not in words:
                    words.append(w)
                    break
        return words

    @staticmethod
    def covers():
        t = symbol("t")
        permutation = Representation(
            SurfacePresentation(0, 3),
            "permutation",
            {
                "c1": PermutationElement.of([1, 0, 2]),
                "c2": PermutationElement.of([0, 2, 1]),
            },
        )
        return [
            ("circle", circle_rep(3, [t, rational(1, 2), rational(1, 2) - t]), 8),
            ("permutation", permutation, 6),
            (
                "trivial generator",
                circle_rep(4, [t, rational(1, 3), rational(0), rational(2, 3) - t]),
                8,
            ),
        ]

    def test_symmetric_additive_and_base_independent(self):
        rng = random.Random(20261018)
        odd_pairs = 0
        busiest_edge = 0
        for name, rep, radius in self.covers():
            s = surface_for(rep, radius)
            words = self.kernel_words(rep, rng, 5)
            root = s.ball.root
            other = next(k for k in sorted(s.ball.distances, key=lambda v: v.key()) if s.ball.distances[k] == 1)

            def lift(w, base=root):
                p = lift_cycle(rep, s, w, base)
                assert p.closed, (name, w)
                return p

            def parity(a, b, base=root):
                return intersection_number_mod2(lift(a, base), lift(b, base))

            for a in words:
                assert parity(a, a) == 0, (name, a)
                for b in words:
                    bit = parity(a, b)
                    odd_pairs += bit
                    assert bit == parity(b, a), (name, a, b)
                    assert bit == parity(a, b, other), (name, a, b)
                    edges = Counter(
                        (pair, frozenset(p.face_ids[k:k + 2]))
                        for p in (lift(a), lift(b))
                        for k, (pair, _) in enumerate(p.steps)
                    )
                    busiest_edge = max(busiest_edge, max(edges.values(), default=0))
                    for c in words:
                        assert parity(a, b * c) == (bit + parity(a, c)) % 2, (name, a, b, c)
        assert odd_pairs >= 1
        assert busiest_edge >= 3


class TestFreeReduction:
    """Loop paths are freely reduced; parity bits are those of the unreduced paths."""

    @staticmethod
    def covers(rng):
        t, u = symbol("t"), symbol("u")
        out = []
        choices = [t, u, -t, rational(1, 2), rational(1, 3), rational(0), t + rational(1, 2)]
        for n in range(3, 9):
            exps = [rng.choice(choices) for _ in range(n - 1)]
            out.append(circle_rep(n, exps + [-sum(exps, ExponentScalar())]))
        out.append(
            Representation.circle_from_exponents(
                SurfacePresentation(1, 3), [t, rational(1, 2), -t - rational(1, 2)], [u, rational(0)]
            )
        )
        return out

    def test_paths_are_reduced_and_linear(self):
        for g, n in [(0, 12), (6, 0), (2, 8)]:
            tpl = DomainTemplate(SurfacePresentation(g, n))
            for gen in tpl.presentation.alphabet:
                path = tpl.word_path(Word.generator(gen))
                assert all(path[k] != (path[k + 1][0], -path[k + 1][1]) for k in range(len(path) - 1))
                assert len(path) <= 8 * g + 2 * n + 1

    def test_parity_unchanged_by_backtracks(self):
        rng = random.Random(8)
        covers = self.covers(rng)
        reduced = [AbstractCover(rep) for rep in covers]
        padded = [AbstractCover(rep) for rep in covers]
        for cover in padded:
            # seeded backtracks (p, d)(p, -d) at seeded places in every letter path
            names = sorted(cover.template.pairs)
            for gen in cover.template.presentation.alphabet:
                cover.template.word_path(Word.generator(gen))  # writes both orientations
            paths = cover.template._letter_paths
            for letter in sorted(paths):
                steps = list(paths[letter])
                for _ in range(rng.randint(1, 4)):
                    p, d = rng.choice(names), rng.choice((1, -1))
                    k = rng.randint(0, len(steps))
                    steps[k:k] = [(p, d), (p, -d)]
                paths[letter] = tuple(steps)
        bits = []
        for rep, red, pad in zip(covers, reduced, padded):
            words = TestParityProperties.kernel_words(rep, rng, 4)
            for a in words:
                assert len(pad.lift(a)) > len(red.lift(a)) or not a.letters
                for b in words:
                    bit = intersection_number_mod2(red.lift(a), red.lift(b))
                    padded_bit = intersection_number_mod2(pad.lift(a), pad.lift(b))
                    assert bit == padded_bit, (rep.presentation, a, b)
                    bits.append(bit)
        assert 0 < sum(bits) < len(bits)


def pairwise_parity(p1, p2):
    """Test oracle: every chord of one path against every chord of the other
    on the same face, with the kernel's offsets and side rule."""
    tpl = p1.surface.template
    steps = p1.steps + p2.steps
    M = len(steps) + 1
    circumference = tpl.size * M
    self_glued = {name for (name, _), s in p1.surface._steps.items() if s.is_identity}

    def position(k, entering):
        name, d = steps[k]
        pair = tpl.pairs[name]
        slot = pair.neg_slot if (d == 1) == entering else pair.pos_slot
        on_pos_face = slot == pair.pos_slot or name in self_glued
        return slot * M + (k + 1 if on_pos_face else M - k - 1)

    def chords(path, first):
        n = len(path.steps)
        return [
            (path.face_ids[i + 1], position(first + i, True), position(first + (i + 1) % n, False))
            for i in range(n)
        ]

    def inside(a, b, p):
        return 0 < (p - a) % circumference < (b - a) % circumference

    return sum(
        inside(x1, y1, x2) != inside(x1, y1, y2)
        for f1, x1, y1 in chords(p1, 0)
        for f2, x2, y2 in chords(p2, len(p1.steps))
        if f1 == f2
    ) % 2


class TestParityKernel:
    """The sorted sweep against the pairwise oracle, and one lift per word."""

    @staticmethod
    def kernel_words(rep, rng, count):
        gens = rep.presentation.free_gens
        words = []
        for _ in range(400):
            u, v = (
                Word.from_letters((rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randint(1, 3)))
                for _ in range(2)
            )
            for w in (commutator(u, v), u ** rng.randint(2, 4), commutator(u ** 2, v) * commutator(v, u)):
                if w.letters and w not in words and rep.evaluate(w).is_identity:
                    words.append(w)
            if len(words) >= count:
                break
        return words[:count]

    @staticmethod
    def covers(rng):
        t, u = symbol("t"), symbol("u")
        choices = [t, u, -t, t.scale(2), rational(0), rational(1, 2), rational(1, 3), t + rational(1, 2)]
        out = [
            circle_rep(4, [t.scale(2), rational(0), t.scale(2), t.scale(-4)]),
            circle_rep(4, [t, rational(1, 3), rational(0), rational(2, 3) - t]),
        ]
        for n in (3, 4, 5):
            exps = [rng.choice(choices) for _ in range(n - 1)]
            out.append(circle_rep(n, exps + [-sum(exps, ExponentScalar())]))
        # PSL(2, Z): z -> -1/z has order 2 and z -> z + 1 infinite order
        out.append(
            Representation(
                SurfacePresentation(0, 3),
                "moebius",
                {"c1": moebius(0, -1, 1, 0), "c2": moebius(1, 1, 0, 1)},
            )
        )
        return out

    def test_sweep_matches_pairwise_oracle_on_the_abstract_cover(self):
        rng = random.Random(20261019)
        bits = []
        self_glued_covers = 0
        for rep in self.covers(rng):
            cover = AbstractCover(rep)
            self_glued_covers += any(s.is_identity for s in cover.surface._steps.values())
            words = self.kernel_words(rep, rng, 6)
            assert len(words) >= 3, rep.presentation
            for a in words:
                for b in words:
                    p1, p2 = cover.lift(a), cover.lift(b)
                    bit = intersection_number_mod2(p1, p2)
                    assert bit == pairwise_parity(p1, p2), (rep.kind, a, b)
                    bits.append(bit)
        assert self_glued_covers >= 2
        assert 0 < sum(bits) < len(bits)

    def test_sweep_matches_pairwise_oracle_on_a_glued_ball(self, log3_case2):
        rng = random.Random(7)
        t = symbol("t")
        bits = []
        for rep, radius in ((log3_case2, 8), (circle_rep(4, [t, rational(1, 3), rational(0), rational(2, 3) - t]), 6)):
            s = surface_for(rep, radius)
            bases = sorted((v for v, d in s.ball.distances.items() if d <= 1), key=lambda v: v.key())
            lifts = [
                p
                for w in self.kernel_words(rep, rng, 6)
                for p in (lift_cycle(rep, s, w, base) for base in bases)
                if p.closed
            ]
            assert len(lifts) >= 6
            for p1 in lifts:
                for p2 in lifts:
                    bit = intersection_number_mod2(p1, p2)
                    assert bit == pairwise_parity(p1, p2)
                    bits.append(bit)
        assert 0 < sum(bits) < len(bits)

    def test_a_word_is_lifted_once_per_cover(self, log3_case2):
        cover = AbstractCover(log3_case2)
        w = commutator(Word.generator("c1"), Word.generator("c2"))
        again = commutator(Word.generator("c1"), Word.generator("c2"))
        assert cover.lift(w) is cover.lift(w) is cover.lift(again)
        assert cover.lift(w) is not AbstractCover(log3_case2).lift(w)
        assert cover.lift(w).face_ids[0] == cover.lift(w).face_ids[-1]

    def test_a_dropped_cover_is_freed_without_the_cycle_collector(self, log3_case2):
        # the memo holds paths; a path pointing back at the cover would make
        # every witness search leave a reference cycle behind
        import gc
        import weakref

        cover = AbstractCover(log3_case2)
        path = cover.lift(commutator(Word.generator("c1"), Word.generator("c2")))
        gone = weakref.ref(cover)
        gc.disable()
        try:
            del cover
            assert gone() is None
        finally:
            gc.enable()
        assert path.closed

    def test_blind_spot_search_lifts_each_distinct_word_once(self, monkeypatch):
        from leaftype import handle_witness_search

        lifts, calls = [0], [0]
        _lift, lift = gluing._lift, AbstractCover.lift

        def counting_lift(*args):
            lifts[0] += 1
            return _lift(*args)

        def counting_calls(self, word):
            calls[0] += 1
            return lift(self, word)

        monkeypatch.setattr(gluing, "_lift", counting_lift)
        monkeypatch.setattr(AbstractCover, "lift", counting_calls)
        t = symbol("t")
        rep = circle_rep(4, [t.scale(2), rational(0), t.scale(2), t.scale(-4)])
        assert handle_witness_search(rep) is None
        assert calls[0] == 864
        assert lifts[0] <= 144
