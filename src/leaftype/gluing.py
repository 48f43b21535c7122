"""Combinatorial covering surfaces glued from fundamental-domain copies.

One copy of the cut fundamental domain per Cayley-ball vertex. The cut
domain of the (g, n) surface with delta-disks removed is a disk with
boundary word

    a_1 b_1 a_1^-1 b_1^-1 ... a_g b_g a_g^-1 b_g^-1  s_1 beta_1 s_1^-1 ...

where the a, b edges and the slit edges s_j are glued and the beta_j arcs
(the delta-circle pieces) stay free. Crossing a glued edge moves between
deck elements by a step element: with pre[k] the image of the boundary
letters before slot k (beta_j reads c_j, the slits read nothing), crossing
a pair from its pos slot moves a face by pre[pos + 1] * pre[neg]^-1. These
conjugated steps, not the bare generator images, are what make the complex
the actual covering surface when the deck group is nonabelian; for abelian
deck groups they reduce to generator images up to inversion.

Lifted cycles are realized as crossing sequences through face interiors
(the generic pushoff of the based loop), so mod-2 intersection numbers
reduce to exact chord-interleaving counts inside disk faces, with integer
offsets along shared edges standing in for a geometric perturbation. Each
generator's loop is written in closed form at its first use, crossings
(pair, +-1) read as letters: with X_k = b_k^-1 a_k b_k a_k^-1 and
kappa_i = X_{i-1}...X_1, a_i is kappa_i^-1 a_i b_i a_i^-1 kappa_i and b_i
is kappa_i^-1 a_i b_i^-1 a_i^-1 b_i a_i^-1 kappa_i; with P_j =
s_{j-1}^-1...s_1^-1 kappa_{g+1}, c_j is P_j^-1 s_j^-1 P_j. No letters
cancel at the joins, so each path is freely reduced and linear in g + n;
reduction is a homotopy, so it keeps every mod-2 intersection number.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Dict, List, Optional, Sequence, Tuple

from .cayley import CayleyBall, build_ball
from .targets import DEFAULT_VERTEX_BUDGET, Element, Representation
from .words import Letter, SurfacePresentation, Word

Crossing = Tuple[str, int]  # (pair name, +1 = cross from the pos slot side)


class InternalConsistencyError(RuntimeError):
    """A structural invariant of a glued complex failed; indicates a bug."""


@dataclass(frozen=True)
class TemplatePair:
    name: str
    pos_slot: int
    neg_slot: int


class DomainTemplate:
    """The cut fundamental domain of a punctured surface, as a slot list."""

    def __init__(self, presentation: SurfacePresentation):
        self.presentation = presentation
        g, n = presentation.genus, presentation.punctures
        slots: List[Tuple[str, str]] = []  # (label, role) role in {pair_pos, pair_neg, free}
        pair_pos: Dict[str, int] = {}
        pair_neg: Dict[str, int] = {}
        for i in range(1, g + 1):
            for label, role in (
                ("a%d" % i, "pos"),
                ("b%d" % i, "pos"),
                ("a%d" % i, "neg"),
                ("b%d" % i, "neg"),
            ):
                (pair_pos if role == "pos" else pair_neg)[label] = len(slots)
                slots.append((label, role))
        for j in range(1, n + 1):
            pair_pos["s%d" % j] = len(slots)
            slots.append(("s%d" % j, "pos"))
            slots.append(("beta%d" % j, "free"))
            pair_neg["s%d" % j] = len(slots)
            slots.append(("s%d" % j, "neg"))
        self.slots = tuple(slots)
        self.size = len(slots)
        self.pairs: Dict[str, TemplatePair] = {
            name: TemplatePair(name, pos, pair_neg[name]) for name, pos in pair_pos.items()
        }
        # both orientations of each generator's loop, written at the first use
        self._letter_paths: Dict[Letter, Tuple[Crossing, ...]] = {}

    # -- generic-position loop representatives ----------------------------

    def word_path(self, word: Word) -> Tuple[Crossing, ...]:
        """The letters' paths end to end, not reduced across letters: a
        witness's visited faces are read off these steps. The crossings are
        the template's own tuples."""
        paths = self._letter_paths
        out: List[Crossing] = []
        for letter in word.letters:
            seq = paths.get(letter)
            if seq is None:
                self._write_path(*letter)
                seq = paths[letter]
            out.extend(seq)
        return tuple(out)

    def _write_path(self, gen: str, sign: int) -> None:
        """Both orientations of a generator's loop, in the closed form of
        the module docstring: (gen, -1) reverses it and flips every sign."""
        self.presentation.check_gen(gen)
        if sign not in (1, -1):
            raise ValueError("letter %r has no sign +1 or -1" % ((gen, sign),))
        k = int(gen[1:])
        if gen[0] == "c":
            core = [("s%d" % k, -1)]
            prefix = [("s%d" % j, -1) for j in range(k - 1, 0, -1)]
            handles = self.presentation.genus
        else:
            a, b = "a%d" % k, "b%d" % k
            core = [(a, 1), (b, 1), (a, -1)] if gen[0] == "a" else [(a, 1), (b, -1), (a, -1), (b, 1), (a, -1)]
            prefix = []
            handles = k - 1
        for i in range(handles, 0, -1):
            a, b = "a%d" % i, "b%d" % i
            prefix += ((b, -1), (a, 1), (b, 1), (a, -1))
        path = [(p, -d) for p, d in reversed(prefix)] + core + prefix
        self._letter_paths[gen, 1] = tuple(path)
        self._letter_paths[gen, -1] = tuple((p, -d) for p, d in reversed(path))

    def step_elements(self, rep: Representation) -> Dict[Crossing, Element]:
        """The deck element by which each crossing (pair, direction) moves a
        face: pre[pos + 1] * pre[neg]^-1 from the pos slot, with pre built
        in one running product, so each step costs O(1) composes."""
        pre: List[Element] = []
        acc = rep.identity()
        for label, role in self.slots:
            pre.append(acc)
            if role == "free":
                acc = acc.compose(rep.image("c" + label[4:]))
            elif label[0] != "s":
                image = rep.image(label)
                acc = acc.compose(image if role == "pos" else image.inverse())
        steps: Dict[Crossing, Element] = {}
        for name, pair in self.pairs.items():
            step = pre[pair.pos_slot + 1].compose(pre[pair.neg_slot].inverse())
            steps[name, 1] = step
            steps[name, -1] = step.inverse()
        return steps


class _LiftSurface:
    """What lifting and parity need of a surface: the template, the deck
    element each crossing moves a face by, and an int id per face."""

    def __init__(self, rep: Representation):
        self.representation = rep
        self.template = DomainTemplate(rep.presentation)
        self._steps = self.template.step_elements(rep)

    def _face_id(self, element: Element) -> Optional[int]:
        """The id of the face at a deck element; None if the surface lacks it."""
        raise NotImplementedError

    @cached_property
    def _sides(self) -> Dict[Crossing, Tuple[Tuple[int, bool], Tuple[int, bool]]]:
        """(slot, pos side) of the entering and of the leaving endpoint of each crossing."""
        out = {}
        for (name, d), shift in self._steps.items():
            pair = self.template.pairs[name]
            enter, leave = (pair.neg_slot, pair.pos_slot) if d == 1 else (pair.pos_slot, pair.neg_slot)
            # a trivial shift glues every face to itself; pos side on both slots is ROADMAP F1
            out[name, d] = tuple(
                (slot, slot == pair.pos_slot or shift.is_identity) for slot in (enter, leave)
            )
        return out


class GluedSurface(_LiftSurface):
    """A compact surface with boundary built over a Cayley ball.

    Face set equals the ball vertices; a glued slot is paired exactly when
    the shifted partner face lies in the ball, otherwise it is a free
    frontier edge. Side `slot` of face f is the int f * size + slot, and so
    is the corner where that side starts; partner[s] is the side glued to
    side s, or -1 for a free side. V and E count the whole surface; F, chi
    and the boundary count in `to_json_dict` are those of the component
    containing the root face (partial balls of nonabelian covers can
    disconnect; the connected flag records it).
    """

    def __init__(self, rep: Representation, ball: CayleyBall):
        super().__init__(rep)
        self.ball = ball
        self.faces: List[Element] = list(ball.distances)
        self.face_index: Dict[Element, int] = {v: i for i, v in enumerate(self.faces)}
        self._glue()
        self._count()

    # -- construction ------------------------------------------------------

    def _glue(self) -> None:
        L = self.template.size
        index = self.face_index
        pairs = [
            (pair.pos_slot, pair.neg_slot, self._steps[name, 1])
            for name, pair in self.template.pairs.items()
        ]
        partner = [-1] * (len(self.faces) * L)
        for fi, v in enumerate(self.faces):
            for pos, neg, shift in pairs:
                fj = index.get(v.compose(shift))
                if fj is not None:
                    partner[fi * L + pos] = fj * L + neg
                    partner[fj * L + neg] = fi * L + pos
        self.partner = partner
        self.free_sides: List[int] = [s for s, t in enumerate(partner) if t < 0]

    def _count(self) -> None:
        """Count V twice, by union-find and by rotation walks, and trace the
        boundary circles on the same walks.

        Glued sides run in opposite directions, so corner c, where side c
        starts, is the same vertex as rot[c], the corner where the side glued
        to side c ends; rot[c] is -1 where side c is free. A vertex is a
        union-find class of {c, rot[c]}, and again one walk along rot: a
        chain from the end of a free side to the next free side along that
        boundary circle, or a closed orbit. A walk that meets a corner twice
        raises, so a broken partner list cannot make it loop.
        """
        L = self.template.size
        partner, free = self.partner, self.free_sides
        n = len(partner)
        rot = [-1 if t < 0 else t + 1 - L if t % L == L - 1 else t + 1 for t in partner]

        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for c, d in enumerate(rot):
            if d >= 0:
                a, b = find(c), find(d)
                if a != b:
                    parent[b] = a
        self.V = sum(p == x for x, p in enumerate(parent))

        visited = [False] * n
        vertices: List[int] = []  # the first corner of each chain and orbit
        circles: List[int] = []  # the first side of each boundary circle
        self._closed_betas = set()
        for s0 in free:
            if visited[s0 + 1 - L if s0 % L == L - 1 else s0 + 1]:
                continue  # on a circle traced already
            circles.append(s0)
            pure = True  # every side in the same slot
            s = s0
            while True:
                c = s + 1 - L if s % L == L - 1 else s + 1
                if visited[c]:
                    break
                vertices.append(c)
                visited[c] = True
                while rot[c] >= 0:
                    c = rot[c]
                    if visited[c]:
                        raise InternalConsistencyError("rotation walk revisited corner %d" % c)
                    visited[c] = True
                s = c  # the next free side along this circle
                pure = pure and s % L == s0 % L
            if s != s0:
                raise InternalConsistencyError("boundary cycle did not close up")
            label, role = self.template.slots[s0 % L]
            if pure and role == "free":
                self._closed_betas.add(int(label[4:]))
        for c0 in range(n):
            if visited[c0]:
                continue
            vertices.append(c0)
            c = c0
            while True:
                visited[c] = True
                c = rot[c]
                if c == c0:
                    break
                if c < 0 or visited[c]:
                    raise InternalConsistencyError("rotation orbit of corner %d did not close up" % c0)
        if len(vertices) != self.V:
            raise InternalConsistencyError(
                "vertex count mismatch: union-find %d vs rotation tracing %d"
                % (self.V, len(vertices))
            )

        self.F = len(self.faces)
        self.E = (n + len(free)) // 2  # glued sides pair up
        self.chi = self.V - self.E + self.F
        self.r = len(circles)
        in_root = self._root_component()
        self.root_F = sum(in_root)
        self.connected = self.root_F == self.F
        # chains, orbits and glued sides never leave a component
        self.root_chi = (
            sum(in_root[c // L] for c in vertices)
            - (self.root_F * L + sum(in_root[s // L] for s in free)) // 2
            + self.root_F
        )
        self.root_r = sum(in_root[s // L] for s in circles)
        genus2 = 2 - self.root_chi - self.root_r
        if genus2 < 0 or genus2 % 2 != 0:
            raise InternalConsistencyError(
                "invalid genus from chi=%d r=%d" % (self.root_chi, self.root_r)
            )
        self.genus = genus2 // 2

    def _root_component(self) -> List[bool]:
        """Per face: whether glued sides connect it to the root face."""
        L = self.template.size
        root = self.face_index[self.ball.root]
        in_root = [False] * len(self.faces)
        in_root[root] = True
        stack = [root]
        while stack:
            f = stack.pop()
            for t in self.partner[f * L:f * L + L]:
                if t >= 0 and not in_root[t // L]:
                    in_root[t // L] = True
                    stack.append(t // L)
        return in_root

    # -- queries -----------------------------------------------------------

    def closed_beta_indices(self) -> set:
        """Puncture indices whose delta-circle closes up inside this ball."""
        return set(self._closed_betas)

    def orientation_consistent(self) -> bool:
        """Every pairing joins a pos-side slot to a neg-side slot, so giving
        all faces the same orientation reverses glued edges as required."""
        L = self.template.size
        roles = [role for _, role in self.template.slots]
        return all(
            t < 0 or {roles[s % L], roles[t % L]} == {"pos", "neg"}
            for s, t in enumerate(self.partner)
        )

    def _face_id(self, element: Element) -> Optional[int]:
        return self.face_index.get(element)

    def to_json_dict(self) -> dict:
        return {
            "N": self.ball.radius,
            "F": self.root_F,
            "E": self.E,
            "V": self.V,
            "chi": self.root_chi,
            "boundary_components": self.root_r,
            "genus": self.genus,
            "connected": self.connected,
        }


# -- lifted cycles ----------------------------------------------------------


class _CoverSurface(_LiftSurface):
    """The faces of the full cover: every deck element, given an int id the
    first time a lift reaches it."""

    def __init__(self, rep: Representation):
        super().__init__(rep)
        self._face_ids: Dict[Element, int] = {}

    def _face_id(self, element: Element) -> int:
        fid = self._face_ids.get(element)
        if fid is None:
            fid = self._face_ids[element] = len(self._face_ids)
        return fid


class AbstractCover:
    """The full covering surface, used as a lift context without a ball.

    Faces are arbitrary deck elements and every glued edge exists, so the
    lift of any kernel word closes. Witness confirmation runs here; balls
    are only needed when frontier behavior matters. Each word is lifted
    once: a repeated lift returns the same LiftedPath. The paths live on
    `surface`, which holds none of them, so a dropped cover and its paths
    are freed at once rather than by the cycle collector.
    """

    def __init__(self, rep: Representation):
        self.representation = rep
        self.surface = _CoverSurface(rep)
        self.template = self.surface.template
        self._lifts: Dict[Tuple[Letter, ...], LiftedPath] = {}

    def lift(self, word: Word) -> "LiftedPath":
        path = self._lifts.get(word.letters)
        if path is None:
            path = self._lifts[word.letters] = _lift(self.surface, self.representation.identity(), word)
        return path


@dataclass
class LiftedPath:
    """A lifted loop: the crossings it made and the faces it passed.

    face_ids holds the start face, then the face after each step, as the
    surface's face ids. A path that leaves the ball stops at its last face
    inside, with complete False and the steps it made until then.
    """

    surface: _LiftSurface
    steps: Tuple[Crossing, ...]
    face_ids: Tuple[int, ...]
    complete: bool

    @property
    def exits_ball(self) -> bool:
        return not self.complete

    @property
    def closed(self) -> bool:
        return self.complete and self.face_ids[-1] == self.face_ids[0]

    def __len__(self) -> int:
        return len(self.steps)


def _lift(surface: _LiftSurface, start: Element, word: Word) -> LiftedPath:
    """Cross one glued edge per step of the word's path, starting at face start.

    Stops with an open path at the first face the surface does not have.
    """
    steps = surface.template.word_path(word)
    moves = surface._steps
    face_id = surface._face_id
    cur = start
    ids = [face_id(start)]
    for k, step in enumerate(steps):
        cur = cur.compose(moves[step])
        fid = face_id(cur)
        if fid is None:
            return LiftedPath(surface, steps[:k], tuple(ids), False)
        ids.append(fid)
    return LiftedPath(surface, steps, tuple(ids), True)


def lift_cycle(
    rep: Representation,
    ball_or_surface,
    word: Word,
    base: Optional[Element] = None,
) -> LiftedPath:
    """Lift the pushed-off loop of a word to the glued surface at a base face.

    The path crosses one glued edge per crossing of the generic-position
    representative; it is closed exactly when the word evaluates to the
    identity. Leaving the ball is reported with a marker, not an error.
    """
    surface = (
        ball_or_surface
        if isinstance(ball_or_surface, GluedSurface)
        else GluedSurface(rep, ball_or_surface)
    )
    ball = surface.ball
    base = base if base is not None else ball.root
    if base not in ball.distances:
        raise ValueError("base face %r is not in the ball" % (base,))
    return _lift(surface, base, word)


def intersection_number_mod2(p1: LiftedPath, p2: LiftedPath) -> int:
    """Z/2 homological intersection number of two closed lifted cycles.

    Each visit of a path to a face is a chord between boundary positions of
    that disk face; two chords cross mod 2 iff their endpoints interleave.
    The k-th step of path 1, then path 2, sits at integer offset k along its
    edge. With M = len(p1) + len(p2) + 1, slot s of a face spans positions
    s*M + 1 .. s*M + M - 1 of a circle of length size*M: the endpoint is at
    s*M + k + 1 seen from the edge's pos-side face and at s*M + M - k - 1
    from the other face, so the two sides of a gluing see its crossings in
    opposite orders. This realizes the canonical perturbation. Total parity
    is a homotopy invariant, so the particular offset order does not matter.

    The count is one sorted sweep, and it is exact. Endpoints on one face
    never coincide: slots own disjoint ranges, and each slot uses one of
    the two offset formulas, which is injective in k. Chords (a, b) and
    (x, y) interleave iff exactly one of x, y lies strictly inside the arc
    from a to b, and [x inside] xor [y inside] is [x inside] + [y inside]
    mod 2. So the parity is the number of path-2 endpoints inside path-1
    arcs on the same face, mod 2. Path 2 puts an even number of endpoints
    on each face, so an arc and its complement hold counts of equal
    parity. Key every endpoint face * size*M + position and let rank(x)
    count the path-2 keys below x: the arc strictly between a and b holds
    |rank(b) - rank(a)| of them, which is rank(a) + rank(b) mod 2. Each
    path-1 endpoint ends exactly one chord, so the parity is the sum of the
    ranks of all path-1 endpoints mod 2: the path-2 keys are sorted once
    and each path-1 endpoint takes one bisection.
    """
    surface = p1.surface
    if p2.surface is not surface:
        raise ValueError("paths live on different glued surfaces")
    for p in (p1, p2):
        if not p.closed:
            raise ValueError("intersection numbers require closed paths")
    n1 = len(p1.steps)
    M = n1 + len(p2.steps) + 1
    C = surface.template.size * M
    sides = surface._sides
    ends = sorted(_endpoints(p2, n1, M, C, sides))
    return sum(map(partial(bisect, ends), _endpoints(p1, 0, M, C, sides))) % 2


def _endpoints(path: LiftedPath, first: int, M: int, C: int, sides) -> List[int]:
    """The keys face * C + position of both endpoints of every step of a
    closed path, with the steps numbered from first."""
    steps, ids = path.steps, path.face_ids
    n = len(steps)
    # the chord in face ids[i + 1] runs from step i to step i + 1, which
    # leaves face ids[(i + 1) % n]; the two differ only where the path wraps
    if n and ids[0] != ids[n]:
        raise InternalConsistencyError("lifted path is not contiguous")
    ks = range(first + 1, first + n + 1)
    table = [sides[step] for step in steps]
    enter = [f * C + s * M + (k if pos else M - k) for f, ((s, pos), _), k in zip(ids[1:], table, ks)]
    leave = [f * C + s * M + (k if pos else M - k) for f, (_, (s, pos)), k in zip(ids, table, ks)]
    return enter + leave


# -- growth tables -----------------------------------------------------------


def genus_growth(
    rep: Representation,
    radii: Sequence[int],
    vertex_budget: int = DEFAULT_VERTEX_BUDGET,
) -> List[dict]:
    """Per-radius surface invariants (N, chi, boundary count, genus)."""
    rows: List[dict] = []
    last = None
    for N in radii:
        if last is not None and N <= last:
            raise ValueError("radius schedule must be strictly increasing")
        last = N
        surface = GluedSurface(rep, build_ball(rep, N, vertex_budget))
        row = surface.to_json_dict()
        rows.append(row)
    return rows
