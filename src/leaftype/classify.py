"""End-space invariants and the topological type of a regular cover.

The pipeline decides, from an exact holonomy representation:

  * whether the deck group is finite (then the cover is a compact surface
    determined by unbranched Riemann-Hurwitz data),
  * which punctures have finite holonomy order (their delta-circles close in
    the cover and contribute a discrete set of planar ends),
  * the end space of the cover with those holes plugged, read off from the
    group of the remaining generators (finite, one, two or Cantor),
  * whether the cover has infinite genus, certified by a pair of lifted
    cycles with odd intersection number, or genus zero up to a radius.

A certified combination is named among the eleven infinite-cover surface
types; anything uncertain keeps its evidence report and withholds the name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import permutations
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .gluing import AbstractCover, genus_growth, intersection_number_mod2
from .targets import (
    CIRCLE,
    DEFAULT_VERTEX_BUDGET,
    INFINITE,
    MOEBIUS_FINITE_CAP,
    Element,
    Order,
    Representation,
    circle_free_rank,
    deck_group_is_finite,
    enumerate_group,
    ping_pong_free_certificate,
)
from .words import (
    SurfacePresentation,
    Word,
    handle_pair_witness,
    puncture_pair_witness,
)

# the eleven infinite-cover types
PLANE = "plane"
LOCH_NESS_MONSTER = "loch_ness_monster"
CYLINDER = "cylinder"
JACOBS_LADDER = "jacobs_ladder"
CANTOR_TREE = "cantor_tree"
BLOOMING_CANTOR_TREE = "blooming_cantor_tree"
PLANE_MINUS_DISCRETE = "plane_minus_discrete"
LNM_MINUS_DISCRETE = "lnm_minus_discrete"
JACOBS_LADDER_MINUS_DISCRETE = "jacobs_ladder_minus_discrete"
CANTOR_TREE_MINUS_DISCRETE = "cantor_tree_minus_discrete"
BLOOMING_CANTOR_TREE_MINUS_DISCRETE = "blooming_cantor_tree_minus_discrete"

ENDS_ZERO = "zero"
ENDS_ONE = "one"
ENDS_TWO = "two"
ENDS_CANTOR = "cantor"
ENDS_INCONCLUSIVE = "inconclusive"

DEFAULT_SEARCH_BOUND = 6
DEFAULT_RADII = (2, 4, 6)


@dataclass(frozen=True)
class SurfaceTypeLabel:
    """Either one of the eleven names or finite-cover data."""

    name: str
    genus: Optional[int] = None
    punctures: Optional[int] = None

    @staticmethod
    def finite_cover(genus: int, punctures: int) -> "SurfaceTypeLabel":
        return SurfaceTypeLabel("finite_cover", genus, punctures)

    def to_json_dict(self) -> dict:
        if self.name == "finite_cover":
            return {
                "label": self.name,
                "genus": self.genus,
                "punctures": self.punctures,
            }
        return {"label": self.name}


@dataclass
class Witness:
    """A certified handle: two cycles in the kernel with odd crossing parity."""

    case: str  # boundary_pair | handle_pair | handle_pair_torsion_{a,b,both}
    params: Dict[str, object]
    gamma1: Word
    gamma2: Word
    visited_faces: int  # distinct fundamental-domain copies the lifts touch

    def to_json_dict(self) -> dict:
        return {
            "case": self.case,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "gamma1": str(self.gamma1),
            "gamma2": str(self.gamma2),
            "visited_faces": self.visited_faces,
        }


@dataclass
class GenusClass:
    kind: str  # zero_certified | finite | infinite | inconclusive
    radius: Optional[int] = None
    value: Optional[int] = None

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.radius is not None:
            out["radius"] = self.radius
        if self.value is not None:
            out["value"] = self.value
        return out


@dataclass
class EndsReport:
    deck_is_finite: bool
    deck_order: Optional[int]
    boundary_orders: List[Order]
    planar_discrete_ends: bool
    eprime_class: str
    genus_class: GenusClass
    witness: Optional[Witness] = None
    notes: List[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "deck_is_finite": self.deck_is_finite,
            "deck_order": self.deck_order,
            "boundary_orders": [str(o) for o in self.boundary_orders],
            "planar_discrete_ends": self.planar_discrete_ends,
            "eprime_class": self.eprime_class,
            "genus_class": self.genus_class.to_json_dict(),
            "witness": self.witness.to_json_dict() if self.witness else None,
            "notes": list(self.notes),
        }


def boundary_orders(rep: Representation) -> List[Order]:
    """Exact holonomy order of each puncture loop c_1 .. c_n."""
    return [rep.image(c).order() for c in rep.presentation.boundary_gens]


def ends_of_group(rep: Representation, images: Sequence[Element]) -> str:
    """Ends of the subgroup generated by the given images.

    Circle targets are decided by the torsion-free rank. Moebius targets are
    recognized in two safe patterns: an infinite cyclic image has two ends,
    and a certified ping-pong pair of parabolics has a Cantor set of ends;
    everything else is reported inconclusive rather than guessed. A finite
    group of at most MOEBIUS_FINITE_CAP elements has zero ends; permutation
    images are always finite, so classify_cover never asks about them.
    """
    nontrivial = []
    seen = set()
    for el in images:
        if not el.is_identity and el not in seen:
            seen.add(el)
            nontrivial.append(el)
    if not nontrivial:
        return ENDS_ZERO
    if rep.kind == CIRCLE:
        rank = circle_free_rank(nontrivial)
        if rank == 0:
            return ENDS_ZERO
        return ENDS_TWO if rank == 1 else ENDS_ONE
    # Moebius
    orders = [e.order() for e in nontrivial]
    if all(o != INFINITE for o in orders):
        if enumerate_group(rep.identity(), nontrivial, MOEBIUS_FINITE_CAP) is not None:
            return ENDS_ZERO
        return ENDS_INCONCLUSIVE
    distinct = _distinct_up_to_inverse(nontrivial)
    if len(distinct) == 1 and distinct[0].order() == INFINITE:
        return ENDS_TWO
    if len(distinct) == 2 and ping_pong_free_certificate(distinct[0], distinct[1]):
        return ENDS_CANTOR
    return ENDS_INCONCLUSIVE


def _distinct_up_to_inverse(elements: Sequence[Element]) -> List[Element]:
    out: List[Element] = []
    seen = set()
    for e in elements:
        if e in seen:
            continue
        seen.add(e)
        seen.add(e.inverse())
        out.append(e)
    return out


# -- Riemann-Hurwitz for finite deck groups ----------------------------------


def riemann_hurwitz_finite(rep: Representation) -> SurfaceTypeLabel:
    """Topological type of the cover for a finite deck group.

    chi(cover) = k * (2 - 2g - n) for deck order k, the punctures of the
    cover number sum_j k / ord(c_j), and the genus follows from the closed
    Euler characteristic. Must match the glued-surface pipeline exactly.
    """
    finite, order = deck_group_is_finite(rep)
    if not finite:
        raise ValueError("Riemann-Hurwitz branch requires a finite deck group")
    return _riemann_hurwitz(rep.presentation, order, boundary_orders(rep))


def _riemann_hurwitz(pres: SurfacePresentation, k: int, orders: Sequence[Order]) -> SurfaceTypeLabel:
    """The formula for deck order k and boundary holonomy orders."""
    punctures = 0
    for o in orders:
        if o == INFINITE:
            raise ValueError("finite deck group cannot have infinite boundary order")
        punctures += k // int(o)
    chi_open = k * (2 - 2 * pres.genus - pres.punctures)
    genus2 = 2 - chi_open - punctures
    if genus2 < 0 or genus2 % 2 != 0:
        raise ValueError("inconsistent Riemann-Hurwitz data")
    return SurfaceTypeLabel.finite_cover(genus2 // 2, punctures)


# -- handle witness search ----------------------------------------------------


def handle_witness_search(
    rep: Representation,
    max_exp: int = DEFAULT_SEARCH_BOUND,
) -> Optional[Witness]:
    """First certified handle-witness pair, or None up to the bound.

    Candidates satisfying the power side conditions come from `_candidates`,
    one total exponent at a time (boundary pairs before handle pairs, then
    lexicographically), and are tested as they come: both words must lie in
    the kernel, lift closed in the full cover and cross with parity one. The
    search stops at the first pair that passes. The geometric test filters
    out configurations whose local crossing at the base is cancelled by
    extra global crossings, which the bare side conditions allow. Each
    distinct word is evaluated once and lifted once.
    """
    pres = rep.presentation
    if pres.genus == 0 and pres.punctures < 3:
        return None
    if pres.genus >= 1 and 2 * pres.genus + pres.punctures < 3:
        return None
    cover = AbstractCover(rep)
    orders = {g: rep.image(g).order() for g in pres.free_gens}
    powers = {g: [rep.image(g)] for g in pres.free_gens}

    def power(gen: str, n: int) -> Element:
        """gen^n for n >= 1, each power composed once per search."""
        ps = powers[gen]
        while len(ps) < n:
            ps.append(ps[-1].compose(ps[0]))
        return ps[n - 1]

    @cache
    def in_kernel(word: Word) -> bool:
        return rep.evaluate(word).is_identity

    for total in range(2, 4 * max_exp + 1):
        for case, params, g1, g2 in _candidates(rep, total, max_exp, orders, power):
            if not (in_kernel(g1) and in_kernel(g2)):
                continue
            p1, p2 = cover.lift(g1), cover.lift(g2)
            if p1.closed and p2.closed and intersection_number_mod2(p1, p2) == 1:
                faces = set(p1.face_ids[1:]).union(p2.face_ids[1:])
                return Witness(case, params, g1, g2, len(faces))
    return None


def _candidates(
    rep: Representation,
    total: int,
    max_exp: int,
    orders: Dict[str, Order],
    power: Callable[[str, int], Element],
) -> Iterator[Tuple[str, Dict[str, object], Word, Word]]:
    """(case, params, gamma1, gamma2) of total exponent total, in search order.

    A punctured sphere gives boundary pairs. A surface with handles gives,
    per handle j, the commutator pairs, then the torsion shortcuts on a_j,
    on b_j and on both. Every candidate meets the power side conditions; the
    kernel test is left to the caller. A torsion word a_j^m or b_j^l lies in
    the kernel by construction.
    """
    pres = rep.presentation

    def exceeds(gen: str, bound: int) -> bool:
        """True iff no power of the image of gen up to the bound is trivial."""
        o = orders[gen]
        return o == INFINITE or int(o) > bound

    def finite_order(gen: str) -> Optional[int]:
        """The order of the image of gen if it is at most max_exp."""
        return None if exceeds(gen, max_exp) else int(orders[gen])

    def products_nontrivial(b: str, d: str, beta_max: int, delta_max: int) -> bool:
        """Check b^beta d^delta not in the kernel for all exponents in range."""
        return not any(
            power(b, beta).compose(power(d, delta)).is_identity
            for beta in range(1, beta_max + 1)
            for delta in range(1, delta_max + 1)
        )

    def splits(rest: int) -> range:
        """The x in 1..max_exp with rest - x also in 1..max_exp."""
        return range(max(1, rest - max_exp), min(max_exp, rest - 1) + 1)

    if pres.genus == 0:
        # witness pairs come from the canonical set c_1 .. c_{n-1}
        for i, j in permutations(range(1, pres.punctures), 2):
            for m in range(1, max_exp + 1):
                for mp in splits(total - m):
                    l = total - m - mp
                    if exceeds(pres.c(i), m + mp) and exceeds(pres.c(j), l):
                        params = {"i": i, "j": j, "m": m, "m_prime": mp, "l": l}
                        yield ("boundary_pair", params, *puncture_pair_witness(pres, i, j, m, mp, l))
        return
    for j in range(1, pres.genus + 1):
        aj, bj = pres.a(j), pres.b(j)
        helpers = [d for d in pres.free_gens if d not in (aj, bj)]
        # full commutator-type pair; the side conditions read only k + k'
        for d in helpers:
            for m in range(1, max_exp + 1):
                if not exceeds(aj, m):
                    break
                for l in range(1, max_exp + 1):
                    if not exceeds(bj, l):
                        break
                    rest = total - m - l
                    ks = splits(rest)
                    if not (ks and exceeds(d, rest) and products_nontrivial(bj, d, l, rest)):
                        continue
                    for k in ks:
                        params = {"j": j, "d": d, "m": m, "l": l, "k": k, "k_prime": rest - k}
                        yield ("handle_pair", params, *handle_pair_witness(pres, j, d, m, l, k, rest - k))
        # torsion shortcut on a_j: gamma1 = a_j^m with m its minimal exponent
        m = finite_order(aj)
        if m is not None:
            for d in helpers:
                for l in splits(total - m):
                    if not exceeds(bj, l):
                        break
                    kp = total - m - l
                    if exceeds(d, kp) and products_nontrivial(bj, d, l, kp):
                        params = {"j": j, "d": d, "m": m, "l": l, "k_prime": kp}
                        words = handle_pair_witness(pres, j, d, m, l, 1, kp, a_torsion=True)
                        yield ("handle_pair_torsion_a", params, *words)
        # torsion shortcut on b_j
        l = finite_order(bj)
        if l is not None:
            for d in helpers:
                for m in splits(total - l):
                    if not exceeds(aj, m):
                        break
                    k = total - m - l
                    if exceeds(d, k) and products_nontrivial(aj, d, m, k):
                        params = {"j": j, "d": d, "m": m, "l": l, "k": k}
                        words = handle_pair_witness(pres, j, d, m, l, k, 1, b_torsion=True)
                        yield ("handle_pair_torsion_b", params, *words)
        # both torsion: the plain handle survives; parity needs an odd
        # overlap |<a_j> ∩ <b_j>| of the two cyclic images
        m, l = finite_order(aj), finite_order(bj)
        if m is not None and l is not None and m + l == total:
            overlap = {power(aj, e) for e in range(1, m + 1)} & {power(bj, e) for e in range(1, l + 1)}
            if len(overlap) % 2 == 1:
                words = handle_pair_witness(pres, j, "", m, l, 1, 1, a_torsion=True, b_torsion=True)
                yield ("handle_pair_torsion_both", {"j": j, "m": m, "l": l}, *words)


# -- full classification ------------------------------------------------------


def classify_cover(
    rep: Representation,
    search_bound: int = DEFAULT_SEARCH_BOUND,
    radii: Sequence[int] = DEFAULT_RADII,
    vertex_budget: int = DEFAULT_VERTEX_BUDGET,
) -> Tuple[EndsReport, Optional[SurfaceTypeLabel]]:
    """Classify the regular cover attached to a holonomy representation.

    Returns the evidence report plus a label, or None for the label when any
    invariant stayed inconclusive (the report always comes back).
    """
    pres = rep.presentation
    finite, order = deck_group_is_finite(rep, vertex_budget)
    orders = boundary_orders(rep)
    if finite:
        label = _riemann_hurwitz(pres, order, orders)
        report = EndsReport(
            deck_is_finite=True,
            deck_order=order,
            boundary_orders=orders,
            planar_discrete_ends=False,
            eprime_class=ENDS_ZERO,
            genus_class=GenusClass("finite", value=label.genus),
        )
        return report, label

    discrete = any(o != INFINITE for o in orders)
    notes: List[str] = []
    if INFINITE in orders:
        plugged_class = ENDS_ONE
    else:
        # every puncture is plugged, so the handles generate the plugged group
        plugged_class = ends_of_group(rep, [rep.image(g) for g in pres.handle_gens])
        if plugged_class == ENDS_ZERO:
            notes.append(
                "plugged-cover group of remaining generators came back finite "
                "while the deck group is infinite; end count not decided"
            )
            plugged_class = ENDS_INCONCLUSIVE

    witness = handle_witness_search(rep, search_bound)
    if witness is not None:
        genus_class = GenusClass("infinite")
    else:
        rows = genus_growth(rep, radii, vertex_budget)
        if all(row["genus"] == 0 for row in rows):
            genus_class = GenusClass("zero_certified", radius=max(radii))
        else:
            genus_class = GenusClass("inconclusive", radius=max(radii))
            notes.append(
                "glued balls show positive genus but no witness pair was "
                "certified within the search bound"
            )

    if genus_class.kind == "infinite":
        eprime = plugged_class
    elif genus_class.kind == "zero_certified":
        eprime = "empty"
    else:
        eprime = ENDS_INCONCLUSIVE

    report = EndsReport(
        deck_is_finite=False,
        deck_order=None,
        boundary_orders=orders,
        planar_discrete_ends=discrete,
        eprime_class=eprime,
        genus_class=genus_class,
        witness=witness,
        notes=notes,
    )
    label = _assemble_label(plugged_class, genus_class, discrete, notes)
    return report, label


def _assemble_label(
    plugged_class: str,
    genus_class: GenusClass,
    discrete: bool,
    notes: List[str],
) -> Optional[SurfaceTypeLabel]:
    if plugged_class in (ENDS_INCONCLUSIVE, ENDS_ZERO):
        return None
    if genus_class.kind == "inconclusive":
        return None
    infinite_genus = genus_class.kind == "infinite"
    base = {
        (ENDS_ONE, False): PLANE,
        (ENDS_ONE, True): LOCH_NESS_MONSTER,
        (ENDS_TWO, False): CYLINDER,
        (ENDS_TWO, True): JACOBS_LADDER,
        (ENDS_CANTOR, False): CANTOR_TREE,
        (ENDS_CANTOR, True): BLOOMING_CANTOR_TREE,
    }[(plugged_class, infinite_genus)]
    if not discrete:
        return SurfaceTypeLabel(base)
    named = {
        PLANE: PLANE_MINUS_DISCRETE,
        LOCH_NESS_MONSTER: LNM_MINUS_DISCRETE,
        JACOBS_LADDER: JACOBS_LADDER_MINUS_DISCRETE,
        CANTOR_TREE: CANTOR_TREE_MINUS_DISCRETE,
        BLOOMING_CANTOR_TREE: BLOOMING_CANTOR_TREE_MINUS_DISCRETE,
    }
    if base not in named:
        # a two-ended genus-zero cover with a discrete set of planar ends is
        # realizable but has no name in the eleven-type list; keep the
        # evidence and withhold the label
        notes.append(
            "cover combines two ends, genus zero and a discrete planar end "
            "set; outside the named list, label withheld"
        )
        return None
    return SurfaceTypeLabel(named[base])
