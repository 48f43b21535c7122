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
from typing import Dict, List, Optional, Sequence, Tuple

from .gluing import AbstractCover, genus_growth, intersection_number_mod2
from .targets import (
    CIRCLE,
    DEFAULT_VERTEX_BUDGET,
    INFINITE,
    MOEBIUS_FINITE_CAP,
    PERMUTATION,
    Element,
    Order,
    Representation,
    circle_free_rank,
    deck_group_is_finite,
    element_power,
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
    return [
        rep.image(c).order() for c in rep.presentation.boundary_gens
    ]


def ends_of_deck_group(rep: Representation) -> str:
    """End count of the group generated by all the generator images."""
    images = [rep.image(g) for g in rep.presentation.free_gens]
    return _ends_of_group(rep, images)


def _ends_of_group(rep: Representation, images: Sequence[Element]) -> str:
    """Ends of the subgroup generated by the given images.

    Circle targets are decided by the torsion-free rank. Moebius targets are
    recognized in two safe patterns: an infinite cyclic image has two ends,
    and a certified ping-pong pair of parabolics has a Cantor set of ends;
    everything else is reported inconclusive rather than guessed.
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
    if rep.kind == PERMUTATION:
        return ENDS_ZERO
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


class _SearchCtx:
    """Memoized order and power lookups for one witness search."""

    def __init__(self, rep: Representation):
        self.rep = rep
        self._orders: Dict[str, Order] = {}
        self._powers: Dict[Tuple[str, int], Element] = {}

    def order(self, gen: str) -> Order:
        if gen not in self._orders:
            self._orders[gen] = self.rep.image(gen).order()
        return self._orders[gen]

    def order_exceeds(self, gen: str, bound: int) -> bool:
        """True iff no power of the image of gen up to the bound is trivial."""
        o = self.order(gen)
        return o == INFINITE or int(o) > bound

    def power(self, gen: str, n: int) -> Element:
        key = (gen, n)
        if key not in self._powers:
            self._powers[key] = element_power(self.rep.image(gen), n)
        return self._powers[key]

    def products_nontrivial(self, b: str, d: str, beta_max: int, delta_max: int) -> bool:
        """Check b^beta d^delta not in the kernel for all exponents in range."""
        for beta in range(1, beta_max + 1):
            pb = self.power(b, beta)
            for delta in range(1, delta_max + 1):
                if pb.compose(self.power(d, delta)).is_identity:
                    return False
        return True


def _cyclic_intersection_size(x: Element, y: Element) -> Optional[int]:
    """|<x> ∩ <y>| for two finite-order elements; None if either is infinite."""
    ox, oy = x.order(), y.order()
    if ox == INFINITE or oy == INFINITE:
        return None
    xs = set()
    acc = x.compose(x.inverse())
    for _ in range(int(ox)):
        xs.add(acc)
        acc = acc.compose(x)
    count = 0
    acc = y.compose(y.inverse())
    for _ in range(int(oy)):
        if acc in xs:
            count += 1
        acc = acc.compose(y)
    return count


@dataclass
class _Candidate:
    case: str
    params: Dict[str, object]
    gamma1: Word
    gamma2: Word


def _boundary_pair_candidates(
    ctx: _SearchCtx, total: int, max_exp: int
) -> List[_Candidate]:
    pres, rep = ctx.rep.presentation, ctx.rep
    out: List[_Candidate] = []
    if pres.genus != 0 or pres.punctures < 3:
        return out
    usable = pres.punctures - 1  # witness pairs come from the canonical set
    for i in range(1, usable + 1):
        for j in range(1, usable + 1):
            if i == j:
                continue
            for m in range(1, max_exp + 1):
                for mp in range(1, max_exp + 1):
                    l = total - m - mp
                    if not 1 <= l <= max_exp:
                        continue
                    if not ctx.order_exceeds(pres.c(i), m + mp):
                        continue
                    if not ctx.order_exceeds(pres.c(j), l):
                        continue
                    g1, g2 = puncture_pair_witness(pres, i, j, m, mp, l)
                    if not rep.evaluate(g1).is_identity:
                        continue
                    if not rep.evaluate(g2).is_identity:
                        continue
                    out.append(
                        _Candidate(
                            "boundary_pair",
                            {"i": i, "j": j, "m": m, "m_prime": mp, "l": l},
                            g1,
                            g2,
                        )
                    )
    return out


def _handle_pair_candidates(
    ctx: _SearchCtx, total: int, max_exp: int
) -> List[_Candidate]:
    pres, rep = ctx.rep.presentation, ctx.rep
    out: List[_Candidate] = []
    if pres.genus < 1 or 2 * pres.genus + pres.punctures < 3:
        return out
    for j in range(1, pres.genus + 1):
        aj, bj = pres.a(j), pres.b(j)
        a_ord = ctx.order(aj)
        b_ord = ctx.order(bj)
        helpers = [d for d in pres.cayley_gens if d not in (aj, bj)]
        # full commutator-type pair
        for d in helpers:
            for m in range(1, max_exp + 1):
                if not ctx.order_exceeds(aj, m):
                    break
                for l in range(1, max_exp + 1):
                    if not ctx.order_exceeds(bj, l):
                        break
                    for k in range(1, max_exp + 1):
                        kp = total - m - l - k
                        if not 1 <= kp <= max_exp:
                            continue
                        if not ctx.order_exceeds(d, k + kp):
                            continue
                        if not ctx.products_nontrivial(bj, d, l, k + kp):
                            continue
                        g1, g2 = handle_pair_witness(pres, j, d, m, l, k, kp)
                        if not rep.evaluate(g1).is_identity:
                            continue
                        if not rep.evaluate(g2).is_identity:
                            continue
                        out.append(
                            _Candidate(
                                "handle_pair",
                                {"j": j, "d": d, "m": m, "l": l, "k": k, "k_prime": kp},
                                g1,
                                g2,
                            )
                        )
        # torsion shortcut on a_j: gamma1 = a_j^m with m its minimal exponent
        if a_ord != INFINITE and int(a_ord) <= max_exp:
            m = int(a_ord)
            for d in helpers:
                for l in range(1, max_exp + 1):
                    kp = total - m - l
                    if not 1 <= kp <= max_exp:
                        continue
                    if not ctx.order_exceeds(bj, l):
                        break
                    if not ctx.order_exceeds(d, kp):
                        continue
                    if not ctx.products_nontrivial(bj, d, l, kp):
                        continue
                    g1, g2 = handle_pair_witness(
                        pres, j, d, m, l, 1, kp, a_torsion=True
                    )
                    if not rep.evaluate(g2).is_identity:
                        continue
                    out.append(
                        _Candidate(
                            "handle_pair_torsion_a",
                            {"j": j, "d": d, "m": m, "l": l, "k_prime": kp},
                            g1,
                            g2,
                        )
                    )
        # torsion shortcut on b_j
        if b_ord != INFINITE and int(b_ord) <= max_exp:
            l = int(b_ord)
            for d in helpers:
                for m in range(1, max_exp + 1):
                    k = total - m - l
                    if not 1 <= k <= max_exp:
                        continue
                    if not ctx.order_exceeds(aj, m):
                        break
                    if not ctx.order_exceeds(d, k):
                        continue
                    if not ctx.products_nontrivial(aj, d, m, k):
                        continue
                    g1, g2 = handle_pair_witness(
                        pres, j, d, m, l, k, 1, b_torsion=True
                    )
                    if not rep.evaluate(g1).is_identity:
                        continue
                    out.append(
                        _Candidate(
                            "handle_pair_torsion_b",
                            {"j": j, "d": d, "m": m, "l": l, "k": k},
                            g1,
                            g2,
                        )
                    )
        # both torsion: the plain handle survives; parity needs odd overlap
        if (
            a_ord != INFINITE
            and b_ord != INFINITE
            and int(a_ord) <= max_exp
            and int(b_ord) <= max_exp
            and int(a_ord) + int(b_ord) == total
        ):
            overlap = _cyclic_intersection_size(rep.image(aj), rep.image(bj))
            if overlap is not None and overlap % 2 == 1:
                g1, g2 = handle_pair_witness(
                    pres, j, "", int(a_ord), int(b_ord), 1, 1,
                    a_torsion=True, b_torsion=True,
                )
                out.append(
                    _Candidate(
                        "handle_pair_torsion_both",
                        {"j": j, "m": int(a_ord), "l": int(b_ord)},
                        g1,
                        g2,
                    )
                )
    return out


def handle_witness_search(
    rep: Representation,
    max_exp: int = DEFAULT_SEARCH_BOUND,
) -> Optional[Witness]:
    """First certified handle-witness pair, or None up to the bound.

    Candidates satisfying the algebraic membership and non-membership side
    conditions are enumerated in increasing total exponent (boundary pairs
    before handle pairs, then lexicographically). Each candidate is then
    confirmed geometrically: both cycles must lift closed in the full cover
    and cross with parity one. Confirmation
    filters out configurations whose local crossing at the base is cancelled
    by extra global crossings, which the bare side conditions allow.
    """
    pres = rep.presentation
    if pres.genus == 0 and pres.punctures < 3:
        return None
    if pres.genus >= 1 and 2 * pres.genus + pres.punctures < 3:
        return None
    cover = AbstractCover(rep)
    ctx = _SearchCtx(rep)
    max_total = 4 * max_exp
    for total in range(2, max_total + 1):
        candidates = _boundary_pair_candidates(ctx, total, max_exp)
        candidates += _handle_pair_candidates(ctx, total, max_exp)
        for cand in candidates:
            confirmed = _confirm_witness(cover, cand)
            if confirmed is not None:
                return confirmed
    return None


def _confirm_witness(cover: AbstractCover, cand: _Candidate) -> Optional[Witness]:
    p1 = cover.lift(cand.gamma1)
    p2 = cover.lift(cand.gamma2)
    if not (p1.closed and p2.closed):
        return None
    if intersection_number_mod2(p1, p2) != 1:
        return None
    faces = set(p1.face_ids[1:]).union(p2.face_ids[1:])
    return Witness(cand.case, cand.params, cand.gamma1, cand.gamma2, len(faces))


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

    discrete = pres.punctures >= 1 and any(o != INFINITE for o in orders)
    finite_set = {j + 1 for j, o in enumerate(orders) if o != INFINITE}
    notes: List[str] = []
    if pres.punctures >= 1 and len(finite_set) < pres.punctures:
        plugged_class = ENDS_ONE
    else:
        sub_gens = [g for g in pres.handle_gens]
        sub_gens += [
            c
            for idx, c in enumerate(pres.boundary_gens[: max(pres.punctures - 1, 0)])
            if (idx + 1) not in finite_set
        ]
        plugged_class = _ends_of_group(rep, [rep.image(g) for g in sub_gens])
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
