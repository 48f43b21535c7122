"""Foliation-level inputs translated into holonomy representations.

Three front doors:

  * logarithmic foliations on the projective plane, given by component
    degrees and residues of a closed logarithmic 1-form (the residues must
    satisfy sum d_j lambda_j = 0 exactly),
  * homogeneous foliations, given by the multiplier exponents of the linear
    global holonomy on the punctured exceptional line,
  * suspensions with Moebius global holonomy (Riccati data).

Verdicts separate the theorem route (what the classification theorems force,
given the genericity hypotheses) from computational evidence (what the
witness search and glued balls actually certified on this input).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .classify import (
    DEFAULT_RADII,
    DEFAULT_SEARCH_BOUND,
    EndsReport,
    SurfaceTypeLabel,
    classify_cover,
    handle_witness_search,
)
from .gluing import InternalConsistencyError
from .scalars import ExponentScalar, GaussianRational
from .targets import (
    DEFAULT_VERTEX_BUDGET,
    MOEBIUS,
    Representation,
    deck_group_is_finite,
)
from .words import SurfacePresentation

PROPORTIONAL = "proportional"
EXPLICIT_RATIOS = "explicit_ratios"


@dataclass
class LogComponent:
    degree: int
    coeff: Optional[GaussianRational] = None  # residue / common symbol


@dataclass
class LogFoliationSpec:
    """A logarithmic foliation on the plane, described by its polar divisor.

    In proportional mode every residue is a Gaussian-rational multiple of one
    common symbol, so all residue ratios are exactly computable. In
    explicit-ratio mode the caller supplies the ratios lambda_k / lambda_j
    for each base component of interest; symbolic exponent spaces are not
    closed under division, so ratios cannot be derived in that case.
    """

    mode: str
    components: List[LogComponent]
    scale_symbol: str = "s"
    # explicit mode: ratios[j][k] = lambda_k / lambda_j (1-based indices)
    ratios: Dict[int, Dict[int, ExponentScalar]] = field(default_factory=dict)
    normal_crossing: bool = True
    generic_asserted: bool = False
    # optional restatement: crossings[j][k] = number of points of D_j cap D_k,
    # which validation requires to be the Bezout number d_j*d_k
    crossings: Dict[int, Dict[int, int]] = field(default_factory=dict)

    @property
    def r(self) -> int:
        return len(self.components)


@dataclass
class GenericityReport:
    """Outcome of validate_log_structure or validate_log_spec."""

    valid: bool
    failures: List[str]
    decided_ratios: Dict[str, str]
    notes: List[str]

    def to_json_dict(self) -> dict:
        return {
            "valid": self.valid,
            "failures": list(self.failures),
            "decided_ratios": dict(sorted(self.decided_ratios.items())),
            "notes": list(self.notes),
        }

    def raise_if_invalid(self) -> None:
        if not self.valid:
            raise InvalidFoliationError("; ".join(self.failures), self)


@dataclass
class Verdict:
    label: Optional[SurfaceTypeLabel]
    theorem_route: List[str]
    computational_evidence: Dict[str, object]
    caveats: List[str]
    ends_report: Optional[EndsReport] = None

    @property
    def classified(self) -> bool:
        return self.label is not None

    def to_json_dict(self) -> dict:
        return {
            "label": self.label.to_json_dict() if self.label else None,
            "theorem_route": list(self.theorem_route),
            "computational_evidence": {
                k: (v.to_json_dict() if hasattr(v, "to_json_dict") else v)
                for k, v in sorted(self.computational_evidence.items())
            },
            "caveats": list(self.caveats),
            "ends_report": self.ends_report.to_json_dict() if self.ends_report else None,
        }


FINITE_LEAF_CAVEAT = "applies to all leaves outside a finite exceptional set"
COUNTABLE_LEAF_CAVEAT = "applies to all leaves outside a countable exceptional set"


def validate_log_structure(spec: LogFoliationSpec) -> GenericityReport:
    """The checks under which component_holonomy is well defined.

    At least two components, all of positive degree; a known mode; nonzero
    residues in proportional mode, and in explicit-ratio mode ratio data
    whose component indices lie in 1..r; the exact residue relation
    sum d_j lambda_j = 0; crossing-count overrides equal to the Bezout
    number d_j*d_k; and a normal-crossing divisor, so that every crossing is
    a transverse double point whose loop has the single multiplier
    exp(2*pi*i*lambda_k/lambda_j).
    Genericity is not checked: a residue ratio may be a negative real.
    """
    return _check_log_spec(spec, genericity=False)


def validate_log_spec(spec: LogFoliationSpec) -> GenericityReport:
    """All hypotheses of the classification theorem for a logarithmic spec.

    These are the structural checks of validate_log_structure plus
    genericity: a ratio of residues that is a negative real number breaks
    the genericity hypothesis of the classification theorem. Ratios are
    decided exactly wherever the arithmetic allows and otherwise fall back
    to the caller's assertion. With two components the residue relation
    itself forces a negative ratio, which is why at least three components
    are necessary.
    """
    return _check_log_spec(spec, genericity=True)


def _check_log_spec(spec: LogFoliationSpec, genericity: bool) -> GenericityReport:
    failures: List[str] = []
    notes: List[str] = []
    decided: Dict[str, str] = {}
    if spec.r < 2:
        failures.append("a polar divisor needs at least 2 components")
    for comp in spec.components:
        if comp.degree < 1:
            failures.append("component degrees must be positive")
    if genericity and spec.r == 2:
        notes.append(
            "two components force a negative residue ratio via the residue "
            "relation; at least three are necessary"
        )
    if spec.mode == PROPORTIONAL:
        for comp in spec.components:
            if comp.coeff is None or comp.coeff.is_zero:
                failures.append("every residue coefficient must be nonzero")
        if not failures:
            total = GaussianRational.of(0)
            for comp in spec.components:
                total = total + comp.coeff * GaussianRational.of(comp.degree)
            if not total.is_zero:
                failures.append(
                    "residue relation violated: sum d_j lambda_j = (%s) * %s"
                    % (total, spec.scale_symbol)
                )
            for a in range(len(spec.components)):
                for b in range(len(spec.components)):
                    if a == b:
                        continue
                    ratio = spec.components[a].coeff / spec.components[b].coeff
                    name = "lambda_%d/lambda_%d" % (a + 1, b + 1)
                    decided[name] = str(ratio)
                    if genericity and ratio.is_real and ratio.re < 0:
                        failures.append(
                            "genericity failure: ratio %s = %s is a negative real"
                            % (name, ratio.re)
                        )
    elif spec.mode == EXPLICIT_RATIOS:
        if not spec.ratios:
            failures.append("explicit-ratio mode requires ratio data")
        for j, row in sorted(spec.ratios.items()):
            outside = sorted({i for i in (j, *row) if not 1 <= i <= spec.r})
            if outside:
                failures.append(
                    "ratio indices outside 1..%d: %s" % (spec.r, ", ".join(map(str, outside)))
                )
                continue
            total = ExponentScalar.rational(spec.components[j - 1].degree)
            for k, ratio in sorted(row.items()):
                total = total + ratio.scale(spec.components[k - 1].degree)
                name = "lambda_%d/lambda_%d" % (k, j)
                if ratio.is_rational:
                    decided[name] = str(ratio.rational_value)
                    if genericity and ratio.rational_value < 0:
                        failures.append(
                            "genericity failure: ratio %s = %s is a negative real"
                            % (name, ratio.rational_value)
                        )
                else:
                    decided[name] = "asserted non-negative-real: %s" % ratio.key()
            if not total.is_zero:
                failures.append(
                    "residue relation violated at base %d: sum d_k lambda_k/lambda_%d = %s"
                    % (j, j, total)
                )
        if genericity and not spec.generic_asserted:
            notes.append(
                "symbolic ratios rely on the caller's genericity assertion"
            )
    else:
        failures.append("unknown mode %r" % (spec.mode,))
    overrides = [
        (j, k, n) for j, row in sorted(spec.crossings.items()) for k, n in sorted(row.items())
    ]
    if any(n < 0 for _, _, n in overrides):
        failures.append("crossing counts must be non-negative")
    for j, k, n in overrides:
        if j == k or not (1 <= j <= spec.r and 1 <= k <= spec.r):
            failures.append(
                "crossing override %d, %d does not name two distinct components in 1..%d"
                % (j, k, spec.r)
            )
        elif n >= 0 and n != _crossing_count(spec, j, k):
            failures.append(
                "crossing count of D_%d and D_%d must be the Bezout number %d, not %d"
                % (j, k, _crossing_count(spec, j, k), n)
            )
    if not spec.normal_crossing:
        failures.append("the classification assumes a normal-crossing divisor")
    return GenericityReport(not failures, failures, decided, notes)


def _crossing_count(spec: LogFoliationSpec, j: int, k: int) -> int:
    """Bezout: a normal-crossing D_j meets D_k in d_j*d_k transverse points."""
    return spec.components[j - 1].degree * spec.components[k - 1].degree


def component_holonomy(spec: LogFoliationSpec, j: int) -> Representation:
    """Holonomy representation of the j-th invariant component.

    The component minus the crossing points is a surface of genus
    (d-1)(d-2)/2 with one puncture per intersection point (the Bezout
    count, which validation holds every crossing override to); the loop
    around a crossing with component k maps to the multiplier
    exp(2*pi*i*lambda_k/lambda_j). Handle generators get trivial holonomy,
    which loses no generality. Near D_j, the first integral
    F = prod_k f_k^(lambda_k) gives F^(1/lambda_j) = f_j * prod_{k!=j}
    f_k^(lambda_k/lambda_j), of degree zero by the residue relation. Along a
    loop in D_j^* each f_k/h^(d_k) winds an integer number of times, for a
    line h through no crossing, so every handle image lies in the group the
    puncture images generate. Pushing a puncture p once around b_i is a
    homeomorphism of D_j^* that sends a_i to a_i +- [c_p] in H_1 and fixes
    the other standard classes (Birman exact sequence). The holonomy
    factors through H_1, so a composite of pushes makes it trivial on every
    handle and leaves it unchanged on every c_p, and the two kernels give
    homeomorphic covers.
    """
    if not 1 <= j <= spec.r:
        raise ValueError("component index %d out of range" % j)
    ratios: Dict[int, ExponentScalar] = {}
    if spec.mode == PROPORTIONAL:
        base = spec.components[j - 1].coeff
        for k in range(1, spec.r + 1):
            if k != j:
                g = spec.components[k - 1].coeff / base
                ratios[k] = ExponentScalar.from_gaussian(g)
    else:
        row = spec.ratios.get(j)
        if row is None:
            raise ValueError(
                "no ratio data for base component %d in explicit mode" % j
            )
        for k in range(1, spec.r + 1):
            if k == j:
                continue
            if k not in row:
                raise ValueError(
                    "missing ratio lambda_%d/lambda_%d for base component %d"
                    % (k, j, j)
                )
            ratios[k] = row[k]
    d = spec.components[j - 1].degree
    genus = (d - 1) * (d - 2) // 2
    exponents: List[ExponentScalar] = []
    for k in range(1, spec.r + 1):
        if k == j:
            continue
        for _ in range(_crossing_count(spec, j, k)):
            exponents.append(ratios[k])
    pres = SurfacePresentation(genus, len(exponents))
    return Representation.circle_from_exponents(pres, exponents)


def classify_logarithmic(
    spec: LogFoliationSpec,
    search_bound: int = DEFAULT_SEARCH_BOUND,
) -> Verdict:
    """Main-theorem decision tree for a generic logarithmic foliation.

    The end space of a generic leaf is a single point (the ends accumulate
    on the polar divisor; an analytic fact encoded as a rule, not
    recomputed). Three lines in general position give leaves biholomorphic
    to the complex line; more components or higher degrees force infinitely
    many handles, evidenced by a witness pair in a component's holonomy
    cover when the search finds one.
    """
    report = validate_log_spec(spec)
    report.raise_if_invalid()
    route = [
        "generic leaf has a single end: leaf ends accumulate on the polar divisor",
    ]
    caveats = [FINITE_LEAF_CAVEAT]
    evidence: Dict[str, object] = {"genericity": report.to_json_dict()}
    three_lines = spec.r == 3 and all(c.degree == 1 for c in spec.components)
    if three_lines:
        route.append(
            "three-line divisor: the universal cover of the complement is "
            "linearized, leaves are biholomorphic to C"
        )
        return Verdict(
            SurfaceTypeLabel("plane_biholomorphic_to_C"), route, evidence, caveats
        )
    route.append(
        "more than three components or a higher-degree component: infinitely "
        "many handles attach, generic leaf is the Loch Ness monster"
    )
    witness_info: Dict[str, object] = {"status": "unverified at bound"}
    bases = range(1, spec.r + 1) if spec.mode == PROPORTIONAL else sorted(spec.ratios)
    for j in bases:
        rep = component_holonomy(spec, j)
        finite, _ = deck_group_is_finite(rep)
        if finite:
            continue
        witness = handle_witness_search(rep, search_bound)
        if witness is not None:
            witness_info = {
                "status": "confirmed",
                "component": j,
                "witness": witness.to_json_dict(),
            }
            break
    evidence["handle_witness"] = witness_info
    return Verdict(SurfaceTypeLabel("loch_ness_monster"), route, evidence, caveats)


class InvalidFoliationError(ValueError):
    def __init__(self, message: str, report: GenericityReport):
        super().__init__(message)
        self.report = report


def classify_homogeneous(
    exponents: Sequence[ExponentScalar],
    search_bound: int = DEFAULT_SEARCH_BOUND,
    radii: Sequence[int] = DEFAULT_RADII,
    vertex_budget: int = DEFAULT_VERTEX_BUDGET,
) -> Verdict:
    """Leaf type of a homogeneous foliation from its multiplier exponents.

    The global holonomy is the abelian group generated by exp(2*pi*i*eta_j)
    on the punctured exceptional line. A finite image means a rational first
    integral and algebraic leaves; an infinite image lands in the five-type
    list for abelian covers of punctured spheres.
    """
    n = len(exponents)
    if n < 1:
        raise ValueError("at least one invariant line is required")
    pres = SurfacePresentation(0, n)
    rep = Representation.circle_from_exponents(pres, list(exponents))
    report, label = classify_cover(rep, search_bound, radii, vertex_budget)
    caveats = [FINITE_LEAF_CAVEAT]
    if report.deck_is_finite:
        route = [
            "finite multiplier group of order %d: rational first integral, "
            "algebraic leaves" % report.deck_order
        ]
        return Verdict(label, route, {"deck_order": report.deck_order}, caveats, report)
    allowed = {
        "plane",
        "cylinder",
        "plane_minus_discrete",
        "loch_ness_monster",
        "lnm_minus_discrete",
    }
    if label is not None and label.name not in allowed:
        raise InternalConsistencyError(
            "abelian punctured-sphere cover produced %s, outside the "
            "five admissible types" % label.name
        )
    route = ["infinite abelian global holonomy: five-type list applies"]
    return Verdict(label, route, {}, caveats, report)


def classify_riccati(
    rep: Representation,
    search_bound: int = DEFAULT_SEARCH_BOUND,
    radii: Sequence[int] = DEFAULT_RADII,
    vertex_budget: int = DEFAULT_VERTEX_BUDGET,
) -> Verdict:
    """Generic leaf type of a suspension with Moebius global holonomy.

    Every nontrivial Moebius transformation fixes at most two points, so the
    suspension theorem applies to any such datum; the verdict covers all
    leaves outside a countable set.
    """
    if rep.kind != MOEBIUS:
        raise ValueError("Riccati holonomy must take values in the Moebius group")
    report, label = classify_cover(rep, search_bound, radii, vertex_budget)
    route = [
        "generator images fix at most two points each; suspension theorem "
        "classifies the generic leaf as the cover"
    ]
    return Verdict(label, route, {}, [COUNTABLE_LEAF_CAVEAT], report)
