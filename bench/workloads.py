"""Seeded workloads for the leaftype benchmark.

Each workload is a list of operations. One operation is one `leaftype`
command (`classify`, `ball` or `surface`) on one generated JSON config, with
the outcome its construction fixes: exit code, label, ball size or face
counts. The seed changes the numbers inside the configs, never the shape of
the work: matrices, residues and exponents are rescaled or conjugated so that
group orders, ball sizes, witness-search paths and therefore every work count
stay the same for every seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

IDENTITY = [["1", "0"], ["0", "1"]]
# Gaussian integers of modulus squared 5. The ping-pong pair uses x and y = +-x:
# |xy| = 5 >= 4 certifies it, and xy is one of +-3+-4i for every seed. Seeds
# that change xy only by sign or complex conjugation give entries of the same
# sizes, so the arithmetic costs the same; other products (5, 5i) would not.
MODULUS5 = [(2, 1), (2, -1), (-2, 1), (-2, -1), (1, 2), (1, -2), (-1, 2), (-1, -2)]
# Ball sizes of a free group of rank two at radius 2, 4, 6.
FREE2_BALL = {2: 17, 4: 161, 6: 1457}


@dataclass
class Op:
    """One CLI call and the outcome its construction fixes."""

    op_id: str
    command: str
    config: object  # a JSON-able dict, or raw text for a malformed config
    expect: Dict[str, object]
    args: Tuple[str, ...] = ()

    def config_text(self) -> str:
        if isinstance(self.config, str):
            return self.config
        return json.dumps(self.config, sort_keys=True)


@dataclass
class Workload:
    name: str
    ops: List[Op]
    # operations run once per run, outside the timed passes: known defects
    # that the benchmark keeps visible without counting them as failed ops
    probes: List[Op] = field(default_factory=list)


# -- small helpers ------------------------------------------------------------


def _q(x: Fraction) -> str:
    return str(Fraction(x))


def _gauss(re, im=0) -> dict:
    return {"re": _q(re), "im": _q(im)}


def _sym(coeff: Fraction, name: str) -> dict:
    return {"real": {name: _q(coeff)}}


def _lin(const: Fraction = Fraction(0), **coeffs: Fraction) -> dict:
    real = {k: _q(v) for k, v in coeffs.items()}
    real["const"] = _q(const)
    return {"real": real}


def _nonzero_rational(rng: random.Random) -> Fraction:
    num = rng.choice([-1, 1]) * rng.randint(1, 9)
    return Fraction(num, rng.randint(1, 9))


def _nonzero_gaussian(rng: random.Random) -> Tuple[Fraction, Fraction]:
    while True:
        re = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        im = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if re or im:
            return re, im


def _gmul(a: Tuple[Fraction, Fraction], b: Tuple[Fraction, Fraction]):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _unipotent_upper(x) -> list:
    return [["1", _gauss(*x)], ["0", "1"]]


def _unipotent_lower(y) -> list:
    return [["1", "0"], [_gauss(*y), "1"]]


def _riccati(genus: int, **images) -> dict:
    full = {}
    for i in range(1, genus + 1):
        full["a%d" % i] = IDENTITY
        full["b%d" % i] = IDENTITY
    full.update(images)
    return {"kind": "riccati", "genus": genus, "punctures": 0, "images": full}


def _circle_rep(exponents: List[object], symbols: List[str]) -> dict:
    """Circle representation on a sphere with len(exponents) + 1 punctures."""
    return {
        "kind": "representation",
        "target": "circle",
        "genus": 0,
        "punctures": len(exponents) + 1,
        "symbols": symbols,
        "images": {"c%d" % (j + 1): e for j, e in enumerate(exponents)},
    }


def _perm_conjugate(perm: List[int], sigma: List[int]) -> List[int]:
    """sigma * perm * sigma^-1 in one-line notation: same cycle type."""
    out = [0] * len(perm)
    for i, v in enumerate(perm):
        out[sigma[i]] = sigma[v]
    return out


def _label(name: Optional[str]) -> Optional[dict]:
    return None if name is None else {"label": name}


def _finite(genus: int, punctures: int) -> dict:
    return {"label": "finite_cover", "genus": genus, "punctures": punctures}


def _cyclic_finite_cover(q: int, n: int) -> dict:
    """Riemann-Hurwitz for a sphere with n punctures, every loop of prime order q.

    The deck group is cyclic of order q, each puncture lifts to one puncture,
    chi = q * (2 - n), so the closed genus is (2 - chi - n) / 2.
    """
    chi = q * (2 - n)
    return _finite((2 - chi - n) // 2, n)


def _prime_numerators(rng: random.Random, q: int, count: int) -> List[int]:
    """count numerators mod q, none zero, and minus their sum not zero either."""
    while True:
        nums = [rng.randint(1, q - 1) for _ in range(count)]
        if sum(nums) % q:
            return nums


# -- moebius-ball ---------------------------------------------------------------


def moebius_ball(rng: random.Random) -> List[Op]:
    """Riccati suspensions over seeded ping-pong pairs: balls, glue, Moebius arithmetic.

    Each pass has four heavy ops (genus 2 and 3), six radius-4 ball exports
    of seeded pairs, and eighteen light ops (small balls and surfaces, the
    translation, the companions). Over three passes the median op then falls
    inside the light ops and the tail percentile (p75) in the middle of the
    eighteen radius-4 exports, never on the edge between two kinds of op,
    where run-to-run noise would flip it from one kind to the other.
    """
    pairs = []
    for _ in range(6):
        x = rng.choice(MODULUS5)
        sign = rng.choice((1, -1))
        pairs.append(_riccati(2, a1=_unipotent_upper(x), a2=_unipotent_lower((sign * x[0], sign * x[1]))))
    t = rng.choice(MODULUS5)
    g2 = pairs[0]
    g3 = _riccati(3, **{g: g2["images"][g] for g in ("a1", "a2")})
    ladder = _riccati(2, a1=_unipotent_upper(t))
    ok = 0
    ops = [
        Op("g2-pair-classify", "classify", g2, {"exit": ok, "label": _label("cantor_tree")}),
        Op("g3-pair-classify", "classify", g3, {"exit": ok, "label": _label("blooming_cantor_tree")}),
        Op("ladder-classify", "classify", ladder, {"exit": ok, "label": _label("jacobs_ladder")}),
        Op("g2-pair-surface", "surface", g2,
           {"exit": ok, "faces": [FREE2_BALL[n] for n in (2, 4, 6)]}, ("--radius", "2,4,6")),
        Op("g3-pair-surface", "surface", g3,
           {"exit": ok, "faces": [FREE2_BALL[n] for n in (2, 4)]}, ("--radius", "2,4")),
        Op("ladder-surface", "surface", ladder,
           {"exit": ok, "faces": [2 * n + 1 for n in (2, 4, 6)]}, ("--radius", "2,4,6")),
    ]
    for k, pair in enumerate(pairs):
        ops += [
            Op("pair%d-ball-r4" % k, "ball", pair, {"exit": ok, "vertices": FREE2_BALL[4]}, ("--radius", "4")),
            Op("pair%d-ball-r2" % k, "ball", pair, {"exit": ok, "vertices": FREE2_BALL[2]}, ("--radius", "2")),
            Op("pair%d-surface-r1" % k, "surface", pair, {"exit": ok, "faces": [5]}, ("--radius", "1")),
        ]
    return ops + _companions(rng)


# -- circle-witness -------------------------------------------------------------


def circle_witness(rng: random.Random) -> List[Op]:
    """Circle holonomy on punctured spheres: witness search, lifts and parity.

    The first operation is the coincident-multiplier family of PAPER.md's
    "Honest limits": exhaustive search, every candidate has even parity, so
    the genus stays inconclusive (exit 3). The others find a witness early.
    """
    a = _nonzero_rational(rng)
    blind = {
        "kind": "homogeneous",
        "symbols": ["t"],
        "exponents": [_sym(a, "t"), "0", _sym(a, "t"), _sym(-2 * a, "t")],
    }
    ops = [
        Op("blind-spot", "classify", blind,
           {"exit": 3, "label": None, "genus_class": "inconclusive"}),
    ]
    for v in range(2):
        ops.extend(_early_witnesses(rng, v))
    return ops + _companions(rng)


def _early_witnesses(rng: random.Random, v: int) -> List[Op]:
    b, c, d = (_nonzero_rational(rng) for _ in range(3))
    half, third = Fraction(1, 2), Fraction(1, 3)
    lnm_discrete = {"exit": 0, "label": _label("lnm_minus_discrete")}
    ops = [
        Op("p4-torsion", "classify",
           _circle_rep([_sym(b, "t"), _q(half), _sym(c, "u")], ["t", "u"]), lnm_discrete),
        Op("p4-free", "classify",
           _circle_rep([_sym(b, "t"), _sym(c, "u"), _sym(d, "v")], ["t", "u", "v"]),
           {"exit": 0, "label": _label("loch_ness_monster")}),
        Op("p5-torsion", "classify",
           _circle_rep([_sym(b, "t"), _q(third), _sym(c, "u"), _q(2 * third)], ["t", "u"]),
           lnm_discrete),
        Op("p6-torsion", "classify",
           _circle_rep(
               [_sym(b, "t"), _q(half), _sym(c, "u"), _q(half), _sym(d, "v")],
               ["t", "u", "v"],
           ),
           lnm_discrete),
        Op("h4-torsion", "classify",
           {
               "kind": "homogeneous",
               "symbols": ["t", "u"],
               "exponents": [_sym(b, "t"), _q(half), _sym(c, "u"), _lin(half, t=-b, u=-c)],
           },
           lnm_discrete),
        Op("h3-torsion", "classify",
           {
               "kind": "homogeneous",
               "symbols": ["t"],
               "exponents": [_sym(b, "t"), _q(half), _lin(half, t=-b)],
           },
           lnm_discrete),
    ]
    for op in ops:
        op.op_id = "r%d-%s" % (v, op.op_id)
    return ops


# -- config-batch ---------------------------------------------------------------

# Generators of small finite groups, fixed up to a seeded relabelling.
S3_GENS = ([1, 0, 2], [0, 2, 1])  # (0 1), (1 2): S3, product of order 3
S4_GENS = ([1, 0, 2, 3], [0, 2, 3, 1])  # (0 1), (1 2 3): S4, product of order 4
S3_HANDLE = ([1, 2, 0], [1, 0, 2])  # a1 = (0 1 2), b1 = (0 1): commutator of order 3


def config_batch(rng: random.Random) -> List[Op]:
    """Many small configs of every kind: per-op fixed costs dominate."""
    ops: List[Op] = []
    for v in range(2):
        ops.extend(_batch_round(rng, v))
    return ops


def _batch_round(rng: random.Random, v: int) -> List[Op]:
    a, b = _nonzero_rational(rng), _nonzero_rational(rng)
    half = Fraction(1, 2)
    s = rng.getrandbits(32)
    scale = _nonzero_gaussian(rng)

    def homogeneous(symbols, exponents):
        return {"kind": "homogeneous", "symbols": symbols, "exponents": exponents}

    def log(components, **extra):
        cfg = {
            "kind": "logarithmic",
            "mode": "proportional",
            "components": [
                {"degree": deg, "coeff": _gauss(*_gmul(scale, coeff))}
                for deg, coeff in components
            ],
        }
        cfg.update(extra)
        return cfg

    def perm_rep(genus, punctures, names, gens, degree):
        sigma = list(range(degree))
        random.Random(s).shuffle(sigma)
        return {
            "kind": "representation",
            "target": "permutation",
            "genus": genus,
            "punctures": punctures,
            "images": {n: _perm_conjugate(g, sigma) for n, g in zip(names, gens)},
        }

    one = (Fraction(1), Fraction(0))
    i1 = (Fraction(0), Fraction(1))
    three_lines = [(1, one), (1, i1), (1, (Fraction(-1), Fraction(-1)))]
    four_lines = [(1, one), (1, i1), (1, (Fraction(0), Fraction(2))), (1, (Fraction(-1), Fraction(-3)))]
    conic_two_lines = [
        (2, (Fraction(1), Fraction(1))), (1, i1), (1, (Fraction(-2), Fraction(-3))),
    ]
    residues_235 = [(1, (Fraction(k), Fraction(0))) for k in (2, 3, -5)]
    q5 = _prime_numerators(rng, 5, 2)
    q5b = _prime_numerators(rng, 5, 3)
    q7 = _prime_numerators(rng, 7, 2)
    # the dihedral group of order 8 in PSL(2, C): z -> iz and z -> 1/z,
    # conjugated by the seeded translation z -> z + m
    m = _nonzero_gaussian(rng)
    mi = _gmul(m, (Fraction(1), Fraction(-1)))  # m * (1 - i)
    m_sq = _gmul(m, m)
    rotation = [[_gauss(0, 1), _gauss(*mi)], ["0", "1"]]
    flip = [[_gauss(*m), _gauss(1 - m_sq[0], -m_sq[1])], ["1", _gauss(-m[0], -m[1])]]

    ok, invalid = 0, 1
    ops = [
        Op("plane", "classify",
           homogeneous(["t"], [_sym(a, "t"), _lin(1, t=-a)]),
           {"exit": ok, "label": _label("plane")}),
        Op("plane-discrete", "classify",
           homogeneous(["t"], [_sym(a, "t"), "1", _sym(-a, "t")]),
           {"exit": ok, "label": _label("plane_minus_discrete")}),
        Op("lnm-discrete", "classify",
           homogeneous(["t"], [_sym(a, "t"), _q(half), _lin(half, t=-a)]),
           {"exit": ok, "label": _label("lnm_minus_discrete")}),
        Op("lnm", "classify",
           homogeneous(["t", "u"], [_sym(a, "t"), _sym(b, "u"), _lin(1, t=-a, u=-b)]),
           {"exit": ok, "label": _label("loch_ness_monster")}),
        Op("homogeneous-finite", "classify",
           homogeneous([], [_q(Fraction(p, 5)) for p in q5] + [_q(Fraction(-sum(q5), 5))]),
           {"exit": ok, "label": _cyclic_finite_cover(5, 3)}),
        Op("log-3-lines", "classify", log(three_lines),
           {"exit": ok, "label": _label("plane_biholomorphic_to_C")}),
        Op("log-4-lines", "classify", log(four_lines),
           {"exit": ok, "label": _label("loch_ness_monster")}),
        Op("log-conic-2-lines", "classify", log(conic_two_lines),
           {"exit": ok, "label": _label("loch_ness_monster")}),
        Op("circle-finite", "classify",
           _circle_rep([_q(Fraction(p, 5)) for p in q5b], []),
           {"exit": ok, "label": _cyclic_finite_cover(5, 4)}),
        Op("perm-s3", "classify", perm_rep(0, 3, ["c1", "c2"], S3_GENS, 3),
           # order 6; loops of order 2, 2, 3 lift to 3 + 3 + 2 punctures
           {"exit": ok, "label": _finite(0, 8)}),
        Op("perm-s4", "classify", perm_rep(0, 3, ["c1", "c2"], S4_GENS, 4),
           # order 24; loops of order 2, 3, 4 lift to 12 + 8 + 6 punctures
           {"exit": ok, "label": _finite(0, 26)}),
        Op("perm-s3-handle", "classify", perm_rep(1, 1, ["a1", "b1"], S3_HANDLE, 3),
           # order 6, chi = -6, the puncture loop has order 3: 2 punctures
           {"exit": ok, "label": _finite(3, 2)}),
        Op("ball-circle-c7", "ball",
           _circle_rep([_q(Fraction(p, 7)) for p in q7], []),
           {"exit": ok, "vertices": 7}, ("--radius", "6")),
        Op("ball-perm-s3", "ball", perm_rep(0, 3, ["c1", "c2"], S3_GENS, 3),
           {"exit": ok, "vertices": 6}, ("--radius", "6")),
        Op("ball-perm-s4", "ball", perm_rep(0, 3, ["c1", "c2"], S4_GENS, 4),
           {"exit": ok, "vertices": 24}, ("--radius", "8")),
        Op("ball-moebius-d4", "ball",
           {
               "kind": "representation", "target": "moebius", "genus": 0,
               "punctures": 3, "images": {"c1": rotation, "c2": flip},
           },
           {"exit": ok, "vertices": 8}, ("--radius", "6")),
        Op("invalid-two-lines", "classify",
           log([(1, one), (1, (Fraction(-1), Fraction(0)))]),
           {"exit": invalid, "stderr": "negative real"}),
        Op("invalid-residues-235", "classify", log(residues_235),
           {"exit": invalid, "stderr": "negative real"}),
        Op("invalid-residue-sum", "classify",
           log([(1, one), (1, i1), (1, (Fraction(-1), Fraction(0)))]),
           {"exit": invalid, "stderr": "residue relation"}),
        Op("invalid-singular", "classify",
           {
               "kind": "representation", "target": "moebius", "genus": 0,
               "punctures": 3,
               "images": {"c1": [["1", "2"], ["2", "4"]], "c2": IDENTITY},
           },
           {"exit": invalid, "stderr": "singular"}),
        Op("invalid-json", "classify", '{"kind": "homogeneous",\n "exponents": [,]}',
           {"exit": invalid, "stderr": "malformed JSON"}),
    ]
    for op in ops:
        op.op_id = "r%d-%s" % (v, op.op_id)
    return ops


# Tiny config-batch ops that moebius-ball and circle-witness run as well. They
# touch the layers those workloads otherwise bypass (logarithmic validation and
# holonomy, DOT export, all three element kinds, both scalar types) for well
# under 1 % of the pass time, so every per-layer time is a measured number on
# every workload rather than a constant zero.
COMPANIONS = ("log-4-lines", "homogeneous-finite", "ball-perm-s3", "ball-moebius-d4")


def _companions(rng: random.Random) -> List[Op]:
    ops = [op for op in _batch_round(rng, 0) if op.op_id[len("r0-"):] in COMPANIONS]
    for op in ops:
        op.op_id = "companion-" + op.op_id[len("r0-"):]
    return ops


def _known_defects() -> List[Op]:
    """`ball` on the logarithmic config with residues 2, 3, -5.

    The component holonomy has exponents 3/2 and -5/2, so the ball is the
    order-2 deck group. The CLI runs the genericity check of the leaf
    theorem first and exits 1 instead (ROADMAP, "Fix first").
    """
    cfg = {
        "kind": "logarithmic",
        "mode": "proportional",
        "component": 1,
        "components": [
            {"degree": 1, "coeff": {"re": "2"}},
            {"degree": 1, "coeff": {"re": "3"}},
            {"degree": 1, "coeff": {"re": "-5"}},
        ],
    }
    return [Op("known-defect-log-ball", "ball", cfg, {"exit": 0, "vertices": 2}, ("--radius", "4"))]


GENERATORS: Dict[str, Callable[[random.Random], List[Op]]] = {
    "moebius-ball": moebius_ball,
    "circle-witness": circle_witness,
    "config-batch": config_batch,
}


def generate(name: str, seed: int) -> Workload:
    """The workload's operations for a seed; the same seed gives the same configs."""
    if name not in GENERATORS:
        raise ValueError("unknown workload %r" % (name,))
    rng = random.Random("%s:%d" % (name, seed))
    ops = GENERATORS[name](rng)
    probes = _known_defects() if name == "config-batch" else []
    return Workload(name, ops, probes)


def write_configs(workload: Workload, config_dir: Path) -> Dict[str, Path]:
    """Write one config file per operation; returns op id -> path."""
    config_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for op in workload.ops + workload.probes:
        path = config_dir / ("%s.json" % op.op_id)
        path.write_text(op.config_text(), encoding="utf-8")
        paths[op.op_id] = path
    return paths
