"""Command-line interface: classify covers, export Cayley balls and surfaces.

    leaftype classify --config cfg.json [--radius 2,4,6] [--search-bound 6]
    leaftype ball     --config cfg.json --radius 4
    leaftype surface  --config cfg.json [--radius 2,4,6]

Every command takes [--budget 1000000], the most elements one Cayley ball
or one permutation deck enumeration may hold.

One JSON config schema serves all entry points, discriminated by "kind":
logarithmic, homogeneous, riccati or representation. Symbols standing for
residues asserted Q-independent are declared once in a "symbols" array of
identifiers.
Exit codes: 0 classified, 1 invalid input or a usage error, 2 budget
exhausted or out of memory, 3 inconclusive, 4 internal error (a failed
consistency check).

A logarithmic config must be well formed for every command (see
foliations.validate_log_structure). Only classify also requires the
genericity hypothesis of the leaf theorem and exits 1 without it; ball and
surface export the holonomy cover of a component whatever the residue ratios.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from .cayley import build_ball, export_dot
from .classify import DEFAULT_RADII, DEFAULT_SEARCH_BOUND, classify_cover
from .foliations import (
    InvalidFoliationError,
    LogComponent,
    LogFoliationSpec,
    PROPORTIONAL,
    classify_homogeneous,
    classify_logarithmic,
    classify_riccati,
    component_holonomy,
    validate_log_structure,
)
from .gluing import InternalConsistencyError, genus_growth
from .scalars import ExponentScalar, GaussianRational, as_fraction
from .targets import (
    DEFAULT_VERTEX_BUDGET,
    BudgetExceededError,
    CIRCLE,
    CircleElement,
    Element,
    MOEBIUS,
    MoebiusElement,
    PERMUTATION,
    PermutationElement,
    Representation,
)
from .words import SurfacePresentation

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_BUDGET = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# -- config parsing -----------------------------------------------------------


def parse_scalar(obj, symbols: Sequence[str]) -> ExponentScalar:
    """Exact scalar from config JSON.

    Accepts a rational string/number, a declared symbol name, or the full
    form {"real": {"const": q, <sym>: q, ...}, "imag": {...}}.
    """
    if isinstance(obj, (int, str)):
        if isinstance(obj, str) and obj in symbols:
            return ExponentScalar.symbol(obj)
        return ExponentScalar.rational(as_fraction(obj))
    if isinstance(obj, dict):
        real = dict(_object(obj.get("real", {}), "real"))
        imag = dict(_object(obj.get("imag", {}), "imag"))
        for part in (real, imag):
            for key in part:
                if key != "const" and key not in symbols:
                    raise ValueError(
                        "symbol %r is not declared in the symbols array" % key
                    )
        return ExponentScalar.make(
            real_const=real.pop("const", 0),
            real_syms={k: as_fraction(v) for k, v in real.items()},
            imag_const=imag.pop("const", 0),
            imag_syms={k: as_fraction(v) for k, v in imag.items()},
        )
    raise ValueError("cannot parse scalar from %r" % (obj,))


def parse_gaussian(obj) -> GaussianRational:
    if isinstance(obj, (int, str)):
        return GaussianRational.of(as_fraction(obj))
    if isinstance(obj, dict):
        return GaussianRational.of(obj.get("re", 0), obj.get("im", 0))
    raise ValueError("cannot parse Gaussian rational from %r" % (obj,))


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError("%s must be a JSON object" % what)
    return value


def _array(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError("%s must be a JSON array" % what)
    return value


def _int(value, field: str) -> int:
    """An integer field: a JSON int or an integer string, never a float or a bool."""
    if not isinstance(value, bool) and isinstance(value, (int, str)):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValueError("%s must be an integer, not %s" % (field, json.dumps(value)))


def _flag(cfg: dict, field: str, default: bool) -> bool:
    value = cfg.get(field, default)
    if not isinstance(value, bool):
        raise ValueError("%s must be true or false, not %s" % (field, json.dumps(value)))
    return value


def _symbols(cfg: dict) -> List[str]:
    """The declared symbol names; identifiers only, so no name reads as a
    number or as part of another scalar's key."""
    symbols = _array(cfg.get("symbols", []), "symbols")
    for name in symbols:
        if not (isinstance(name, str) and name.isidentifier()):
            raise ValueError("symbol name %r is not an identifier" % (name,))
    return symbols


def _representation_data(cfg: dict) -> Tuple[SurfacePresentation, str, Dict[str, Element]]:
    """Presentation, target kind and parsed generator images of a config."""
    symbols = _symbols(cfg)
    target = cfg.get("target")
    if target not in (CIRCLE, MOEBIUS, PERMUTATION):
        raise ValueError("representation config needs target circle|moebius|permutation")
    genus, punctures = (_int(cfg.get(f, 0), f) for f in ("genus", "punctures"))
    pres = SurfacePresentation(genus, punctures)
    images: Dict[str, Element] = {}
    for gen, value in _object(cfg.get("images", {}), "images").items():
        if target == CIRCLE:
            images[gen] = CircleElement.of(parse_scalar(value, symbols))
        elif target == MOEBIUS:
            if not (isinstance(value, list) and [isinstance(r, list) and len(r) for r in value] == [2, 2]):
                raise ValueError("image of %s must be a 2x2 JSON array of arrays" % gen)
            (a, b), (c, d) = value
            images[gen] = MoebiusElement.of(
                parse_gaussian(a), parse_gaussian(b), parse_gaussian(c), parse_gaussian(d)
            )
        else:
            images[gen] = PermutationElement.of(value)
    missing = [g for g in pres.free_gens if g not in images]
    if target == CIRCLE:
        for g in missing:
            images[g] = CircleElement.identity()
    elif missing:
        raise ValueError("missing images for generators: %s" % ", ".join(missing))
    return pres, target, images


def _homogeneous_exponents(cfg: dict) -> List[ExponentScalar]:
    symbols = _symbols(cfg)
    return [parse_scalar(v, symbols) for v in _array(cfg.get("exponents", []), "exponents")]


def _build_log_spec(cfg: dict) -> Tuple[LogFoliationSpec, int]:
    """The spec and the index of the component whose holonomy ball and
    surface export; every command checks both."""
    symbols = _symbols(cfg)
    mode = cfg.get("mode", PROPORTIONAL)
    comps = []
    for entry in cfg.get("components", []):
        coeff = None
        if "coeff" in entry:
            coeff = parse_gaussian(entry["coeff"])
        comps.append(LogComponent(_int(entry["degree"], "degree"), coeff))
    component = _int(cfg.get("component", 1), "component")
    # the default is left to the structure check, which names too few components
    if "component" in cfg and not 1 <= component <= len(comps):
        raise ValueError("component index %d out of range" % component)
    ratios: Dict[int, Dict[int, ExponentScalar]] = {}
    for j, row in _object(cfg.get("ratios", {}), "ratios").items():
        row = _object(row, "ratios row %s" % j)
        ratios[int(j)] = {int(k): parse_scalar(v, symbols) for k, v in row.items()}
    crossings: Dict[int, Dict[int, int]] = {}
    for j, row in _object(cfg.get("crossings", {}), "crossings").items():
        row = _object(row, "crossings row %s" % j)
        crossings[int(j)] = {int(k): _int(v, "crossings[%s][%s]" % (j, k)) for k, v in row.items()}
    return LogFoliationSpec(
        mode=mode,
        components=comps,
        scale_symbol=cfg.get("scale_symbol", "s"),
        ratios=ratios,
        normal_crossing=_flag(cfg, "normal_crossing", True),
        generic_asserted=_flag(cfg, "assert_generic", False),
        crossings=crossings,
    ), component


def _representation_from_config(cfg: dict) -> Representation:
    kind = cfg.get("kind")
    if kind == "representation":
        return Representation(*_representation_data(cfg))
    if kind == "homogeneous":
        exponents = _homogeneous_exponents(cfg)
        pres = SurfacePresentation(0, len(exponents))
        return Representation.circle_from_exponents(pres, exponents)
    if kind == "riccati":
        return Representation(*_representation_data(dict(cfg, target=MOEBIUS)))
    if kind == "logarithmic":
        spec, j = _build_log_spec(cfg)
        validate_log_structure(spec).raise_if_invalid()
        return component_holonomy(spec, j)
    raise ValueError("unknown config kind %r" % (kind,))


# -- commands -----------------------------------------------------------------


def cmd_classify(cfg: dict, radii, search_bound, budget, out_dir: Path) -> int:
    kind = cfg.get("kind")
    if kind == "representation":
        report, label = classify_cover(_representation_from_config(cfg), search_bound, radii, budget)
        payload = {
            "label": label.to_json_dict() if label else None,
            "ends_report": report.to_json_dict(),
        }
        classified = label is not None
    else:
        if kind == "logarithmic":
            verdict = classify_logarithmic(_build_log_spec(cfg)[0], search_bound)
        elif kind == "homogeneous":
            verdict = classify_homogeneous(_homogeneous_exponents(cfg), search_bound, radii, budget)
        elif kind == "riccati":
            verdict = classify_riccati(_representation_from_config(cfg), search_bound, radii, budget)
        else:
            raise ValueError("unknown config kind %r" % (kind,))
        payload = verdict.to_json_dict()
        classified = verdict.classified
    text = _dump(payload)
    sys.stdout.write(text)
    (out_dir / "verdict.json").write_text(text, encoding="utf-8")
    return EXIT_OK if classified else EXIT_INCONCLUSIVE


def cmd_ball(cfg: dict, radii, budget, out_dir: Path) -> int:
    rep = _representation_from_config(cfg)
    radius = radii[-1]
    ball = build_ball(rep, radius, budget)
    dot = export_dot(ball)
    payload = _dump(ball.to_json_dict())
    (out_dir / "ball.json").write_text(payload, encoding="utf-8")
    (out_dir / "ball.dot").write_text(dot, encoding="utf-8")
    sys.stdout.write(
        _dump(
            {
                "radius": radius,
                "vertices": ball.vertex_count,
                "edges": len(ball.edges),
                "files": ["ball.json", "ball.dot"],
            }
        )
    )
    return EXIT_OK


def cmd_surface(cfg: dict, radii, budget, out_dir: Path) -> int:
    rep = _representation_from_config(cfg)
    rows = genus_growth(rep, radii, budget)
    payload = _dump({"rows": rows})
    (out_dir / "surface.json").write_text(payload, encoding="utf-8")
    sys.stdout.write(payload)
    return EXIT_OK


def _parse_radii(text: str):
    radii = tuple(int(part) for part in text.split(",") if part.strip())
    if not radii or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radius schedule must be strictly increasing")
    if radii[0] < 0:
        raise ValueError("radii must be non-negative")
    return radii


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="leaftype",
        description="classify regular covers and generic foliation leaf types",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("classify", "ball", "surface"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--radius", default=None, help="comma-separated radius schedule")
        if name == "classify":
            p.add_argument("--search-bound", type=int, default=DEFAULT_SEARCH_BOUND)
        p.add_argument("--budget", type=int, default=DEFAULT_VERTEX_BUDGET)
        p.add_argument("--out", default=".", help="output directory")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage line or the help
        return EXIT_OK if exc.code == 0 else EXIT_INVALID
    try:
        raw = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        sys.stderr.write("cannot read config: %s\n" % exc)
        return EXIT_INVALID
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        sys.stderr.write(
            "malformed JSON at line %d column %d: %s\n"
            % (exc.lineno, exc.colno, exc.msg)
        )
        return EXIT_INVALID
    try:
        if not isinstance(cfg, dict):
            raise ValueError("a config must be a JSON object")
        radii = _parse_radii(args.radius) if args.radius else DEFAULT_RADII
        if args.budget < 1 or getattr(args, "search_bound", 1) < 1:
            raise ValueError("budgets must be positive")
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "classify":
            return cmd_classify(cfg, radii, args.search_bound, args.budget, out_dir)
        if args.command == "ball":
            return cmd_ball(cfg, radii, args.budget, out_dir)
        return cmd_surface(cfg, radii, args.budget, out_dir)
    except BudgetExceededError as exc:
        sys.stderr.write("%s\n" % exc)
        return EXIT_BUDGET
    except MemoryError as exc:
        reason = str(exc) or "the run needs more memory than it may use"
        sys.stderr.write("out of memory: %s\n" % reason)
        return EXIT_BUDGET
    except InternalConsistencyError as exc:
        sys.stderr.write("internal error: %s\n" % exc)
        return EXIT_INTERNAL
    except InvalidFoliationError as exc:
        sys.stderr.write("invalid foliation spec: %s\n" % exc)
        return EXIT_INVALID
    except (ValueError, KeyError, TypeError) as exc:
        sys.stderr.write("invalid input: %s\n" % exc)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
