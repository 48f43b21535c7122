"""Span tracing for the benchmark's traced run.

The tracer wraps leaftype's public functions from outside the library: every
module attribute that refers to a traced function is replaced by a wrapper
for the duration of the traced passes, so calls are caught at each site that
imported the name (`build_ball` in cayley, gluing, classify and cli, and so
on). A few methods are wrapped on their class. Element `compose` and `key`
only count calls: they run millions of times, and their cost is measured
separately by the microtimers below, on a sample of the workload's own
elements. `restore` puts every original object back.

A span is [name, start_ns, end_ns, parent span index, op sequence number].
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

# (defining module, function) pairs that get a span wherever they are imported
SPANNED_FUNCTIONS = (
    ("leaftype.cayley", "build_ball"),
    ("leaftype.cayley", "export_dot"),
    ("leaftype.gluing", "genus_growth"),
    ("leaftype.gluing", "intersection_number_mod2"),
    ("leaftype.words", "handle_pair_witness"),
    ("leaftype.words", "puncture_pair_witness"),
    ("leaftype.classify", "classify_cover"),
    ("leaftype.classify", "handle_witness_search"),
    ("leaftype.classify", "riemann_hurwitz_finite"),
    ("leaftype.targets", "deck_group_is_finite"),
    ("leaftype.foliations", "validate_log_spec"),
    ("leaftype.foliations", "component_holonomy"),
    ("leaftype.foliations", "classify_logarithmic"),
    ("leaftype.foliations", "classify_homogeneous"),
    ("leaftype.foliations", "classify_riccati"),
)
# (defining module, class, method) wrapped with a span on the class
SPANNED_METHODS = (
    ("leaftype.gluing", "GluedSurface", "__init__"),
    ("leaftype.gluing", "AbstractCover", "lift"),
    ("leaftype.targets", "Representation", "__init__"),
)
ELEMENT_CLASSES = (
    ("moebius", "MoebiusElement"),
    ("circle", "CircleElement"),
    ("permutation", "PermutationElement"),
)
# every SAMPLE_STRIDE-th compose call keeps its operands, up to SAMPLE_SIZE
SAMPLE_STRIDE = 97
SAMPLE_SIZE = 64
# microtimers: ROUNDS timed batches of about BATCH_NS each, median per call
ROUNDS = 5
BATCH_NS = 20_000_000
ROOT = "cli.main"


def _short(module: str) -> str:
    return module.rsplit(".", 1)[-1]


def leaftype_modules() -> List[object]:
    return [m for n, m in sorted(sys.modules.items()) if n == "leaftype" or n.startswith("leaftype.")]


def snapshot() -> Dict[Tuple[str, str], object]:
    """Every leaftype module attribute and every member of a leaftype class."""
    snap = {}
    for mod in leaftype_modules():
        for attr, value in vars(mod).items():
            snap[(mod.__name__, attr)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for member, inner in vars(value).items():
                    snap[(mod.__name__, "%s.%s" % (attr, member))] = inner
    return snap


def patched_since(before: Dict[Tuple[str, str], object]) -> List[Tuple[str, str]]:
    """Names whose object is not the one in the snapshot, or that appeared or vanished."""
    after = snapshot()
    return sorted(
        k for k in set(before) | set(after)
        if k not in before or k not in after or before[k] is not after[k]
    )


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.op_seq = -1
        self.counts: Counter = Counter()
        self.samples: Dict[str, List[tuple]] = {kind: [] for kind, _ in ELEMENT_CLASSES}
        self._patches: List[Tuple[object, str, object, bool]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op_seq])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][2] = time.perf_counter_ns()

    def call_op(self, op_seq: int, fn: Callable, *args):
        """Run one operation under its root span."""
        self.op_seq = op_seq
        idx = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _span(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    # -- installing and restoring wrappers ---------------------------------

    def _set(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer wrappers are already installed")
        modules = leaftype_modules()
        hooks = {
            "build_ball": self._count_vertices,
            "handle_witness_search": self._count_witness,
        }
        for module_name, func in SPANNED_FUNCTIONS:
            original = getattr(sys.modules[module_name], func)
            wrapper = self._span("%s.%s" % (_short(module_name), func), original, hooks.get(func))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)
        for module_name, cls_name, method in SPANNED_METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            hook = self._count_faces if cls_name == "GluedSurface" else None
            name = "%s.%s.%s" % (_short(module_name), cls_name, method)
            self._set(cls, method, self._span(name, vars(cls)[method], hook))
        targets = sys.modules["leaftype.targets"]
        for kind, cls_name in ELEMENT_CLASSES:
            cls = getattr(targets, cls_name)
            self._set(cls, "compose", self._counting_compose(kind, vars(cls)["compose"]))
            self._set(cls, "key", self._counting(kind, "key", vars(cls)["key"]))

    def restore(self) -> None:
        for owner, attr, original, had in reversed(self._patches):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- counters --------------------------------------------------------------

    def _counting(self, kind: str, what: str, fn: Callable) -> Callable:
        name = "targets.%s_calls.%s" % (what, kind)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(this, *args):
            counts[name] += 1
            return fn(this, *args)

        return wrapper

    def _counting_compose(self, kind: str, fn: Callable) -> Callable:
        name = "targets.compose_calls.%s" % kind
        counts, sample = self.counts, self.samples[kind]

        @functools.wraps(fn)
        def wrapper(this, other):
            n = counts[name]
            counts[name] = n + 1
            if n % SAMPLE_STRIDE == 0 and len(sample) < SAMPLE_SIZE:
                sample.append((this, other))
            return fn(this, other)

        return wrapper

    def _count_vertices(self, args, ball) -> None:
        self.counts["cayley.vertices"] += ball.vertex_count

    def _count_faces(self, args, _none) -> None:
        # one fundamental-domain copy per ball vertex
        self.counts["gluing.faces"] += args[0].ball.vertex_count

    def _count_witness(self, args, witness) -> None:
        if witness is not None:
            self.counts["classify.witnesses_found"] += 1

    def write_spans(self, path: Path, op_names: Dict[int, str]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({
                    "span": idx, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "op": op_names.get(op, str(op)),
                }) + "\n")


# -- per-layer metrics from spans -----------------------------------------------


def ms(ns: float) -> float:
    return ns / 1e6


def self_times(spans: List[list]) -> List[int]:
    """Each span's duration minus the time its child spans cover.

    Children of one span are sequential (one thread, strictly nested
    wrappers), so the time they cover is the sum of their durations.
    """
    covered = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [s[2] - s[1] - covered[i] for i, s in enumerate(spans)]


def span_totals(spans: List[list], selves: List[int], span_range: Iterable[int]):
    """name -> (calls, inclusive ns, self ns) over the spans in span_range."""
    calls: Counter = Counter()
    incl: Counter = Counter()
    own: Counter = Counter()
    for i in span_range:
        name, start, end = spans[i][0], spans[i][1], spans[i][2]
        calls[name] += 1
        incl[name] += end - start
        own[name] += selves[i]
    return calls, incl, own


def pass_metrics(spans: List[list], selves: List[int], span_range: range, counts: Counter) -> Dict[str, float]:
    """Per-layer metrics for one traced pass: times in ms, counts as counted."""
    calls, incl, own = span_totals(spans, selves, span_range)
    search = "classify.handle_witness_search"
    lift = "gluing.AbstractCover.lift"
    words = ("words.handle_pair_witness", "words.puncture_pair_witness")
    lifts_in_search = sum(
        1 for i in span_range
        if spans[i][0] == lift and spans[i][3] >= 0 and spans[spans[i][3]][0] == search
    )
    confirmations = lifts_in_search // 2  # each confirmation lifts both cycles
    build_ms = ms(incl["cayley.build_ball"])
    m: Dict[str, float] = {}
    for kind, _ in ELEMENT_CLASSES:
        m["targets.compose_calls.%s" % kind] = counts["targets.compose_calls.%s" % kind]
        m["targets.key_calls.%s" % kind] = counts["targets.key_calls.%s" % kind]
    m["targets.deck_finite_calls"] = calls["targets.deck_group_is_finite"]
    m["targets.deck_finite_ms"] = ms(incl["targets.deck_group_is_finite"])
    m["targets.representation_init_ms"] = ms(incl["targets.Representation.__init__"])
    m["cayley.build_ball_calls"] = calls["cayley.build_ball"]
    m["cayley.build_ball_ms"] = build_ms
    m["cayley.vertices"] = counts["cayley.vertices"]
    m["cayley.vertices_per_s"] = counts["cayley.vertices"] / (build_ms / 1e3) if build_ms else 0.0
    m["cayley.export_dot_ms"] = ms(incl["cayley.export_dot"])
    m["gluing.glue_ms"] = ms(incl["gluing.GluedSurface.__init__"])
    m["gluing.faces"] = counts["gluing.faces"]
    m["gluing.genus_growth_ms"] = ms(incl["gluing.genus_growth"])
    m["gluing.lift_calls"] = calls[lift]
    m["gluing.lift_ms"] = ms(incl[lift])
    m["gluing.parity_calls"] = calls["gluing.intersection_number_mod2"]
    m["gluing.parity_ms"] = ms(incl["gluing.intersection_number_mod2"])
    m["words.witness_words_calls"] = sum(calls[w] for w in words)
    m["words.witness_words_ms"] = ms(sum(incl[w] for w in words))
    m["classify.witness_search_ms"] = ms(incl[search])
    m["classify.witness_search_self_ms"] = ms(own[search])
    m["classify.witness_confirmations"] = confirmations
    m["classify.witnesses_found"] = counts["classify.witnesses_found"]
    m["classify.witness_yield"] = (
        counts["classify.witnesses_found"] / confirmations if confirmations else 0.0
    )
    m["classify.self_ms"] = ms(sum(v for k, v in own.items() if k.startswith("classify.") and k != search))
    m["foliations.validate_ms"] = ms(incl["foliations.validate_log_spec"])
    m["foliations.component_holonomy_ms"] = ms(incl["foliations.component_holonomy"])
    m["foliations.self_ms"] = ms(sum(v for k, v in own.items() if k.startswith("foliations.")))
    m["cli.self_ms"] = ms(own[ROOT])
    m["cli.ops"] = calls[ROOT]
    return m


COUNT_METRICS = (
    ["targets.%s_calls.%s" % (w, k) for w in ("compose", "key") for k, _ in ELEMENT_CLASSES]
    + [
        "targets.deck_finite_calls", "cayley.build_ball_calls", "cayley.vertices",
        "gluing.faces", "gluing.lift_calls", "gluing.parity_calls",
        "words.witness_words_calls", "classify.witness_confirmations",
        "classify.witnesses_found", "cli.ops",
    ]
)


# -- microtimers -------------------------------------------------------------------


def _ns_per_call(batches: List[list], call: Callable) -> float:
    """Median over batches of the time per call of call(item) for each item.

    Each batch is timed once; items are built before timing, so nothing but
    the calls is inside the timed loop.
    """
    per_call = []
    for batch in batches:
        start = time.perf_counter_ns()
        for item in batch:
            call(item)
        per_call.append((time.perf_counter_ns() - start) / len(batch))
    return statistics.median(per_call)


def _repeats(items: list, call: Callable) -> int:
    """How many copies of items make a batch of about BATCH_NS (one untimed warm-up)."""
    start = time.perf_counter_ns()
    for item in items:
        call(item)
    return max(1, -(-BATCH_NS // max(1, time.perf_counter_ns() - start)))


def element_microtimers(samples: Dict[str, List[tuple]]) -> Dict[str, float]:
    """ns per compose and per key on each kind's sampled operands (0 if none).

    Keys are timed on freshly composed elements, as the workload meets them:
    an element may cache its key after the first call.
    """
    out = {}
    for kind, pairs in samples.items():
        compose_ns = key_ns = 0.0
        if pairs:
            compose = lambda p: p[0].compose(p[1])  # noqa: E731
            reps = _repeats(pairs, compose)
            compose_ns = _ns_per_call([pairs * reps] * ROUNDS, compose)
            fresh = [[a.compose(b) for _ in range(reps) for a, b in pairs] for _ in range(ROUNDS)]
            key_ns = _ns_per_call(fresh, lambda e: e.key())
        out["targets.compose_ns.%s" % kind] = compose_ns
        out["targets.key_ns.%s" % kind] = key_ns
    return out


def scalar_microtimers(gaussians: list, exponents: list) -> Dict[str, float]:
    """ns per Gaussian-rational product and per exponent-scalar sum (0 if none)."""
    out = {}
    for name, sample, op in (
        ("scalars.gaussian_mul_ns", gaussians, lambda p: p[0] * p[1]),
        ("scalars.exponent_add_ns", exponents, lambda p: p[0] + p[1]),
    ):
        pairs = [(u, v) for u in sample for v in sample][:SAMPLE_SIZE]
        out[name] = _ns_per_call([pairs * _repeats(pairs, op)] * ROUNDS, op) if pairs else 0.0
    return out


def scalar_samples(configs: Iterable[object]) -> Tuple[list, list]:
    """Gaussian rationals and exponent scalars parsed from the workload's configs.

    Gaussian entries of Moebius matrices and logarithmic residues are widened
    with their pairwise products and quotients, so the sample holds numbers
    of the sizes that word products reach.
    """
    from leaftype.cli import parse_gaussian, parse_scalar

    gauss, exps = [], []
    for cfg in configs:
        if not isinstance(cfg, dict):
            continue
        kind, symbols = cfg.get("kind"), cfg.get("symbols", [])
        if kind == "riccati" or cfg.get("target") == "moebius":
            for matrix in cfg.get("images", {}).values():
                gauss.extend(parse_gaussian(v) for row in matrix for v in row)
        elif kind == "logarithmic":
            gauss.extend(parse_gaussian(c["coeff"]) for c in cfg["components"])
        elif kind == "homogeneous":
            exps.extend(parse_scalar(v, symbols) for v in cfg["exponents"])
        elif cfg.get("target") == "circle":
            exps.extend(parse_scalar(v, symbols) for v in cfg["images"].values())
    base = _distinct(g for g in gauss if not g.is_zero)[:8]
    gauss = _distinct(base + [u * v for u in base for v in base] + [u / v for u in base for v in base])
    return gauss[:16], _distinct(exps)[:16]


def _distinct(items: Iterable) -> list:
    seen, out = set(), []
    for item in items:
        k = item.key()
        if k not in seen:
            seen.add(k)
            out.append(item)
    return out
