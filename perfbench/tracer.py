"""Per-layer spans around the public functions of each ``quartic_cones`` module.

``Tracer.install`` replaces each function listed in ``SPANS`` by a wrapper
that opens a span (name, start, end, parent) on a stack and closes it when
the call returns.  A closed span adds its duration to ``total_s`` (once per
outermost call, so recursion is not double counted) and its duration minus
that of its child spans to ``self_s``.  Spans are folded into these sums as
they close rather than kept, because the kernel spans (``Poly.mul`` and
friends) number in the millions.

Several modules import polycore names directly (``from .polycore import
...``), so every module attribute that is the original function object is
patched, not only the one in the defining module.  ``uninstall`` puts the
originals back.
"""

from __future__ import annotations

import importlib
from time import perf_counter

PACKAGE = "quartic_cones"
MODULES = ("polycore", "polyio", "covariants", "cone", "octad", "theta", "cli")

# (module, attribute, span name); the span name defaults to module.attribute.
SPANS = (
    ("polycore", "macaulay_resultant_ternary"),
    ("polycore", "macaulay_quotient"),
    ("polycore", "ideal_spans_critical_degree"),
    ("polycore", "PolyMatrix.det_bareiss"),
    ("polycore", "PolyMatrix.det"),
    ("polycore", "det_fraction"),
    ("polycore", "rref"),
    ("polycore", "exact_divide"),
    ("polycore", "resultant_bivariate"),
    ("polycore", "univariate_gcd"),
    ("polycore", "is_perfect_square"),
    ("polycore", "rational_roots"),
    ("polycore", "Poly.__mul__", "polycore.Poly.mul"),
    ("polycore", "Poly.__add__", "polycore.Poly.add"),
    ("polycore", "Poly.subs"),
    ("polyio", "parse_poly"),
    ("polyio", "parse_points_file"),
    ("polyio", "print_poly"),
    ("covariants", "line_restriction"),
    ("covariants", "covariants"),
    ("covariants", "dual_curve"),
    ("covariants", "j_eval"),
    ("cone", "cone_equation"),
    ("cone", "s4_family"),
    ("octad", "aronhold_check"),
    ("octad", "net_from_heptad"),
    ("octad", "hessian_quartic"),
    ("octad", "cremona_octad"),
    ("octad", "gale_transform"),
    ("octad", "eighth_point"),
    ("octad", "bitangent_line"),
    ("octad", "all_bitangents"),
    ("theta", "aronhold_enumerate"),
    ("theta", "even_fiber_histogram"),
    ("cli", "main"),
)


def _span_name(entry):
    return entry[2] if len(entry) == 3 else f"{entry[0]}.{entry[1]}"


SPAN_NAMES = tuple(_span_name(e) for e in SPANS)

MACAULAY = "polycore.macaulay_quotient"
BAREISS = "polycore.PolyMatrix.det_bareiss"

# (callee span, nearest enclosing octad span) -> counter
UNDER_RULES = {
    (MACAULAY, "octad.eighth_point"): "octad.eighth_point.eliminations",
    ("octad.aronhold_check", "octad.eighth_point"): "octad.eighth_point.rechecks",
    ("polycore.PolyMatrix.det", "octad.bitangent_line"): "octad.bitangent_line.hessian_dets",
}

COUNTERS = (
    ("polycore.Poly.constructed", "count"),
    ("polycore.macaulay_quotient.degenerate", "count"),
    ("polycore.PolyMatrix.det_bareiss.n3_sum", "count"),
    ("polycore.rational_roots.gave_up", "count"),
    ("polyio.print_poly.chars", "bytes"),
    ("octad.eighth_point.eliminations", "count"),
    ("octad.eighth_point.rechecks", "count"),
    ("octad.bitangent_line.hessian_dets", "count"),
)

DERIVED = (
    ("polycore.macaulay_quotient.useful_ratio", "ratio"),
    ("polycore.macaulay_quotient.matrix_n", "rows"),
    ("polycore.macaulay_quotient.minor_n", "rows"),
)

# Timed by the runner without spans.
PARALLEL_METRICS = (
    ("octad.all_bitangents.jobs1_s", "s"),
    ("octad.all_bitangents.jobs2_s", "s"),
    ("theta.aronhold_enumerate.jobs1_s", "s"),
    ("theta.aronhold_enumerate.jobs2_s", "s"),
)
OVERHEAD_METRICS = (
    ("trace.untraced_s", "s"),
    ("trace.overhead_s", "s"),
)

PER_LAYER = tuple(
    [(f"{name}.{stat}", unit) for name in SPAN_NAMES
     for stat, unit in (("calls", "count"), ("self_s", "s"), ("total_s", "s"))]
    + list(COUNTERS) + list(DERIVED) + list(PARALLEL_METRICS) + list(OVERHEAD_METRICS))


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [name, start, child_s, octad_owner, bareiss_sizes]
        self.stats = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}  # calls, self, total
        self.open = dict.fromkeys(SPAN_NAMES, 0)
        self.counters = dict.fromkeys((name for name, _ in COUNTERS), 0)
        self.sizes = {"matrix_n": 0, "minor_n": 0}
        self._patched = []

    # -- spans ---------------------------------------------------------

    def _enter(self, name):
        stack = self.stack
        owner = stack[-1][3] if stack else None
        rule = UNDER_RULES.get((name, owner))
        if rule:
            self.counters[rule] += 1
        if name.startswith("octad."):
            owner = name
        frame = [name, 0.0, 0.0, owner, []]
        stack.append(frame)
        self.open[name] += 1
        frame[1] = perf_counter()
        return frame

    def _leave(self, frame):
        duration = perf_counter() - frame[1]
        name = frame[0]
        stack = self.stack
        stack.pop()
        stat = self.stats[name]
        stat[0] += 1
        stat[1] += duration - frame[2]
        self.open[name] -= 1
        if not self.open[name]:
            stat[2] += duration
        if stack:
            stack[-1][2] += duration

    def _wrap(self, name, fn):
        enter, leave = self._enter, self._leave
        after = {
            MACAULAY: self._after_macaulay_quotient,
            BAREISS: self._after_det_bareiss,
            "polycore.rational_roots": self._after_rational_roots,
            "polyio.print_poly": self._after_print_poly,
        }.get(name)

        def span(*args, **kwargs):
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            if after is not None:
                after(frame, args, result)
            return result

        span.__wrapped__ = fn
        return span

    # -- counters read from arguments and results ------------------------

    def _after_macaulay_quotient(self, frame, args, result):
        if result[0] is None:
            self.counters["polycore.macaulay_quotient.degenerate"] += 1
        for key, n in zip(("matrix_n", "minor_n"), frame[4]):
            self.sizes[key] += n

    def _after_det_bareiss(self, frame, args, result):
        n = args[0].n
        self.counters["polycore.PolyMatrix.det_bareiss.n3_sum"] += n ** 3
        if self.stack and self.stack[-1][0] == MACAULAY:
            self.stack[-1][4].append(n)

    def _after_rational_roots(self, frame, args, result):
        if result is None:
            self.counters["polycore.rational_roots.gave_up"] += 1

    def _after_print_poly(self, frame, args, result):
        self.counters["polyio.print_poly.chars"] += len(result)

    # -- patching --------------------------------------------------------

    def install(self):
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        for entry in SPANS:
            module = modules[entry[0]]
            owner_name, _, attr = entry[1].rpartition(".")
            if owner_name:  # a method: patch every alias in the class dict
                targets = [getattr(module, owner_name)]
                original = vars(targets[0])[attr]
            else:  # a function: patch every module that imported it by name
                targets = modules.values()
                original = getattr(module, attr)
            wrapper = self._wrap(_span_name(entry), original)
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._patch(target, key, wrapper)
        poly = modules["polycore"].Poly
        init = poly.__init__
        counters = self.counters

        def counted_init(obj, *args, **kwargs):
            counters["polycore.Poly.constructed"] += 1
            init(obj, *args, **kwargs)

        self._patch(poly, "__init__", counted_init)

    def _patch(self, target, key, value):
        self._patched.append((target, key, vars(target)[key]))
        setattr(target, key, value)

    def uninstall(self):
        while self._patched:
            target, key, value = self._patched.pop()
            setattr(target, key, value)

    # -- results ---------------------------------------------------------

    def metrics(self):
        """Every span and counter metric as {name: (value, unit)}."""
        out = {}
        for name, (calls, self_s, total_s) in self.stats.items():
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
            out[f"{name}.total_s"] = (total_s, "s")
        for name, unit in COUNTERS:
            out[name] = (self.counters[name], unit)
        calls = self.stats[MACAULAY][0]
        degenerate = self.counters["polycore.macaulay_quotient.degenerate"]
        out["polycore.macaulay_quotient.useful_ratio"] = (
            (calls - degenerate) / calls if calls else 0.0, "ratio")
        for key in ("matrix_n", "minor_n"):
            out[f"polycore.macaulay_quotient.{key}"] = (
                self.sizes[key] / calls if calls else 0.0, "rows")
        return out
