"""Spans around the calls into each biquadrlc module, recorded from outside.

``install`` replaces every binding of each traced public function in every
loaded ``biquadrlc`` module (modules import names directly, e.g.
``realize.verify_numeric``) with a wrapper that records a span: name, start,
end and parent.  Spans stay in memory until the run writes them out.  A
span's self time is its duration minus the time of the spans directly
inside it.  Realize synthesis is timed at ``synth_config``, because the
synthesizer table holds the original function objects.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

TRACED = {
    "ratpoly": ("gcd", "resultant", "sturm_count", "isolate_root"),
    "biquad": ("to_rational_fn", "transform_params", "canonical_positive_real", "is_positive_real"),
    "network": (
        "impedance",
        "apply_transform",
        "build_config",
        "enumerate_topologies",
        "enumerate_labeled",
        "violates_cutset_rule",
    ),
    "realize": (
        "classify",
        "synth_config",
        "synth_fig3a",
        "n4a_root_interval",
        "n5a_root_interval",
        "n4a_p1_system",
        "n5a_p1_system",
    ),
    # least_squares is scipy's, timed where verify calls it
    "verify": ("verify_numeric", "verify_exact", "fit_topology", "falsify_small", "least_squares"),
    "cli": ("main",),
}
MODULES = tuple(TRACED)
CLASSES = ("NotPositiveReal", "FourElement", "FiveElement", "SevenElementCatalog", "UnknownWithinScope")
SYNTH_ALIASES = {"fig4a": "n4a", "fig5a": "n5a"}
RESIDUAL = "verify.fit.residual"


def span_names():
    """Every span name a run can record, in report order."""
    names = []
    for module, functions in TRACED.items():
        for fn in functions:
            qual = "%s.%s" % (module, fn)
            if qual == "network.impedance":
                names += [qual + ".exact", qual + ".mpf"]
            elif qual == "realize.synth_config":
                names += [qual + "." + c for c in ("fig3a", "n4a", "n5a")]
            else:
                names.append(qual)
    return names


def _is_exact_network(net):
    if hasattr(net, "children"):
        return all(_is_exact_network(c) for c in net.children)
    return type(net.value).__name__ in ("int", "Fraction", "QuadraticRational")


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id, name, start, end)
        self.stack = []  # [id, seconds spent in child spans]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.samples = defaultdict(list)
        self.next_id = 0
        self.last = 0.0

    def span(self, name, fn, args=(), kwargs=None, store=True):
        """Call fn inside a span; ``store=False`` counts it without keeping
        the span (for the fitter's residual calls, tens of thousands per
        operation)."""
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1][0] if self.stack else None
        frame = [sid, 0.0]
        self.stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = perf_counter()
            self.stack.pop()
            self.last = duration = end - start
            self.calls[name] += 1
            self.self_s[name] += duration - frame[1]
            if self.stack:
                self.stack[-1][1] += duration
            if store:
                self.spans.append((sid, parent, name, start, end))

    def metrics(self, operations):
        """Per-layer metrics, normalized per operation of the workload."""
        ops = max(operations, 1)
        out = {}
        for name in span_names():
            out[name + ".calls"] = self.calls[name] / ops
            out[name + ".self_ms"] = self.self_s[name] * 1e3 / ops
        for module in MODULES:
            names = [n for n in self.calls if n.startswith(module + ".")]
            out[module + ".calls"] = sum(self.calls[n] for n in names if n != RESIDUAL) / ops
            out[module + ".self_ms"] = sum(self.self_s[n] for n in names) * 1e3 / ops
        classify_calls = self.calls["realize.classify"]
        for klass in CLASSES:
            durations = self.samples["realize.classify." + klass]
            out["realize.classify.%s.p50_ms" % klass] = statistics.median(durations) * 1e3 if durations else None
        out["realize.catalog_hit_ratio"] = (
            self.counts["classify.catalog"] / classify_calls if classify_calls else None
        )
        fits = self.calls["verify.fit_topology"]
        out["verify.fit_topology.success_ratio"] = self.counts["fit.success"] / fits if fits else None
        out["verify.least_squares.nfev"] = self.counts["least_squares.nfev"] / ops
        out["verify.least_squares.njev"] = self.counts["least_squares.njev"] / ops
        out["verify.fit.residual_evals"] = self.calls[RESIDUAL] / ops
        out["verify.fit.residual_ms"] = self.self_s[RESIDUAL] * 1e3 / ops
        out["network.enumerate_labeled.labelings"] = self.counts["labelings"] / ops
        out["verify.falsify.fitted"] = self.counts["falsify.fitted"] / ops
        out["verify.falsify.filtered"] = self.counts["falsify.filtered"] / ops
        cli = self.samples["cli.main"]
        out["cli.work_ms"] = statistics.median(cli) * 1e3 if cli else None
        return out


def _after(tracer, qual, result):
    """Counters taken from results, at the boundary where the work happens."""
    if qual == "realize.classify":
        klass = result.klass.value
        tracer.samples["realize.classify." + klass].append(tracer.last)
        tracer.counts["classify.catalog"] += result.network is not None
    elif qual == "verify.fit_topology":
        tracer.counts["fit.success"] += bool(result.success)
    elif qual == "verify.least_squares":
        tracer.counts["least_squares.nfev"] += int(result.nfev)
        tracer.counts["least_squares.njev"] += int(result.njev or 0)
    elif qual == "network.enumerate_labeled":
        tracer.counts["labelings"] += len(result)
    elif qual == "verify.falsify_small":
        for entry in result["entries"]:
            tracer.counts["falsify.filtered" if entry["filtered"] else "falsify.fitted"] += 1
    elif qual == "cli.main":
        tracer.samples["cli.main"].append(tracer.last)


def _wrap(tracer, qual, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        name = qual
        if qual == "network.impedance":
            name += ".exact" if _is_exact_network(args[0]) else ".mpf"
        elif qual == "realize.synth_config":
            config = str(args[0]).lower()
            name += "." + SYNTH_ALIASES.get(config, config)
        elif qual == "verify.least_squares":
            fun = args[0]
            residual = lambda x, *a, **k: tracer.span(RESIDUAL, fun, (x,) + a, k, store=False)
            args = (residual,) + args[1:]
        result = tracer.span(name, fn, args, kwargs)
        _after(tracer, qual, result)
        return result

    return traced


def install(tracer):
    """Rebind every traced function in every loaded biquadrlc module."""
    package = [m for n, m in sys.modules.items() if n == "biquadrlc" or n.startswith("biquadrlc.")]
    for module_name, functions in TRACED.items():
        home = sys.modules.get("biquadrlc." + module_name)
        if home is None:  # the CLI is loaded only where a workload uses it
            continue
        for fn_name in functions:
            original = getattr(home, fn_name)
            wrapper = _wrap(tracer, "%s.%s" % (module_name, fn_name), original)
            for module in package:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
