"""Names, units and derivations of the benchmark's metrics.

End-to-end metrics come from untraced passes; per-layer metrics come
from the spans of traced passes and are given per traced pass (counts
and seconds) or per unit of work (ns, ms). A layer a workload never
reaches reads 0 there.
"""

import statistics

from tracing import LAYERS, summarize

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("work_per_s", "1/s"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

def spread(values):
    """(median, first quartile, third quartile, sample count)."""
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, len(values)


def per_op_sums(passes):
    """One pass, op by op: (best, median, q1, q3), each summed over ops.

    Each statistic is taken per operation over the passes. The best
    (minimum) time of each operation, summed, is `run_s`, and the
    tracing overhead compares it between traced and untraced passes: on
    a shared machine an operation is slowed by others' work, never sped
    up, and its fastest pass is the one least slowed. The median and
    quartiles show how much the passes were slowed.
    """
    per_op = [list(times) for times in zip(*(p["ops"] for p in passes))]
    stats = [spread(times) for times in per_op]
    return (sum(min(times) for times in per_op),
            *(sum(s[i] for s in stats) for i in range(3)))


CLI_COMMANDS = ("couple", "line-sim", "string-sim", "lattice-sim",
                "autocorr", "mb-stats", "invert", "report")
CLOSE_LOOPS_BUCKETS = (("dim_1_5", 1, 5), ("dim_6_9", 6, 9),
                       ("dim_10_13", 10, 13))


def _busy(name):
    return lambda t: t.busy(name)


def _calls(name):
    return lambda t: t.calls(name)


def _failed(name):
    return lambda t: t.failed(name)


def _layer(layer, kind):
    return lambda t: t.layer(layer, kind)


def _run_line_ns(far_end, size):
    def value(t):
        spans = [s for s in t.spans_of("waveline.run_line")
                 if s[5]["far_end"] == far_end]
        work = sum(size(s[5]) for s in spans)
        return 1e9 * sum(s[2] - s[1] for s in spans) / work if work else 0.0
    return value


def _autocorr_ns(t):
    spans = t.spans_of("lattice.momentum_autocorr")
    work = sum(s[5]["entries"] for s in spans)
    return 1e9 * sum(s[2] - s[1] for s in spans) / work if work else 0.0


def _close_loops_ms(lo, hi):
    def value(t):
        spans = [s for s in t.spans_of("coupling.close_loops")
                 if lo <= s[5]["dim"] <= hi]
        return (1e3 * sum(s[2] - s[1] for s in spans) / len(spans)
                if spans else 0.0)
    return value


def _cli_import(t):
    calls = t.by_name.get("cli.import", {}).get("calls", 0)
    return t.by_name["cli.import"]["s"] / calls if calls else 0.0


PER_LAYER = (
    ("waveline.run_line.open.ns_per_cell_step", "ns",
     _run_line_ns("open", lambda tags: tags["cells"] * tags["steps"])),
    ("waveline.run_line.shorted.ns_per_step", "ns",
     _run_line_ns("shorted", lambda tags: tags["steps"])),
    ("waveline.reduced_forward.s", "s", _busy("waveline.reduced_forward")),
    ("waveline.reduced_backward.s", "s", _busy("waveline.reduced_backward")),
    ("waveline.to_csv.s", "s", _busy("waveline.BoundaryTrace.to_csv")),
    ("lattice.momentum_autocorr.ns_per_entry", "ns", _autocorr_ns),
    ("lattice.autocov_oracle.s", "s", _busy("lattice.autocov_oracle")),
    ("lattice.sample_invariant.calls", "count",
     _calls("lattice.sample_invariant")),
    ("lattice.sample_invariant.s", "s", _busy("lattice.sample_invariant")),
    ("lattice.integrate.s", "s", _busy("lattice.integrate")),
    ("statmech.periodicity_probe.s", "s", _busy("statmech.periodicity_probe")),
    ("statmech.autocovariance.s", "s", _busy("statmech.autocovariance")),
    ("statmech.sample_mb.s", "s", _busy("statmech.sample_mb")),
    *((f"coupling.close_loops.ms_per_load.{label}", "ms",
       _close_loops_ms(lo, hi)) for label, lo, hi in CLOSE_LOOPS_BUCKETS),
    ("coupling.close_loops.failed", "count", _failed("coupling.close_loops")),
    ("coupling.observable_transfers.s", "s",
     _busy("coupling.observable_transfers")),
    ("coupling.run_synthesis.s", "s", _busy("coupling.run_synthesis")),
    ("coupling.run_synthesis.failed", "count",
     _failed("coupling.run_synthesis")),
    ("realization.verify_lossless_certificate.calls", "count",
     _calls("realization.verify_lossless_certificate")),
    ("realization.transfer_function.calls", "count",
     _calls("realization.transfer_function")),
    ("realization.transfer_function.s", "s",
     _busy("realization.transfer_function")),
    ("ratfun.quotient.s", "s", _busy("ratfun.quotient")),
    ("ratfun.is_inner.s", "s", _busy("ratfun.is_inner")),
    ("ratfun.spectral_factor.s", "s", _busy("ratfun.spectral_factor")),
    ("cli.import_s", "s", _cli_import),
    *((f"cli.{cmd}.s", "s", _busy(f"bench.cli.{cmd}"))
      for cmd in CLI_COMMANDS),
    *((f"{layer}.{kind}", unit, _layer(layer, kind))
      for layer in LAYERS
      for kind, unit in (("calls", "count"), ("self_s", "s"),
                         ("failed", "count"))),
    ("trace.spans", "count", lambda t: len(t.spans) / t.passes),
    ("trace.overhead_s", "s", lambda t: t.overhead_s),
)


class TraceSummary:
    """Spans of the traced passes of one run, with per-pass helpers."""

    def __init__(self, spans, passes, overhead_s):
        self.spans = spans
        self.passes = passes
        self.overhead_s = overhead_s
        self.by_name, self.by_layer = summarize(spans)

    def spans_of(self, name):
        entry = self.by_name.get(name)
        return [self.spans[i] for i in entry["spans"]] if entry else []

    def busy(self, name):
        return self.by_name.get(name, {}).get("s", 0.0) / self.passes

    def calls(self, name):
        return self.by_name.get(name, {}).get("calls", 0) / self.passes

    def failed(self, name):
        return self.by_name.get(name, {}).get("failed", 0) / self.passes

    def layer(self, layer, kind):
        return self.by_layer[layer][kind] / self.passes


def per_layer(spans, passes, overhead_s):
    """Every per-layer metric as name -> (value, unit)."""
    summary = TraceSummary(spans, passes, overhead_s)
    return {name: (float(fn(summary)), unit) for name, unit, fn in PER_LAYER}
