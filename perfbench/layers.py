"""Per-layer metrics from the spans of one traced pass over the corpus.

Counts (`.calls`, `.accepted`, `.count`, `.solver_iters`,
`.iterations`) are per pass and repeat exactly at a fixed seed, because
every pass feeds the same inputs with the same program seeds.  Times
(`.self_s`) are seconds per pass; a span's self time excludes its
traced children but includes the numpy work it asks for.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

import spans

# traced functions reported one by one, as <name>.calls and <name>.self_s
_FUNCTIONS = (
    "matkit.sample_tuple", "matkit.psd_complete",
    "realize.in_dom_plus", "realize.in_dom", "realize.resolvent",
    "realize.r_T",
    "partialcvx.convexity_verdict", "partialcvx.partial_hessian",
    "partialcvx.negativity_witness",
    "butterfly.poly_butterfly", "butterfly.butterfly_build",
    "butterfly.midpoint_violation_search",
    "ncalg.parse_poly", "ncalg.eval_poly",
    "xycvx.middle_matrix_psd_scan", "xycvx.middle_matrix",
    "xycvx.gram_complete_certificate", "xycvx.verify_certificate",
    "xycvx.mxy_witness_pair",
)
# realize.linearize counts calls of the three entry points; its self time
# also holds the public helpers they call
_LINEARIZE = ("realize.linearize_poly", "realize.minimize",
              "realize.symmetrize")
_LINEARIZE_HELPERS = ("realize.poly_linear_rep", "realize.smr_linear_rep",
                      "realize.reduce_linear_rep", "realize.is_minimal_rep",
                      "realize.symmetrize_linear_rep")

# the per_layer metrics this module reports, with their units
NAMES = {}
for _name in _FUNCTIONS + ("realize.linearize",):
    NAMES[_name + ".calls"] = "count"
    NAMES[_name + ".self_s"] = "s"
NAMES.update({
    "realize.in_dom_plus.accepted": "count",
    "realize.dom_plus.accept_ratio": "ratio",
    "partialcvx.region_empty.count": "count",
    "xycvx.gram.solver_calls": "count",
    "xycvx.gram.solver_iters": "count",
    "matkit.psd_complete.iterations": "count",
})
for _name in spans.LINALG:
    NAMES["linalg.%s.calls" % _name] = "count"
for _name in spans.LAYERS:
    NAMES[_name + ".self_s"] = "s"


def pass_metrics(span_list, linalg):
    """Every per-layer metric of one pass, as {name: value}."""
    calls, accepted, iters, raised = Counter(), Counter(), Counter(), Counter()
    self_s = defaultdict(float)
    layer_s = dict.fromkeys(spans.LAYERS, 0.0)
    for span, own in zip(span_list, spans.self_times(span_list)):
        name, outcome = span[0], span[4]
        calls[name] += 1
        self_s[name] += own
        layer_s[name.split(".", 1)[0]] += own
        if outcome is True:
            accepted[name] += 1
        elif type(outcome) is int:
            iters[name] += outcome
        elif isinstance(outcome, str):
            raised[name, outcome] += 1
    out = {}
    for name in _FUNCTIONS:
        out[name + ".calls"] = calls[name]
        out[name + ".self_s"] = self_s[name]
    out["realize.linearize.calls"] = sum(calls[m] for m in _LINEARIZE)
    out["realize.linearize.self_s"] = sum(
        self_s[m] for m in _LINEARIZE + _LINEARIZE_HELPERS)
    plus = "realize.in_dom_plus"
    out[plus + ".accepted"] = accepted[plus]
    out["realize.dom_plus.accept_ratio"] = \
        accepted[plus] / calls[plus] if calls[plus] else 0.0
    out["partialcvx.region_empty.count"] = \
        raised["partialcvx.convexity_verdict", "RegionEmpty"]
    out["xycvx.gram.solver_calls"] = calls[spans.SOLVER]
    out["xycvx.gram.solver_iters"] = iters[spans.SOLVER]
    out["matkit.psd_complete.iterations"] = iters["matkit.psd_complete"]
    for name in spans.LINALG:
        out["linalg.%s.calls" % name] = linalg[name]
    for layer, own in layer_s.items():
        out[layer + ".self_s"] = own
    return out


def combine(per_pass):
    """Counts from the first pass, times as the median over passes."""
    return {name: (statistics.median(p[name] for p in per_pass)
                   if unit in ("s", "ratio") else per_pass[0][name], unit)
            for name, unit in NAMES.items()}
