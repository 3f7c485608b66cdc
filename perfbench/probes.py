"""Where the traced run puts its spans, and the per-layer metrics it reports.

Each probe wraps one attribute that a caller looks up at call time, so the
span sits on the boundary between two layers.  Functions the package
imports by name are wrapped in the importing module (``cli.search_...``),
methods on their class.
"""

from __future__ import annotations

from fermatsyz import _kernels, bundle, cli, linalg, poly, ring, stability, tightclosure

from spans import LAYERS, Tracer

# name -> unit, in the order results are printed
PER_LAYER = {
    "linalg.rref.calls": "count",
    "linalg.rref.s": "s",
    "linalg.rref.entries": "count",
    "linalg.rref.max_entries": "count",
    "linalg.rref.repeat_ratio": "ratio",
    "bundle.has_section.calls": "count",
    "bundle.has_section.self_s": "s",
    "bundle.has_section.hit_ratio": "ratio",
    "stability.search.self_s": "s",
    "stability.twists_scanned": "count",
    "bundle.section_space.calls": "count",
    "bundle.section_space.self_s": "s",
    "bundle.sections_out": "count",
    "bundle.section_vector.s": "s",
    "ring.normal_form.calls": "count",
    "ring.normal_form.s": "s",
    "ring.normal_form.terms_out": "count",
    "ring.from_coords.s": "s",
    "field.binom_uint.calls": "count",
    "cli.calls": "count",
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "stability.verify.self_s": "s",
    "stability.certify.self_s": "s",
    "poly.parse_poly.s": "s",
    "tightclosure.tc.s": "s",
    **{f"layer.{name}.self_s": "s" for name in LAYERS},
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}


def _rref_input(tracer: Tracer, args):
    a, p = args
    key = hash((a.shape, p, a.tobytes()))
    counts = tracer.counts
    counts["linalg.rref.repeats"] += key in tracer.seen
    tracer.seen.add(key)
    counts["linalg.rref.entries"] += a.size
    counts["linalg.rref.max_entries"] = max(counts["linalg.rref.max_entries"], a.size)


def _has_section_hit(tracer: Tracer, _args, result):
    tracer.counts["bundle.has_section.hits"] += bool(result)


def _sections_out(tracer: Tracer, _args, result):
    tracer.counts["bundle.sections_out"] += len(result)


def _terms_out(tracer: Tracer, _args, result):
    tracer.counts["ring.normal_form.terms_out"] += len(result.terms)


def install(tracer: Tracer):
    """Wrap every layer boundary the per-layer metrics read."""
    w = tracer.wrap
    w(cli, "main", "cli")
    w(cli, "search_destabilization", "stability.search")
    w(cli, "certify_destabilization", "stability.certify")
    w(cli, "find_parameters", "stability.find_parameters")
    w(cli, "verify_certificate", "stability.verify")
    w(cli, "deviation_lower_bound", "stability.deviation")
    w(cli, "tc_counterexample", "tightclosure.tc")
    w(stability, "has_section", "bundle.has_section", after=_has_section_hit)
    w(stability, "section_space", "bundle.section_space", after=_sections_out)
    w(bundle, "section_space", "bundle.section_space", after=_sections_out)
    w(stability, "parse_poly", "poly.parse_poly")
    w(bundle.SectionVector, "__init__", "bundle.section_vector")
    w(_kernels, "rref_mod_p", "linalg.rref", before=_rref_input)
    w(bundle, "kernel_from_rref", "linalg.kernel_from_rref")
    w(linalg, "kernel_from_rref", "linalg.kernel_from_rref")  # MatrixModP.kernel_basis
    w(linalg.MatrixModP, "__init__", "linalg.matrix")
    w(ring.FermatRing, "normal_form", "ring.normal_form", after=_terms_out)
    w(ring.FermatRing, "from_coords", "ring.from_coords")
    w(ring.FermatRing, "multiplication_matrix", "ring.multiplication_matrix")
    w(ring, "normal_form", "poly.normal_form")  # the poly function ring imports
    w(poly.GradedPoly, "__mul__", "poly.mul")
    for module in (poly, bundle, tightclosure):
        w(module, "binom_uint", "field.binom_uint")


def layer_metrics(tracer: Tracer, lo: int, hi: int) -> dict:
    """Per-layer metrics of spans [lo, hi) and the counters taken with them.

    ``trace.overhead_ratio`` needs an untraced run and is filled in by the
    caller.
    """
    spans = tracer.summarize(lo, hi)
    counts = tracer.counts

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    layer_self = {name: 0.0 for name in LAYERS}
    for name, row in spans.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += row["self_s"]
    return {
        "linalg.rref.calls": get("linalg.rref", "calls"),
        "linalg.rref.s": get("linalg.rref", "s"),
        "linalg.rref.entries": counts["linalg.rref.entries"],
        "linalg.rref.max_entries": counts["linalg.rref.max_entries"],
        "linalg.rref.repeat_ratio": ratio(
            counts["linalg.rref.repeats"], get("linalg.rref", "calls")
        ),
        "bundle.has_section.calls": get("bundle.has_section", "calls"),
        "bundle.has_section.self_s": get("bundle.has_section", "self_s"),
        "bundle.has_section.hit_ratio": ratio(
            counts["bundle.has_section.hits"], get("bundle.has_section", "calls")
        ),
        "stability.search.self_s": get("stability.search", "self_s"),
        "stability.twists_scanned": tracer.child_count(
            lo, hi, "bundle.has_section", "stability.search"
        ),
        "bundle.section_space.calls": get("bundle.section_space", "calls"),
        "bundle.section_space.self_s": get("bundle.section_space", "self_s"),
        "bundle.sections_out": counts["bundle.sections_out"],
        "bundle.section_vector.s": get("bundle.section_vector", "s"),
        "ring.normal_form.calls": get("ring.normal_form", "calls"),
        "ring.normal_form.s": get("ring.normal_form", "s"),
        "ring.normal_form.terms_out": counts["ring.normal_form.terms_out"],
        "ring.from_coords.s": get("ring.from_coords", "s"),
        "field.binom_uint.calls": get("field.binom_uint", "calls"),
        "cli.calls": get("cli", "calls"),
        "cli.self_s": get("cli", "self_s"),
        "cli.bytes_out": counts["cli.bytes_out"],
        "stability.verify.self_s": get("stability.verify", "self_s"),
        "stability.certify.self_s": get("stability.certify", "self_s"),
        "poly.parse_poly.s": get("poly.parse_poly", "s"),
        "tightclosure.tc.s": get("tightclosure.tc", "s"),
        **{f"layer.{name}.self_s": s for name, s in layer_self.items()},
        "trace.spans": hi - lo,
    }
