"""Per-layer metrics computed from a traced run's spans and counters.

Every figure is per traced verdict unless its unit says otherwise, so runs of
different lengths compare. A layer that a workload bypasses reads 0.
"""

# (name, unit, better)
PER_LAYER = (
    ("exactalg.inverse.calls", "calls/verdict", "lower"),
    ("exactalg.inverse.ms", "ms/verdict", "lower"),
    ("exactalg.mul.calls", "calls/verdict", "lower"),
    ("exactalg.mul.self_ms", "ms/verdict", "lower"),
    ("exactalg.mul.term_pairs", "pairs/verdict", "lower"),
    ("exactalg.mul.out_terms_per_pair", "terms/pair", "higher"),
    ("exactalg.exp.calls", "calls/verdict", "lower"),
    ("exactalg.exp.ms", "ms/verdict", "lower"),
    ("exactalg.series_built", "series/verdict", "lower"),
    ("charclass.sym_ch.calls", "calls/verdict", "lower"),
    ("charclass.sym_ch.ms", "ms/verdict", "lower"),
    ("charclass.todd_from_chern.calls", "calls/verdict", "lower"),
    ("charclass.todd_from_chern.ms", "ms/verdict", "lower"),
    ("charclass.power_sums.calls", "calls/verdict", "lower"),
    ("grrcheck.universal_report.calls", "calls/verdict", "lower"),
    ("grrcheck.universal_report.d1.ms", "ms/verdict", "lower"),
    ("grrcheck.universal_report.d2.ms", "ms/verdict", "lower"),
    ("grrcheck.universal_report.d3.ms", "ms/verdict", "lower"),
    ("grrcheck.universal_report.d4.ms", "ms/verdict", "lower"),
    ("grrcheck.verify_main_on_model.calls", "calls/verdict", "lower"),
    ("grrcheck.verify_main_on_model.self_ms", "ms/verdict", "lower"),
    ("grrcheck.todd_per_verdict", "calls/call", "lower"),
    ("chowmodel.normal_form.calls", "calls/verdict", "lower"),
    ("chowmodel.normal_form.self_ms", "ms/verdict", "lower"),
    ("chowmodel.normal_form.terms_in", "terms/call", "lower"),
    ("chowmodel.normal_form.terms_out", "terms/call", "lower"),
    ("chowmodel.load_model.ms", "ms/verdict", "lower"),
    ("combinat.pk_identity_check.calls", "calls/verdict", "lower"),
    ("combinat.pk_identity_check.ms", "ms/verdict", "lower"),
    ("kexpr.chain_verify.calls", "calls/verdict", "lower"),
    ("kexpr.chain_verify.ms", "ms/verdict", "lower"),
    ("quotientlab.flatness_verdict.self_ms", "ms/verdict", "lower"),
    ("quotientlab.hilbert_series.calls", "calls/verdict", "lower"),
    ("cli.main.ms", "ms/verdict", "lower"),
    ("trace.verdicts_per_s.untraced", "1/s", "higher"),
    ("trace.verdicts_per_s.traced", "1/s", "higher"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans_per_verdict", "spans/verdict", "lower"),
)

UNIVERSAL_DIMS = (1, 2, 3, 4)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer, plain: dict, traced: dict) -> dict:
    """{name: {"value", "unit"}} for every PER_LAYER metric."""
    spans = tracer.summary()
    counts = tracer.counts
    verdicts = traced["verdicts"]

    def per_verdict(name, field):
        return _ratio(spans.get(name, {}).get(field, 0), verdicts)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    values = {}
    universal = [f"grrcheck.universal_report.d{d}" for d in UNIVERSAL_DIMS]
    values["grrcheck.universal_report.calls"] = _ratio(sum(calls(n) for n in universal), verdicts)
    for d, span in zip(UNIVERSAL_DIMS, universal):
        values[f"{span}.ms"] = per_verdict(span, "ms")
    values["exactalg.mul.term_pairs"] = _ratio(counts["exactalg.mul.term_pairs"], verdicts)
    values["exactalg.mul.out_terms_per_pair"] = _ratio(
        counts["exactalg.mul.out_terms"], counts["exactalg.mul.term_pairs"]
    )
    values["exactalg.series_built"] = _ratio(counts["exactalg.series_built"], verdicts)
    nf_calls = calls("chowmodel.normal_form")
    values["chowmodel.normal_form.terms_in"] = _ratio(counts["chowmodel.normal_form.terms_in"], nf_calls)
    values["chowmodel.normal_form.terms_out"] = _ratio(counts["chowmodel.normal_form.terms_out"], nf_calls)
    values["grrcheck.todd_per_verdict"] = _ratio(
        tracer.calls_under("charclass.todd_from_chern", "grrcheck.verify_main_on_model"),
        calls("grrcheck.verify_main_on_model"),
    )
    untraced_rate = _ratio(plain["verdicts"], plain["scaled_work_s"])
    traced_rate = _ratio(traced["verdicts"], traced["scaled_work_s"])
    values["trace.verdicts_per_s.untraced"] = untraced_rate
    values["trace.verdicts_per_s.traced"] = traced_rate
    values["trace.overhead_pct"] = 100.0 * (_ratio(untraced_rate, traced_rate) - 1.0) if traced_rate else 0.0
    values["trace.spans_per_verdict"] = _ratio(len(tracer.span_start), verdicts)
    for name, _unit, _better in PER_LAYER:
        if name not in values:  # plain <span name>.<calls|ms|self_ms>
            span, _, field = name.rpartition(".")
            values[name] = per_verdict(span, field)
    return {name: {"value": values[name], "unit": unit} for name, unit, _better in PER_LAYER}
