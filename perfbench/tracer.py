"""Span tracer that wraps detlam's public functions from outside the package.

``Tracer.install()`` replaces each traced function at every place it can be
looked up: the defining module, every detlam module that imported it by name
(``grrcheck.todd_from_chern`` as well as ``charclass.todd_from_chern``), and
every class attribute that aliases it (``TruncatedSeries.__rmul__``).
``uninstall()`` puts the originals back. No detlam file is edited.

Each wrapped call records one span: name, start, end, parent span and the
verdict (trace) it belongs to. Spans live in flat arrays in memory and are
written out once, by ``write()``, when the run ends. Per-layer figures are
computed from the spans afterwards: a span's self time is its duration minus
the durations of its direct children.
"""

import array
import json
import sys
import time
from collections import defaultdict

from detlam import exactalg

_Series = exactalg.TruncatedSeries


def _len_terms(x) -> int:
    return len(x.terms) if isinstance(x, _Series) else 0


def _mul_counts(args, result):
    a, b = args[0], args[1]
    if not isinstance(b, _Series):
        return ()
    return (("term_pairs", len(a.terms) * len(b.terms)), ("out_terms", _len_terms(result)))


def _normal_form_counts(args, result):
    return (("terms_in", _len_terms(args[1])), ("terms_out", _len_terms(result)))


def _universal_name(args, kwargs):
    d = args[0] if args else kwargs.get("d")
    return f"grrcheck.universal_report.d{d}"


# (module, attribute path, span name or naming function, count extractor)
TARGETS = (
    ("detlam.exactalg", "TruncatedSeries.__mul__", "exactalg.mul", _mul_counts),
    ("detlam.exactalg", "TruncatedSeries.inverse", "exactalg.inverse", None),
    ("detlam.exactalg", "TruncatedSeries.exp", "exactalg.exp", None),
    ("detlam.charclass", "power_sums", "charclass.power_sums", None),
    ("detlam.charclass", "sym_ch", "charclass.sym_ch", None),
    ("detlam.charclass", "todd_from_chern", "charclass.todd_from_chern", None),
    ("detlam.chowmodel", "ChowModel.normal_form", "chowmodel.normal_form", _normal_form_counts),
    ("detlam.chowmodel", "load_model", "chowmodel.load_model", None),
    ("detlam.grrcheck", "universal_report", _universal_name, None),
    ("detlam.grrcheck", "verify_main_on_model", "grrcheck.verify_main_on_model", None),
    ("detlam.combinat", "pk_identity_check", "combinat.pk_identity_check", None),
    ("detlam.kexpr", "chain_verify", "kexpr.chain_verify", None),
    ("detlam.quotientlab", "flatness_verdict", "quotientlab.flatness_verdict", None),
    ("detlam.quotientlab", "hilbert_series", "quotientlab.hilbert_series", None),
    ("detlam.cli", "main", "cli.main", None),
)

# Counted, not spanned: constructions happen inside nearly every other span.
COUNTED = (("detlam.exactalg", "TruncatedSeries.__init__", "exactalg.series_built"),)

VERDICT_SPAN = "verdict"


def _resolve(module_name: str, path: str):
    obj = sys.modules[module_name]
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _lookup_sites(original):
    """Every (namespace owner, attribute) in detlam that holds ``original``."""
    sites = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod_name != "detlam" and not mod_name.startswith("detlam."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                sites.append((mod, attr))
            elif isinstance(value, type) and value.__module__ == mod_name:
                for cattr, cvalue in list(vars(value).items()):
                    if cvalue is original:
                        sites.append((value, cattr))
    return sites


class Tracer:
    """In-memory spans plus counters, recorded only while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_trace = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.counts: dict[str, int] = defaultdict(int)
        self.trace_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``; return its result."""
        sid = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_trace.append(self.trace_id)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.span_start[sid] = t0
            self.span_end[sid] = t1

    def _wrap(self, original, name, counter):
        tracer = self
        fixed = isinstance(name, str)
        counts = self.counts

        def traced(*args, **kwargs):
            span_name = name if fixed else name(args, kwargs)
            result = tracer.span(span_name, original, *args, **kwargs)
            if counter is not None:
                for key, n in counter(args, result):
                    counts[f"{span_name}.{key}"] += n
            return result

        traced.__wrapped__ = original
        return traced

    def _count(self, original, name):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        counted.__wrapped__ = original
        return counted

    # ------------------------------------------------------------------
    # installation

    def install(self) -> int:
        """Wrap every target at every lookup site; return the site count."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        plan = [(m, p, self._wrap, (n, c)) for m, p, n, c in TARGETS]
        plan += [(m, p, self._count, (n,)) for m, p, n in COUNTED]
        for module_name, path, make, extra in plan:
            original = _resolve(module_name, path)
            wrapper = make(original, *extra)
            for owner, attr in _lookup_sites(original):
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        return len(self._patched)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    # analysis and output

    def summary(self) -> dict:
        """Per span name: calls, inclusive ms and self ms; plus counters."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.span_parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict] = {}
        for i in range(n):
            rec = out.get(self.names[self.span_name[i]])
            if rec is None:
                rec = out[self.names[self.span_name[i]]] = {"calls": 0, "ms": 0.0, "self_ms": 0.0}
            rec["calls"] += 1
            rec["ms"] += dur[i] * 1000.0
            rec["self_ms"] += (dur[i] - child[i]) * 1000.0
        return out

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans named ``name`` with an ancestor span named ``ancestor``."""
        nid, aid = self._name_ids.get(name), self._name_ids.get(ancestor)
        if nid is None or aid is None:
            return 0
        hits = 0
        for i in range(len(self.span_name)):
            if self.span_name[i] != nid:
                continue
            p = self.span_parent[i]
            while p >= 0 and self.span_name[p] != aid:
                p = self.span_parent[p]
            hits += p >= 0
        return hits

    def write(self, path: str) -> None:
        """Spans as JSON lines: a header, then one [id, parent, trace, name,
        start_s, end_s] array per span, times relative to the first span."""
        origin = self.span_start[0] if len(self.span_start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "counts": dict(self.counts)}) + "\n")
            for i in range(len(self.span_start)):
                fh.write(json.dumps([
                    i,
                    self.span_parent[i],
                    self.span_trace[i],
                    self.names[self.span_name[i]],
                    round(self.span_start[i] - origin, 9),
                    round(self.span_end[i] - origin, 9),
                ]) + "\n")
