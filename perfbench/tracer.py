"""Layer tracing from outside the program.

Run as a script, this is the child of one traced command::

    python perfbench/tracer.py SPANS_FILE CMD_ID -- ideal --S 3

It imports ``ckpolylog``, wraps the public entry points of each module
(module functions, class attributes, and every name another module imported
by value), calls ``ckpolylog.cli.main(argv)``, keeps spans in memory and
writes them to SPANS_FILE when the command ends.  The parent turns the span
records of a pass into per-layer metrics with :func:`layer_metrics`.

Nothing under ``src/`` is modified; the wrapping happens in the child's
memory only.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter

# (span name, module, attribute path) -- each call becomes a span
SPAN_TARGETS = [
    ("cli.command", "cli", "cmd_ideal"),
    ("cli.command", "cli", "cmd_locus"),
    ("cli.command", "cli", "cmd_verify"),
    ("cli.emit", "cli", "_emit"),
    ("polylog.twisted_series", "polylog", "PolylogEngine.twisted_series"),
    ("polylog.teichmuller", "polylog", "PolylogEngine.values_at_teichmuller"),
    ("polylog.disk_table", "polylog", "PolylogEngine.disk_table"),
    ("polylog.period", "polylog", "PolylogEngine.period"),
    ("polylog.other", "polylog", "PolylogEngine.log"),
    ("polylog.other", "polylog", "PolylogEngine.polylog"),
    ("polylog.other", "polylog", "PolylogEngine.zeta"),
    ("polylog.other", "polylog", "PolylogEngine.zeta_nonzero"),
    ("polylog.other", "polylog", "padic_L3_check"),
    ("galois.table_build", "galois", "build_table_z_half"),
    ("galois.table_build", "galois", "build_table_z_sixth"),
    ("galois.f_sigma_tau", "galois", "f_sigma_tau_expression"),
    ("galois.other", "galois", "specialization_assignment"),
    ("galois.other", "galois", "standard_genset"),
    ("elimination.groebner", "elimination", "groebner"),
    ("elimination.ideal_member", "elimination", "ideal_member"),
    ("elimination.verify_vanishing", "elimination", "verify_vanishing"),
    ("elimination.problem_init", "elimination", "SubstitutionProblem.__init__"),
    ("elimination.shortcut", "elimination", "structured_shortcut_generators"),
    ("elimination.other", "elimination", "ck_ideal_generators"),
    ("elimination.other", "elimination", "specialize_coefficients"),
    ("cocycles.eval_universal", "cocycles", "eval_universal"),
    ("cocycles.cocycle_apply", "cocycles", "cocycle_apply"),
    ("loci.find_zeros", "loci", "find_zeros"),
    ("loci.local_series", "loci", "ColemanFunction.local_series"),
    ("loci.roots", "loci", "_roots_in_unit_disk"),
    ("loci.intersect", "loci", "intersect_loci"),
    ("loci.symmetrize", "loci", "s3_symmetrize"),
    ("loci.other", "loci", "locus_for"),
    ("loci.other", "loci", "weight4_function"),
    ("loci.other", "loci", "counterexample_cocycle"),
    ("words.cobar_square", "words", "cobar_square"),
    ("symbols.reduced_coproduct", "symbols", "reduced_coproduct"),
    ("archimedean.checks", "archimedean", "zeta3"),
    ("archimedean.checks", "archimedean", "complex_P3"),
    ("archimedean.checks", "archimedean", "kummer_spence_check"),
]

# (counter name, module, attribute path) -- hot calls, counted but not spanned
COUNT_TARGETS = [
    ("padic.add_ops", "padic", "PadicNumber.__add__"),
    ("padic.add_ops", "padic", "PadicNumber.__radd__"),
    ("padic.add_ops", "padic", "PadicNumber.__sub__"),
    ("padic.add_ops", "padic", "PadicNumber.__rsub__"),
    ("padic.add_ops", "padic", "PadicNumber.__neg__"),
    ("padic.mul_ops", "padic", "PadicNumber.__mul__"),
    ("padic.mul_ops", "padic", "PadicNumber.__rmul__"),
    ("padic.mul_ops", "padic", "PadicNumber.__pow__"),
    ("padic.div_ops", "padic", "PadicNumber.__truediv__"),
    ("padic.div_ops", "padic", "PadicNumber.__rtruediv__"),
    ("polylog.series_evals", "polylog", "_series_eval"),
    ("polylog.series_mults", "polylog", "_series_multiply"),
    ("elimination.reduce_calls", "elimination", "reduce_poly"),
    ("polylog.engines_built", "polylog", "PolylogEngine.__init__"),
    ("loci.disks_scanned", "loci", "ColemanFunction.local_series"),
]

# span name -> metric name of its call count
CALL_COUNTS = {
    "elimination.groebner": "elimination.groebner_calls",
    "galois.resolve": "galois.resolve_calls",
    "words.cobar_square": "words.cobar_calls",
    "loci.roots": "loci.root_searches",
    "polylog.disk_table": "polylog.disk_table_calls",
}

# per-layer metrics: name -> unit
SECONDS = "s"
COUNT = "count"
PER_LAYER = {
    "polylog.twisted_series_s": SECONDS,
    "polylog.teichmuller_s": SECONDS,
    "polylog.disk_table_s": SECONDS,
    "polylog.period_s": SECONDS,
    "polylog.other_s": SECONDS,
    "polylog.engines_built": COUNT,
    "polylog.series_built": COUNT,
    "polylog.disk_tables_built": COUNT,
    "polylog.disk_table_calls": COUNT,
    "polylog.series_evals": COUNT,
    "polylog.series_mults": COUNT,
    "polylog.series_degree_max": COUNT,
    "polylog.series_workprec": COUNT,
    "padic.mul_ops": COUNT,
    "padic.add_ops": COUNT,
    "padic.div_ops": COUNT,
    "galois.table_build_s": SECONDS,
    "galois.resolve_s": SECONDS,
    "galois.resolve_calls": COUNT,
    "galois.f_sigma_tau_s": SECONDS,
    "galois.other_s": SECONDS,
    "elimination.groebner_s": SECONDS,
    "elimination.groebner_calls": COUNT,
    "elimination.reduce_calls": COUNT,
    "elimination.ideal_member_s": SECONDS,
    "elimination.verify_vanishing_s": SECONDS,
    "elimination.problem_init_s": SECONDS,
    "elimination.shortcut_s": SECONDS,
    "elimination.other_s": SECONDS,
    "cocycles.eval_universal_s": SECONDS,
    "cocycles.cocycle_apply_s": SECONDS,
    "loci.find_zeros_s": SECONDS,
    "loci.local_series_s": SECONDS,
    "loci.roots_s": SECONDS,
    "loci.root_searches": COUNT,
    "loci.disks_scanned": COUNT,
    "loci.disks_with_roots": COUNT,
    "loci.zeros_certified": COUNT,
    "loci.intersect_s": SECONDS,
    "loci.symmetrize_s": SECONDS,
    "loci.other_s": SECONDS,
    "words.cobar_square_s": SECONDS,
    "words.cobar_calls": COUNT,
    "symbols.reduced_coproduct_s": SECONDS,
    "archimedean.checks_s": SECONDS,
    "cli.command_self_s": SECONDS,
    "cli.emit_s": SECONDS,
    "trace.coverage": "ratio",
    "trace.overhead_s": SECONDS,
}

# counters merged across commands by max instead of sum
MAX_COUNTERS = ("polylog.series_degree_max", "polylog.series_workprec")


# -- span arithmetic (used by the parent) --------------------------------------


def _unattributed(span):
    """Spans whose self time is not attributed to any layer: the handlers'
    own code, and the catch-all ``<layer>.other`` orchestration functions, so
    that unwrapped work below them lowers ``trace.coverage`` instead of
    hiding in it."""
    return span == "cli.command" or span.endswith(".other")


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children.

    ``spans`` is a list of (name, start, end, parent_index) with parent -1
    for a root.  Spans of one thread nest, so the children's durations are
    the part of the parent's interval they cover.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(records):
    """Per-layer metrics of one traced pass (one record per command).

    Seconds are summed self times, counts are summed, and the two series
    sizes are maxima.  ``trace.coverage`` is the self time of the named
    spans (all but the CLI command handlers and the ``<layer>.other``
    spans) over the in-process wall time of ``cli.main``.
    """
    seconds = Counter()
    calls = Counter()
    counts = Counter()
    maxima = dict.fromkeys(MAX_COUNTERS, 0)
    wall = 0.0
    for rec in records:
        wall += rec["wall"]
        spans = rec["spans"]
        for (name, _, _, _), st in zip(spans, self_times(spans)):
            seconds[name] += st
            calls[name] += 1
        for name, n in rec["counts"].items():
            if name in maxima:
                maxima[name] = max(maxima[name], n)
            else:
                counts[name] += n
    out = {}
    for name, unit in PER_LAYER.items():
        if unit == SECONDS and name != "trace.overhead_s":
            span = "cli.command" if name == "cli.command_self_s" else name[:-2]
            out[name] = seconds.get(span, 0.0)
    for span, metric in CALL_COUNTS.items():
        out[metric] = calls.get(span, 0)
    for name in PER_LAYER:
        if PER_LAYER[name] == COUNT and name not in out:
            out[name] = maxima.get(name, counts.get(name, 0))
    attributed = sum(v for k, v in seconds.items() if not _unattributed(k))
    out["trace.coverage"] = attributed / wall if wall > 0 else 0.0
    return out, set(calls)


# -- wrapping (runs in the traced child) ---------------------------------------


class Recorder:
    """Spans and counters of one traced command, kept in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()

    def parent_name(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def span(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _resolve(module, path):
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise AttributeError("%s.%s" % (module.__name__, path))
    return owner, attr, vars(owner)[attr]


def _hooks(rec, name, path):
    """Extra counters that need a call's arguments or result."""
    counts = rec.counts
    if path == "PolylogEngine.twisted_series":
        def before(args):
            eng = args[0]
            if eng._twisted is None:
                counts["polylog.series_built"] += 1
                counts["polylog.series_degree_max"] = max(
                    counts["polylog.series_degree_max"], eng._twist_degree())
                counts["polylog.series_workprec"] = max(
                    counts["polylog.series_workprec"], eng._gsprec)
        return before, None
    if path == "PolylogEngine.disk_table":
        def before(args):
            eng, a = args[0], args[1]
            if a % eng.p not in (0, 1) and a % eng.p not in eng._disk_tables:
                counts["polylog.disk_tables_built"] += 1
        return before, None
    if name == "loci.roots":
        def before(args):
            if rec.parent_name() != "loci.roots":
                counts["loci.disks_with_roots"] += 1
        return before, None
    if name == "loci.find_zeros":
        def after(args, locus):
            counts["loci.zeros_certified"] += sum(1 for z in locus.zeros if z.certified)
        return None, after
    return None, None


def install(rec):
    """Wrap every target in the loaded ``ckpolylog`` modules."""
    replaced = {}
    mods = {}

    def module(short):
        if short not in mods:
            mods[short] = importlib.import_module("ckpolylog." + short)
        return mods[short]

    for name, short, path in SPAN_TARGETS:
        owner, attr, fn = _resolve(module(short), path)
        before, after = _hooks(rec, name, path)
        wrapped = rec.span(name, fn, before, after)
        setattr(owner, attr, wrapped)
        replaced[id(fn)] = (fn, wrapped)
    for name, short, path in COUNT_TARGETS:
        owner, attr, fn = _resolve(module(short), path)
        # a class attribute already spanned (local_series) is counted around its span
        wrapped = rec.counter(name, getattr(owner, attr))
        setattr(owner, attr, wrapped)
        replaced.setdefault(id(fn), (fn, wrapped))

    # the resolver is a closure made at call time: span what it returns
    galois = module("galois")
    make = galois.numeric_primitive_resolver

    @functools.wraps(make)
    def numeric_primitive_resolver(*args, **kwargs):
        return rec.span("galois.resolve", make(*args, **kwargs))

    galois.numeric_primitive_resolver = numeric_primitive_resolver
    replaced[id(make)] = (make, numeric_primitive_resolver)

    # rebind names other modules imported by value (from .polylog import _series_eval)
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "ckpolylog" or modname.startswith("ckpolylog.")):
            continue
        for key, val in list(vars(mod).items()):
            hit = replaced.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, key, hit[1])


def main(argv):
    spans_path, cmd_id, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_FILE CMD_ID -- CLI_ARGS...")
    from ckpolylog import cli

    rec = Recorder()
    install(rec)
    code = 1
    t0 = perf_counter()
    try:
        code = cli.main(cli_argv)
    finally:
        wall = perf_counter() - t0
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump({"cmd": int(cmd_id), "argv": cli_argv, "wall": wall,
                       "exit": code, "spans": [tuple(s) for s in rec.spans],
                       "counts": rec.counts}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
