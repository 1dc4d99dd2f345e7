"""Per-layer tracing from outside the package.

``Tracer.install`` wraps the public entry points of each module listed
in ``LAYERS``.  A ``from .linalg import rref`` binds the name in the
importing module, so every ``kolchin.*`` namespace that binds a wrapped
function is patched, and methods are replaced on their class.
``uninstall`` restores the originals.

Every call becomes a frame on a stack; a frame's self time is its
duration minus the time its child frames cover, and the tracer's own
bookkeeping for a child is counted as covered, so it lands in no
layer's self time.  Calls of the coarse layers are also kept as spans
(name, start, end, parent) in memory and written out by ``dump_spans``;
the hot leaf layers (matrix products, eliminations, word evaluation)
are only aggregated, since a run makes millions of them.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

# (metric prefix, module, attribute, kind).  Kinds: "hot" is timed and
# aggregated, "span" is timed and kept as a span, "count" only counts.
LAYERS = (
    ("linalg.matmul", "kolchin.linalg", "Matrix.__mul__", "hot"),
    ("linalg.rref", "kolchin.linalg", "rref", "hot"),
    ("linalg.subspace_reduce", "kolchin.linalg", "Subspace.reduce", "hot"),
    ("linalg.express", "kolchin.linalg", "express_in_rows", "hot"),
    ("linalg.absorb", "kolchin.linalg", "RowSpan.absorb", "hot"),
    ("fields.of", "kolchin.fields", "Field.of", "count"),
    ("fields.inv", "kolchin.fields", "Field.inv", "count"),
    ("algebra.span_closure", "kolchin.algebra", "span_closure", "span"),
    ("algebra.ideal_closure", "kolchin.algebra", "ideal_closure", "span"),
    ("algebra.ideal_power_chain", "kolchin.algebra", "ideal_power_chain", "span"),
    ("algebra.trace_radical", "kolchin.algebra", "trace_radical", "span"),
    ("algebra.basis_init", "kolchin.algebra", "AlgebraBasis.__init__", "span"),
    ("algebra.ideal_init", "kolchin.algebra", "Ideal.__init__", "span"),
    ("algebra.standard_identity_witness", "kolchin.algebra", "standard_identity_witness",
     "span"),
    ("algebra.sweep", "kolchin.algebra", "standard_identity_eval", "count"),
    ("reps.kolchin_flag", "kolchin.reps", "kolchin_flag", "span"),
    ("reps.generator_identity_witness", "kolchin.reps", "generator_identity_witness", "span"),
    ("reps.difference_product_spans", "kolchin.reps", "difference_product_spans", "span"),
    ("reps.unipotent_radical", "kolchin.reps", "unipotent_radical", "span"),
    ("reps.kaloujnine_class_check", "kolchin.reps", "kaloujnine_class_check", "span"),
    ("reps.representation_init", "kolchin.reps", "Representation.__init__", "span"),
    ("words.evaluate_word", "kolchin.words", "evaluate_word", "hot"),
    ("words.engel_probe", "kolchin.words", "engel_probe", "span"),
    ("words.enumerate_elements", "kolchin.words", "enumerate_elements", "span"),
    ("words.conjugacy_classes", "kolchin.words", "conjugacy_classes", "span"),
    ("words.brute_force", "kolchin.words", "brute_force_unipotent_radical", "span"),
    ("certificates.check", "kolchin.certificates", "check_certificate", "span"),
    ("certificates.write", "kolchin.certificates", "write_certificate", "span"),
    ("repfile.load", "kolchin.repfile", "load_representation", "span"),
    ("cli.main", "kolchin.cli", "main", "span"),
)

# The reported per-layer metrics, in the order BENCHMARK.json lists them.
METRICS = (
    ("linalg.matmul.calls", "count"), ("linalg.matmul.self_s", "s"),
    ("linalg.rref.calls", "count"), ("linalg.rref.self_s", "s"),
    ("linalg.subspace_reduce.calls", "count"), ("linalg.subspace_reduce.self_s", "s"),
    ("linalg.express.calls", "count"), ("linalg.express.self_s", "s"),
    ("linalg.absorb.calls", "count"), ("linalg.absorb.grew", "count"),
    ("linalg.absorb.useful_ratio", "ratio"), ("linalg.absorb.self_s", "s"),
    ("linalg.max_entry_bits", "bits"),
    ("fields.of.calls", "count"), ("fields.inv.calls", "count"),
    ("algebra.span_closure.calls", "count"), ("algebra.span_closure.total_s", "s"),
    ("algebra.span_closure.self_s", "s"), ("algebra.span_closure.products", "count"),
    ("algebra.ideal_closure.calls", "count"), ("algebra.ideal_closure.total_s", "s"),
    ("algebra.ideal_closure.self_s", "s"), ("algebra.ideal_closure.products", "count"),
    ("algebra.ideal_power_chain.calls", "count"), ("algebra.ideal_power_chain.total_s", "s"),
    ("algebra.trace_radical.calls", "count"), ("algebra.trace_radical.total_s", "s"),
    ("algebra.basis_init.total_s", "s"), ("algebra.ideal_init.total_s", "s"),
    ("algebra.standard_identity_witness.calls", "count"),
    ("algebra.standard_identity_witness.total_s", "s"),
    ("algebra.sweep.tuples", "count"),
    ("reps.kolchin_flag.calls", "count"), ("reps.kolchin_flag.total_s", "s"),
    ("reps.kolchin_flag.self_s", "s"),
    ("reps.generator_identity_witness.calls", "count"),
    ("reps.generator_identity_witness.total_s", "s"),
    ("reps.difference_product_spans.calls", "count"),
    ("reps.difference_product_spans.total_s", "s"),
    ("reps.unipotent_radical.calls", "count"), ("reps.unipotent_radical.total_s", "s"),
    ("reps.kaloujnine_class_check.calls", "count"),
    ("reps.kaloujnine_class_check.total_s", "s"),
    ("reps.kaloujnine_class_check.self_s", "s"),
    ("reps.representation_init.calls", "count"), ("reps.representation_init.total_s", "s"),
    ("words.evaluate_word.calls", "count"), ("words.evaluate_word.total_s", "s"),
    ("words.engel_probe.calls", "count"), ("words.engel_probe.total_s", "s"),
    ("words.engel_probe.self_s", "s"),
    ("words.enumerate_elements.calls", "count"), ("words.enumerate_elements.total_s", "s"),
    ("words.enumerate_elements.elements", "count"),
    ("words.conjugacy_classes.classes", "count"),
    ("words.brute_force.calls", "count"), ("words.brute_force.total_s", "s"),
    ("words.brute_force.self_s", "s"),
    ("certificates.check.calls", "count"), ("certificates.check.total_s", "s"),
    ("certificates.check.self_s", "s"),
    ("certificates.write.calls", "count"), ("certificates.write.total_s", "s"),
    ("certificates.write.bytes", "bytes"),
    ("repfile.load.calls", "count"), ("repfile.load.total_s", "s"),
    ("repfile.load.bytes", "bytes"),
    ("cli.main.calls", "count"), ("cli.main.total_s", "s"), ("cli.main.self_s", "s"),
    ("cli.exit.0", "count"), ("cli.exit.1", "count"), ("cli.exit.2", "count"),
    ("cli.exit.3", "count"),
    ("trace.overhead_ratio", "ratio"),
)


def _bits(rows) -> int:
    best = 0
    for row in rows:
        for x in row:
            if x.__class__ is Fraction:
                b = max(abs(x.numerator).bit_length(), x.denominator.bit_length())
            else:
                b = abs(x).bit_length()
            if b > best:
                best = b
    return best


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    """Wraps the layers of one imported package; one tracer per run."""

    def __init__(self):
        self.stats: dict[str, float] = defaultdict(float)
        # frame: [start, covered by children, matrix products, span index]
        self.stack: list[list] = [[0.0, 0.0, 0, None]]
        self.spans: list[list] = []
        self._restore: list[tuple] = []

    # -- result hooks: extra counters measured where the work happens --

    def _after(self, layer, args, result, frame):
        stats = self.stats
        if layer == "linalg.matmul":
            if result is not NotImplemented:
                self.stack[-1][2] += 1
                self._entry_bits(result.rows)
        elif layer == "linalg.rref":
            self._entry_bits(result.reduced.rows)
            self._entry_bits(result.transform.rows)
        elif layer in ("linalg.subspace_reduce", "linalg.express"):
            if result is not None:
                self._entry_bits((result,))
        elif layer == "linalg.absorb":
            if result:
                stats["linalg.absorb.grew"] += 1
                self._entry_bits(args[0].rows)
        elif layer in ("algebra.span_closure", "algebra.ideal_closure"):
            stats[layer + ".products"] += frame[2]
        elif layer == "words.enumerate_elements":
            stats["words.enumerate_elements.elements"] += len(result)
        elif layer == "words.conjugacy_classes":
            stats["words.conjugacy_classes.classes"] += len(result)
        elif layer in ("certificates.write", "repfile.load"):
            stats[layer + ".bytes"] += _file_bytes(args[0])
        elif layer == "cli.main":
            stats[f"cli.exit.{result}"] += 1

    def _entry_bits(self, rows):
        b = _bits(rows)
        if b > self.stats["linalg.max_entry_bits"]:
            self.stats["linalg.max_entry_bits"] = b

    def _timed(self, layer, fn, keep_span):
        stack, stats, spans, after = self.stack, self.stats, self.spans, self._after
        calls, total, self_key = layer + ".calls", layer + ".total_s", layer + ".self_s"

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span = parent[3]
            if keep_span:
                span = len(spans)
                spans.append([layer, 0.0, 0.0, parent[3]])
            frame = [0.0, 0.0, 0, span]
            stack.append(frame)
            frame[0] = start = perf_counter()
            result = returned = None
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stats[calls] += 1
                stats[total] += duration
                stats[self_key] += duration - frame[1]
                if keep_span:
                    spans[span][1], spans[span][2] = start, end
                if returned:
                    after(layer, args, result, frame)
                parent[1] += perf_counter() - start

        return wrapper

    def _counted(self, layer, fn):
        stats = self.stats
        key = "algebra.sweep.tuples" if layer == "algebra.sweep" else layer + ".calls"

        def wrapper(*args, **kwargs):
            stats[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every layer of the ``kolchin`` package currently imported."""
        modules = [m for name, m in sys.modules.items()
                   if name == "kolchin" or name.startswith("kolchin.")]
        for layer, module, attr, kind in LAYERS:
            owner = sys.modules[module]
            if kind == "count":
                make = lambda fn, layer=layer: self._counted(layer, fn)
            else:
                make = lambda fn, layer=layer, span=kind == "span": self._timed(layer, fn, span)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, make(original))
                self._restore.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapped = make(original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)
                        self._restore.append((mod, name, original))

    def uninstall(self):
        for target, name, original in reversed(self._restore):
            setattr(target, name, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def metrics(self, overhead_ratio: float | None = None) -> dict:
        """Every per-layer metric, including layers that saw no calls."""
        stats = dict(self.stats)
        calls = stats.get("linalg.absorb.calls", 0)
        stats["linalg.absorb.useful_ratio"] = stats.get("linalg.absorb.grew", 0) / calls \
            if calls else 0.0
        if overhead_ratio is not None:
            stats["trace.overhead_ratio"] = overhead_ratio
        out = {}
        for name, unit in METRICS:
            value = stats.get(name, 0)
            if unit in ("count", "bytes", "bits"):
                value = int(value)
            out[name] = {"value": value, "unit": unit}
        return out

    def dump_spans(self, path: str):
        """Write the kept spans as JSON lines: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
