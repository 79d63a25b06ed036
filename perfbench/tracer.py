"""Per-layer spans recorded from outside defring, by wrapping its functions.

`Tracer.install` replaces every module binding of each wrapped function (and
the class attribute of each wrapped method) with a wrapper that records a
span: name, item, parent span, start and end.  Spans stay in memory until
the run ends; `summary` turns one pass worth of them into calls, total and
self time per span, plus the counts the workloads are judged by.
`uninstall` puts every original back, so untraced passes run the program
exactly as shipped.
"""

from __future__ import annotations

import gzip
import json
import sys
import time

# span name -> (module, attribute path) of the wrapped callable
SPANS = {
    "dsl.parse": ("defring.dsl", "parse"),
    "dsl.serialize_report": ("defring.dsl", "serialize_report"),
    "algebra.from_source": ("defring.algebra", "PresentedAlgebra.from_source"),
    "rep.DeformationSystem": ("defring.rep", "DeformationSystem.__init__"),
    "rep.ext1_cocycle": ("defring.rep", "ext1_cocycle"),
    "rep.ext1_syzygy": ("defring.rep", "ext1_syzygy"),
    "rep.ext1_hereditary": ("defring.rep", "ext1_hereditary"),
    "rep.hom_basis": ("defring.rep", "hom_basis"),
    "rep.hom_stable": ("defring.rep", "hom_stable"),
    "classify.classify": ("defring.classify", "classify"),
    "classify.tangent_dimension": ("defring.classify", "tangent_dimension"),
    "classify.ladder_search": ("defring.classify", "ladder_search"),
    "lift.extend_step": ("defring.lift", "extend_step"),
    "lift.residual_coefficients": ("defring.lift", "residual_coefficients"),
    "lift.as_representation": ("defring.lift", "as_representation"),
    "lift.verify_ladder": ("defring.lift", "verify_ladder"),
    "linalg.rref": ("defring.linalg", "rref"),
    "linalg.Matrix.mul": ("defring.linalg", "Matrix.__mul__"),
    "linalg.Matrix.power": ("defring.linalg", "Matrix.power"),
    "linalg.Matrix.from_rows": ("defring.linalg", "Matrix.from_rows"),
    "certificates.verify_report": ("defring.certificates", "verify_report"),
}

# modules whose bindings are patched; cli and oracle are imported so that
# their copies of the wrapped names are covered too
MODULES = ("defring", "defring.dsl", "defring.algebra", "defring.rep", "defring.classify",
           "defring.lift", "defring.linalg", "defring.certificates", "defring.cli",
           "defring.oracle")


def _rref_cells(args, result):
    return args[0].nrows * args[0].ncols


def _from_rows_cells(args, result):
    return sum(len(r) for r in args[-1])


def _obstructions(args, result):
    return type(result).__name__ == "Obstruction"


def _rungs(args, result):
    return args[0].length


def _ladder_length(args, result):
    return result.ladder.length if result.ladder is not None else 0


# span name -> (counter, function of (args, result) giving the amount to add)
HOOKS = {
    "linalg.rref": ("linalg.rref.cells", _rref_cells),
    "linalg.Matrix.from_rows": ("linalg.Matrix.from_rows.cells", _from_rows_cells),
    "lift.extend_step": ("lift.extend_step.obstructions", _obstructions),
    "lift.verify_ladder": ("lift.verify_ladder.rungs", _rungs),
    "classify.ladder_search": ("ladder_length", _ladder_length),
}


class Tracer:
    def __init__(self):
        self.names = list(SPANS)
        # one list per span: [name index, item, parent record or -1, start, end]
        self.records = []
        self.stack = []
        self.counters = {}
        self.item = -1
        self.patches = []  # (owner, attribute, original value)

    # ------------------------------------------------------------------
    # installation

    def install(self):
        modules = [__import__(name, fromlist=["_"]) for name in MODULES]
        for index, (span, (module_name, path)) in enumerate(SPANS.items()):
            owner = sys.modules[module_name]
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, index, span))
                self._patch(owner, attr, raw, wrapped)
            elif owner_path:
                self._patch(owner, attr, raw, self._wrap(raw, index, span))
            else:
                wrapper = self._wrap(raw, index, span)
                for module in modules:
                    for binding, value in list(vars(module).items()):
                        if value is raw:
                            self._patch(module, binding, raw, wrapper)

    def _patch(self, owner, attr, original, replacement):
        self.patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    def _wrap(self, func, index, span):
        records = self.records
        stack = self.stack
        hook = HOOKS.get(span)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [index, self.item, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(records))
            records.append(rec)
            try:
                result = func(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if hook is not None:
                counter, amount = hook
                self.counters[counter] = self.counters.get(counter, 0) + amount(args, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", span)
        traced.__qualname__ = getattr(func, "__qualname__", span)
        return traced

    # ------------------------------------------------------------------
    # passes

    def start_pass(self) -> int:
        """Mark where a pass starts; returns the mark for `summary`."""
        self.counters = {}
        return len(self.records)

    def summary(self, mark: int, n_items: int) -> dict:
        """Per-layer metrics of the records made since `mark`."""
        records = self.records[mark:]
        child_time = [0.0] * len(records)
        for rec in records:
            parent = rec[2]
            if parent >= mark:
                child_time[parent - mark] += rec[4] - rec[3]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        self_time = [0.0] * len(self.names)
        for i, rec in enumerate(records):
            duration = rec[4] - rec[3]
            calls[rec[0]] += 1
            total[rec[0]] += duration
            self_time[rec[0]] += duration - child_time[i]
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.total_s"] = total[i]
            out[f"{name}.self_s"] = self_time[i]
        c = self.counters
        steps = calls[self.names.index("lift.extend_step")]
        out["linalg.rref.cells"] = c.get("linalg.rref.cells", 0)
        out["linalg.Matrix.from_rows.cells"] = c.get("linalg.Matrix.from_rows.cells", 0)
        out["lift.extend_step.obstructions"] = c.get("lift.extend_step.obstructions", 0)
        out["lift.verify_ladder.rungs"] = c.get("lift.verify_ladder.rungs", 0)
        out["classify.ladder_search.useful_ratio"] = (
            c.get("ladder_length", 0) / steps if steps else 0.0)
        out["rep.DeformationSystem.per_item"] = (
            calls[self.names.index("rep.DeformationSystem")] / n_items)
        return out

    def dump(self, path, header: dict):
        """Write the header and every span as gzip-compressed JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps(header) + "\n")
            for i, (name, item, parent, start, end) in enumerate(self.records):
                out.write(json.dumps({"id": i, "span": self.names[name], "item": item,
                                      "parent": parent, "start": start, "end": end}) + "\n")
