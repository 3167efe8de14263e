"""Layer spans recorded from outside the program.

The tracer replaces each layer's public functions at the module
attributes through which other modules call them (``symplane.cli``
imports ``check_generic`` by name, ``symplane.forms`` imports
``integrate_density_over_faces``, and so on) with wrappers that record a
span: name, start, end, parent span and operation id. Spans stay in
memory and are written out when the run ends. The program itself is
not edited; ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from statistics import median


def _samples(args, kwargs, result):
    return args[0].sample_count


def _faces(args, kwargs, result):
    return len(result.faces)


def _node_steps(args, kwargs, result):
    steps = kwargs.get("steps", args[2] if len(args) > 2 else 64)
    return args[0].nx * args[0].ny * steps


# (module, attribute, span name, count taken from the call)
SITES = (
    ("symplane.cli", "load_curve", "curves.load", None),
    ("symplane.cli", "check_generic", "curves.check_generic", _samples),
    ("symplane.arrangement", "check_generic", "curves.check_generic", _samples),
    ("symplane.cli", "build_arrangement", "arrangement.build", _faces),
    ("symplane.cli", "integrate_density_over_faces", "arrangement.integrate", None),
    ("symplane.forms", "integrate_density_over_faces", "arrangement.integrate", None),
    ("symplane.moduli", "face_areas", "arrangement.face_areas", None),
    ("symplane.cli", "gauss_code", "diagram.gauss_code", None),
    ("symplane.cli", "canonical_code", "diagram.canonical_code", None),
    ("symplane.cli", "symmetry_group", "diagram.symmetry_group", None),
    ("symplane.moduli", "symmetry_group", "diagram.symmetry_group", None),
    ("symplane.moduli", "isotopy_match", "diagram.isotopy_match", None),
    ("symplane.cli", "labelled_equivalent", "moduli.labelled", None),
    ("symplane.cli", "symplectically_equivalent", "moduli.symplectic", None),
    ("symplane.cli", "realize_area_vector", "forms.realize", None),
    ("symplane.cli", "moser_interpolation", "forms.moser", _node_steps),
    ("symplane.cli", "support_defect", "forms.support_defect", None),
    ("symplane.cli", "load_density", "forms.density_io", None),
    ("symplane.cli", "save_density", "forms.density_io", None),
    ("symplane.cli", "save_map", "forms.density_io", None),
)

# spans that enumerate diagram readings (k! * prod(m_i) candidates each)
ENUMERATING = ("diagram.canonical_code", "diagram.isotopy_match", "diagram.symmetry_group")


class Tracer:
    """In-memory span recorder; one operation at a time, one thread."""

    def __init__(self):
        self.spans = []  # dicts: name, start, end, parent, op, count
        self.op = None  # id of the operation being run
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "start": 0.0, "end": 0.0,
                    "parent": self._stack[-1] if self._stack else None,
                    "op": self.op, "count": None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span["count"] = counter(args, kwargs, result)
            return result

        return traced

    def install(self):
        for module_name, attr, name, counter in SITES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            setattr(module, attr, self.wrap(name, fn, counter))
            self._undo.append((module, attr, fn))

    def uninstall(self):
        while self._undo:
            module, attr, fn = self._undo.pop()
            setattr(module, attr, fn)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans):
    """Span duration minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


UNITS = {
    "curves.load_ms": "ms",
    "curves.check_generic_ms": "ms",
    "curves.samples_per_s": "1/s",
    "curves.check_generic_peak_mb": "MB",
    "arrangement.build_ms": "ms",
    "arrangement.faces_per_s": "1/s",
    "arrangement.integrate_ms": "ms",
    "arrangement.integrate_calls": "count",
    "diagram.canonical_code_ms": "ms",
    "diagram.isotopy_match_ms": "ms",
    "diagram.symmetry_group_ms": "ms",
    "diagram.enumerating_calls": "count",
    "moduli.labelled_self_ms": "ms",
    "moduli.symplectic_self_ms": "ms",
    "forms.realize_self_ms": "ms",
    "forms.moser_ms": "ms",
    "forms.node_steps_per_s": "1/s",
    "forms.density_io_ms": "ms",
    "cli.self_ms": "ms",
    "trace.overhead_pct": "%",
}


def layer_metrics(spans, op_commands):
    """Per-layer figures from the spans of a traced pass.

    `op_commands` maps operation id to its command. Times are medians
    of one span in milliseconds; rates are total count over total span
    time; a figure with no spans behind it reads 0.
    """
    own = self_times(spans)
    dur = {}
    self_ms = {}
    total = {}
    count = {}
    per_op = {}
    for s, t in zip(spans, own):
        d = s["end"] - s["start"]
        dur.setdefault(s["name"], []).append(d)
        self_ms.setdefault(s["name"], []).append(t)
        total[s["name"]] = total.get(s["name"], 0.0) + d
        if s["count"] is not None:
            count[s["name"]] = count.get(s["name"], 0) + s["count"]
        per_op.setdefault(s["op"], []).append((s["name"], d))

    def med_ms(table, name):
        return 1e3 * median(table[name]) if name in table else 0.0

    def rate(name):
        return count.get(name, 0) / total[name] if total.get(name) else 0.0

    realize_ops = [op for op, cmd in op_commands.items() if cmd == "realize"]
    io_ops = [op for op, cmd in op_commands.items() if cmd in ("realize", "moser")]
    diagram_ops = [op for op, cmd in op_commands.items() if cmd not in ("realize", "moser")]
    enumerating = sum(len(dur.get(name, ())) for name in ENUMERATING)
    io_ms = [1e3 * sum(d for name, d in per_op.get(op, ()) if name == "forms.density_io")
             for op in io_ops]
    integrate_calls = [sum(1 for name, _ in per_op.get(op, ()) if name == "arrangement.integrate")
                       for op in realize_ops]
    return {
        "curves.load_ms": med_ms(dur, "curves.load"),
        "curves.check_generic_ms": med_ms(dur, "curves.check_generic"),
        "curves.samples_per_s": rate("curves.check_generic"),
        "arrangement.build_ms": med_ms(dur, "arrangement.build"),
        "arrangement.faces_per_s": rate("arrangement.build"),
        "arrangement.integrate_ms": med_ms(dur, "arrangement.integrate"),
        "arrangement.integrate_calls": float(median(integrate_calls)) if integrate_calls else 0.0,
        "diagram.canonical_code_ms": med_ms(dur, "diagram.canonical_code"),
        "diagram.isotopy_match_ms": med_ms(dur, "diagram.isotopy_match"),
        "diagram.symmetry_group_ms": med_ms(dur, "diagram.symmetry_group"),
        "diagram.enumerating_calls": enumerating / len(diagram_ops) if diagram_ops else 0.0,
        "moduli.labelled_self_ms": med_ms(self_ms, "moduli.labelled"),
        "moduli.symplectic_self_ms": med_ms(self_ms, "moduli.symplectic"),
        "forms.realize_self_ms": med_ms(self_ms, "forms.realize"),
        "forms.moser_ms": med_ms(dur, "forms.moser"),
        "forms.node_steps_per_s": rate("forms.moser"),
        "forms.density_io_ms": median(io_ms) if io_ms else 0.0,
        "cli.self_ms": med_ms(self_ms, "cli"),
    }
