"""The benchmark's layer tracer must find every function it wraps.

`bench/spans.py` replaces each (module, attribute) in its SITES list
with a timing wrapper; a refactor that renames or stops importing one
of them would break `bench/run.py --trace 1`.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_traced_site_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.SITES
    for module, attribute, _name, _counter in spans.SITES:
        assert callable(getattr(importlib.import_module(module), attribute, None)), (
            f"{module}.{attribute}"
        )
