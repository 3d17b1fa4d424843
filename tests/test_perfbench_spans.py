"""Every span that perfbench reads names a function of the package.

perfbench/probe.py records spans named ``<module>.<qualname>`` of the
wrapped gassym functions, and perfbench/run.py sums them into per-layer
metrics.  A renamed or deleted function would leave its metric at 0
without an error, so each metric must still resolve to at least one
function.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
# the rhs closure that numerics.velocity_function returns has no qualname
SYNTHETIC = {"numerics.rhs"}

_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
sys.path.insert(0, PERFBENCH)
try:
    import probe
    import run
finally:
    sys.path.remove(PERFBENCH)
    sys.dont_write_bytecode = _bytecode

READ = {
    **{f"calls:{m}": spans for m, spans in run.CALLS.items()},
    **{f"self:{m}": spans for m, spans in run.SELF.items()},
    **{f"derived:{m}": spans for m, spans in run.DERIVED_SPANS.items()},
    **{f"campaign:{name}": (name,) for name in run.CAMPAIGN_COUNTS},
    **{f"method:{m}.{c}.{f}": (f"{m}.{c}.{f}",) for m, c, f in probe.METHODS},
}


def _resolves(span: str) -> bool:
    module, _, qualname = span.partition(".")
    obj = importlib.import_module(f"gassym.{module}")
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
    return callable(obj)


@pytest.mark.parametrize("spans", READ.values(), ids=READ.keys())
def test_metric_reads_a_live_span(spans):
    live = [s for s in spans if s in SYNTHETIC or _resolves(s)]
    assert live, f"no function of gassym is named {spans}"
