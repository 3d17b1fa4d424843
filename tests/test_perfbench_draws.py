"""The benchmark's catalog inputs are drawn with the package's own
``get_entry``.

perfbench/workloads.py redraws a seeded parameter set until ``get_entry``
accepts it and its invariants' log arguments are positive, and it runs
``verify_invariants`` on a perturbed 4.77 as a negative control.  A change
to what ``get_entry`` accepts or to how its invariants read would change
the campaigns the benchmark times, so the draws are pinned here.
"""

import sys
from pathlib import Path

import pytest

import gassym.cli  # noqa: F401  (imports every module, as perfbench does)

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")

_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
sys.path.insert(0, PERFBENCH)
try:
    import workloads
finally:
    sys.path.remove(PERFBENCH)
    sys.dont_write_bytecode = _bytecode

GASSYM = sys.modules["gassym"]


@pytest.mark.parametrize(
    "seed, draws",
    [
        (0, ["4.74.i a=4,c=-1/5", "4.71.i c=7/25,d=24/25,a=-2/7,b=-5/7", "4.56.i a=5,b=-7/3"]),
        (1, ["4.34.i a=9/7", "4.56.ii a=-1", "4.54 a=5/4"]),
    ],
)
def test_catalog_workload_draws(seed, draws):
    got = workloads.catalog_workload(GASSYM, seed).inputs["draws"]
    assert [f"{d['id']} {d['params']}" for d in got] == draws


def test_perturbed_invariant_control_fails():
    assert workloads._perturbed_invariant(GASSYM) == (True, {"passed": False, "nonzero": ["0,3", "3,3"]})
