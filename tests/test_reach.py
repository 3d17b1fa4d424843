"""Reach: every function under ``src/gassym`` is entered by a README
campaign, or is listed in UNREACHED with the ROADMAP item that removes it
or makes it campaign code.  The list may only shrink."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import gassym

SRC = Path(gassym.__file__).parent

UNREACHED = {
    # the sampler stack: perfbench names is_zero and evaluate (item 10), then it leaves src/ (item 12)
    "exprs.is_zero": "item 10",
    "exprs.evaluate": "item 10",
    "exprs._eval": "item 12",
    "exprs._eval_node": "item 12",
    "exprs.ZeroVerdict.__bool__": "item 12",
    # gate-only helpers; perfbench names realize_combination, vf_commutator and apply
    "fields.realize_combination": "item 10",
    "fields.vf_commutator": "item 10",
    "fields.VectorField.apply": "item 10",
    "fields.VectorField.coeff": "item 17",
    "fields.VectorField.equals": "item 17",
    "fields.VectorField.__rmul__": "item 17",
    "fields.Chart.to_cartesian": "item 17",
    "catalog.SubalgebraEntry.realized_basis": "item 17",
    "liealg.LieAlgebra.bracket": "item 17",
    "liealg.LieAlgebra.mutated": "item 17",
    "liealg.Subalgebra.dim": "item 17",
    "liealg.Subalgebra.rank": "item 17",
    "submodel.Solution.S": "item 17",
    "numerics._check_samples": "item 17",
    # the sympy reading of an invariant that no chart field reads; every shipped one is read
    "catalog._Invariants._exprs": "item 17",
    "catalog._Invariants.__getitem__": "item 17",
    "catalog._Invariants.__len__": "item 17",
    # claims that only the gates check
    "liealg.apply_automorphism": "item 7",
    "liealg.inverse_params": "item 7",
    "liealg._matrix": "item 7",
    "numerics.compare_to_closed_form": "item 7",
    "numerics.convergence_order": "item 7",
    "numerics.sphere_transport": "item 7",
    "numerics._map_function": "item 7",
    "numerics._Rows.__iter__": "item 7",
    "numerics._Rows.__len__": "item 7",
    "submodel.reduced_residuals": "item 3",
    # the argparse type of --seed, which no campaign reads
    "cli._checked.<locals>.parse": "item 10",
    # the refusal of a data string: no shipped string reaches it
    "catalog.parse.<locals>.fail": "item 18",
}

# README's campaigns, as (usable CPUs, argv), in two processes at once: the
# catalog serially on one CPU, and each trace forking its CSV formatter
_CAMPAIGNS = [
    [(1, ["verify-invariants", "all"])],
    [(1, ["verify-algebra", "--format", "text"]),
     (1, ["verify-invariants", "4.23.i", "--params", "a=3/5,b=4/5"]),
     (1, ["classify", "all"]),
     (1, ["verify-solution"]),
     (2, ["trace", "isochoric-reduced", "--x0", "0,0,1", "--t0", "0", "--t1", "3", "--h", "1e-3", "--out", "a.csv"]),
     (2, ["trace", "nonisochoric-reduced", "--x0=-1.905,0.995,0.995", "--t0", "0.1", "--t1", "3", "--out", "b.csv"])],
]

# run the campaigns of argv[2] in a fresh process under sys.setprofile and
# print the functions under argv[1] that they entered
_ENTERED = r"""
import contextlib, io, json, os, sys
from pathlib import Path

entered = set()
sys.setprofile(lambda frame, event, arg: entered.add(frame.f_code))
from gassym import cli

for cpus, argv in json.loads(sys.argv[2]):
    os.sched_getaffinity = lambda pid: set(range(cpus))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
sys.setprofile(None)
print(json.dumps([f"{Path(c.co_filename).stem}.{c.co_qualname}" for c in entered if c.co_filename.startswith(sys.argv[1])]))
"""


def _defined() -> set:
    """Module-qualified names of every function and method under src/gassym."""
    names = set()

    def walk(node, module: str, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(f"{module}.{prefix}{child.name}")
                walk(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.")
            else:
                walk(child, module, prefix)

    for path in SRC.glob("*.py"):
        walk(ast.parse(path.read_text()), path.stem, "")
    return names


def test_every_function_is_reached_by_a_campaign_or_listed(tmp_path):
    procs = [subprocess.Popen([sys.executable, "-c", _ENTERED, str(SRC), json.dumps(runs)], cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": str(SRC.parent)}, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
             for runs in _CAMPAIGNS]
    entered = set()
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        entered.update(json.loads(out))
    unreached = _defined() - entered
    assert sorted(unreached - UNREACHED.keys()) == [], "reach it from a campaign, delete it, or list it here"
    assert sorted(UNREACHED.keys() - unreached) == [], "a campaign reaches it now: take it off UNREACHED"
