"""Isomorphism-class tests: assignments, case splitting, fingerprints."""

import dataclasses
import re
import sys
from importlib import resources

import pytest
import sympy as sp
import yaml

from gassym import classify, fields, liealg, submodel
from gassym.catalog import _PARAM_SYMS, ConstraintError, DataError, UnknownEntryError, catalog_ids
from gassym.cli import main
from gassym.classify import (
    NonInvertibleError,
    _parameter_cases,
    _parse_relations,
    _read_row,
    class_ids,
    entry_fingerprint,
    fingerprint_consistency,
    get_assignment,
    verify_class,
)


def test_every_catalog_entry_has_a_class():
    assert class_ids() == catalog_ids()


def test_unknown_assignment_raises():
    with pytest.raises(UnknownEntryError):
        get_assignment("4.99")


@pytest.mark.parametrize("entry_id", class_ids())
def test_class_row_verifies(entry_id):
    rep = verify_class(entry_id)
    assert rep.passed, rep.cases
    assert all(c["invertible"] for c in rep.cases)


# --------------------------------------------------------------------------
# case splitting


@pytest.mark.parametrize(
    "entry_id, count",
    [
        ("4.1", 1),       # no parameters
        ("4.56.i", 2),    # |b| splits the sign of b; a stays symbolic
        ("4.64.i", 2),    # |a| sign split
        ("4.74.i", 2),    # |c| sign split; a stays symbolic
        ("4.42", 6),      # 3 unit-circle points times eps in {0, 1}
        ("4.71.i", 2),    # unit-circle points with d != 0
    ],
)
def test_parameter_case_counts(entry_id, count):
    asg = get_assignment(entry_id)
    assert len(_parameter_cases(entry_id, asg)) == count


def test_sign_split_uses_signed_positive_symbols():
    asg = get_assignment("4.64.i")
    cases = _parameter_cases("4.64.i", asg)
    vals = [c["a"] for c in cases]
    assert any(v.is_positive for v in vals)
    assert any((-v).is_positive for v in vals)


def test_ne_constraint_uses_nonzero_symbol():
    cases = _parameter_cases("4.34.i", get_assignment("4.34.i"))
    assert len(cases) == 1
    assert cases[0]["a"].is_nonzero


def test_undecidable_constraint_raises(monkeypatch):
    # mutant: a plain symbol under Ne(a, 0) leaves the constraint open;
    # the case must be refused, not admitted
    monkeypatch.setattr(classify, "_grid_cases", lambda name, *_: [sp.Symbol(name)])
    with pytest.raises(ConstraintError):
        verify_class("4.34.i")


def test_coefficient_outside_the_parameter_field_raises(monkeypatch):
    # log(a) is no rational function of a: the check refuses the case
    # instead of comparing in an expression domain
    asg = get_assignment("4.3")
    zero = sp.Integer(0)
    change = ((zero, zero, -sp.log(sp.Symbol("a")), zero),) + asg.basis_change[1:]
    tampered = dataclasses.replace(asg, basis_change=change)
    monkeypatch.setattr(classify, "_assignments", lambda: {"4.3": tampered})
    with pytest.raises(ValueError, match=r"entry 4\.3: not rational in the parameters"):
        verify_class("4.3")


def test_singular_change_of_basis_raises(monkeypatch):
    # e1 = e2 = -E1: the stated change of basis is singular
    asg = get_assignment("4.21")
    change = asg.basis_change
    tampered = dataclasses.replace(asg, basis_change=(change[0], change[0]) + change[2:])
    monkeypatch.setattr(classify, "_assignments", lambda: {"4.21": tampered})
    with pytest.raises(NonInvertibleError, match=r"^entry 4\.21: singular change of basis at \{\}$"):
        verify_class("4.21")


def test_class_row_reads_the_entry_fixed_values(monkeypatch):
    # 4.23.ii fixes b = 1: a change of basis written with b reads it as 1,
    # as the catalog basis does, so -b*E1 is the shipped -E1
    asg = get_assignment("4.23.ii")
    first = tuple(_PARAM_SYMS["b"] * c for c in asg.basis_change[0])
    tampered = dataclasses.replace(asg, basis_change=(first,) + asg.basis_change[1:])
    monkeypatch.setattr(classify, "_assignments", lambda: {"4.23.ii": tampered})
    rep = verify_class("4.23.ii")
    assert rep.passed, rep.cases


# --------------------------------------------------------------------------
# relation parsing


@pytest.mark.parametrize("key", ["e3,e1", "e2,e1", "e1,e5", "e4,e4", "x1,e2", "e1;e2", "e1,e2,e3"])
def test_parse_relations_refuses_key(key):
    # the table is written with i < j: a reversed key, its duplicate, and a
    # key that no bracket reads are refused by name, not dropped
    with pytest.raises(DataError, match=rf"^class A_2\+2A_1: relation key {re.escape(repr(key))} is not ei,ej "
                                        r"with 1 <= i < j <= 4$"):
        _parse_relations({"e1,e2": "e2", key: "e2"}, "class A_2+2A_1")


@pytest.mark.parametrize("text, why", [("0**(-1)*e1", "division by zero"), ("log(b - b)*e1", "log of zero")])
def test_parse_relations_rejects_zoo(text, why):
    with pytest.raises(ValueError, match=rf"^class row 4\.21: cannot read {re.escape(repr(text))}: {why}$"):
        _parse_relations({"e2,e3": text}, "class row 4.21")


def test_parse_relations_parametric_coefficient():
    rel = _parse_relations({"e1,e4": "e1/Abs(b)"}, "row")
    vec = rel[(0, 3)]
    assert vec[0] == 1 / sp.Abs(sp.Symbol("b"))
    assert vec[1:] == (0, 0, 0)


# --------------------------------------------------------------------------
# fingerprints


def test_same_label_shares_fingerprint():
    assert entry_fingerprint("4.1") == entry_fingerprint("4.2")
    assert entry_fingerprint("4.44.ii") == entry_fingerprint("4.77")


def test_abelian_entries_have_full_center():
    assert entry_fingerprint("4.77").center_dim == 4
    assert entry_fingerprint("4.21").center_dim == 2


def test_fingerprint_consistency_passes():
    cons = fingerprint_consistency()
    assert cons.passed
    assert all(cons.label_ok.values())
    assert set(cons.fingerprints) == set(class_ids())


def test_known_collision_is_informational():
    cons = fingerprint_consistency()
    assert ("A_{3,6}+A_1", "A_{3,7}^{1/|a|}+A_1") in cons.collisions


def test_classify_all_solves_only_inside_is_closed(monkeypatch, capsys):
    # one closure path: every exact solve of `classify all`, for the 41
    # class cases and the 28 fingerprints alike, is Subalgebra.is_closed's
    callers = []
    solve = liealg._solve_exact

    def recorded(*args):
        frame = sys._getframe(1)
        callers.append((type(frame.f_locals.get("self")).__name__, frame.f_code.co_name))
        return solve(*args)

    monkeypatch.setattr(liealg, "_solve_exact", recorded)
    assert main(["classify", "all"]) == 0
    capsys.readouterr()
    assert len(callers) == 41 + 28
    assert set(callers) == {("Subalgebra", "is_closed")}


def test_classify_and_solutions_build_no_chart(monkeypatch):
    # a chart builds its field when it is made: the class checks, the
    # fingerprints and the solution checks never make one
    for cached in (fields.chart_D, fields.chart_C, fields.chart_S, fields.chart_D_shift, fields.realize):
        cached.cache_clear()
    built = []
    init = fields.Chart.__init__

    def counted(self, name, *args):
        built.append(name)
        init(self, name, *args)

    monkeypatch.setattr(fields.Chart, "__init__", counted)
    assert all(verify_class(eid).passed for eid in class_ids())
    assert fingerprint_consistency().passed
    assert all(submodel.verify_solution(kind)["passed"] for kind in submodel.SOLUTION_KINDS)
    assert built == []


# --------------------------------------------------------------------------
# the label names the relations

_CLASSES = yaml.safe_load(resources.files("gassym").joinpath("data/classes.yaml").read_text())
_ROWS = {raw["id"]: raw for raw in _CLASSES["entries"]}


def _relabelled(entry_id: str, label: str) -> classify.ClassAssignment:
    return _read_row({**_ROWS[entry_id], "label": label}, _CLASSES["classes"])


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("basis_change", ["E1", "-E2", "E3", "E4", "E1"], "needs 4 basis_change elements, has 5"),
        ("basis_change", ["E1", "-E2", "E3"], "needs 4 basis_change elements, has 3"),
        ("label", None, "unknown class label ''"),
    ],
)
def test_class_row_of_the_wrong_shape_exits_2(monkeypatch, capsys, field, value, message):
    # refused when the row is read: five elements would shift the slices of
    # the case vector, and three would read as a singular change of basis
    raw = {k: v for k, v in _ROWS["4.1"].items() if k != field} | ({field: value} if value else {})
    monkeypatch.setattr(classify, "_assignments", lambda: {"4.1": _read_row(raw, _CLASSES["classes"])})
    assert main(["classify", "4.1"]) == 2
    assert capsys.readouterr().err == f"error: class row 4.1: {message}\n"


@pytest.mark.parametrize(
    "entry_id, label, code",
    [
        ("4.1", "A_{4,10}", 2),  # no class of the table
        ("4.64.i", "A_{3,6}+A_1", 1),
        ("4.64.i", "A_{3,7}^{|a|}+A_1", 1),
        ("4.23.ii", "A_{3,7}^{|a|}+A_1", 1),
    ],
)
def test_relabelled_row_fails(monkeypatch, capsys, entry_id, label, code):
    table = classify._assignments()
    monkeypatch.setattr(classify, "_assignments", lambda: {**table, entry_id: _relabelled(entry_id, label)})
    assert main(["classify", entry_id]) == code
    capsys.readouterr()


def test_relabel_fails_through_the_range(monkeypatch):
    # a = 0 in 4.23.ii: A_{3,7}^{|a|} has the relations of A_{3,6} there,
    # but p = |a| = 0 is outside its range p > 0
    mutant = _relabelled("4.23.ii", "A_{3,7}^{|a|}+A_1")
    monkeypatch.setattr(classify, "_assignments", lambda: {"4.23.ii": mutant})
    assert not verify_class("4.23.ii").passed
    monkeypatch.setattr(classify, "_assignments", lambda: {"4.23.ii": dataclasses.replace(mutant, range=())})
    assert verify_class("4.23.ii").passed


def test_no_relabel_passes(monkeypatch):
    # every row relabelled to each label another row uses, and to three no
    # row uses, fails its class check or its fingerprints, or is refused
    table = dict(classify._assignments())
    monkeypatch.setattr(classify, "_assignments", lambda: table)
    labels = {asg.label for asg in table.values()} | {"A_{3,8}+A_1", "A_{4,10}", "A_{3,7}^{|a|}+A_1"}
    passed, tried = [], 0
    for eid, asg in list(table.items()):
        for label in sorted(labels - {asg.label}):
            tried += 1
            try:
                table[eid] = _relabelled(eid, label)
                same = [i for i, a in table.items() if a.label == label]
                if verify_class(eid).passed and fingerprint_consistency(same).passed:
                    passed.append((eid, label))
            except DataError:
                pass
            table[eid] = asg
    assert (tried, passed) == (28 * 12, [])
