"""Verification of the isomorphism-class assignments.

Each catalog entry carries, in ``data/classes.yaml``, a class label from
the Patera-Winternitz list of real Lie algebras of dimension at most
four, a change of basis e1..e4 expressed in the catalog basis E1..E4,
and the nonzero commutators the new basis must satisfy.  Both are read
by the catalog's whitelist parser into coefficient rows.  Verification
takes each parameter case into QQ(params), the rational function field
of its symbols, through the one strict converter
:func:`gassym.liealg.to_domain`: there it checks the determinant of the
change of basis, closes the e-basis inside L12 with
:meth:`Subalgebra.is_closed` (the closure check the catalog uses) and
compares the induced table with the stated one, all exactly.

Coefficients involving ``|a|``-style absolute values are handled by
case-splitting on the parameter sign: the parameter is replaced by a
signed positive symbol, so the check stays symbolic in the parameter on
each sign branch.  Fingerprints corroborate the labels: entries assigned
the same class must have identical fingerprints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources

import sympy as sp
import yaml
from sympy.polys.matrices import DomainMatrix

from .catalog import (
    _PARAM_SYMS,
    _YAML_LOADER,
    DataError,
    UnknownEntryError,
    _row,
    entry_basis,
    parameter_bindings,
    parameter_samples,
    parse,
)
from .liealg import Fingerprint, LieAlgebra, Subalgebra, fingerprint, l12, to_domain

__all__ = [
    "ClassAssignment",
    "ClassReport",
    "ConsistencyReport",
    "NonInvertibleError",
    "class_ids",
    "entry_fingerprint",
    "fingerprint_consistency",
    "get_assignment",
    "verify_class",
]


class NonInvertibleError(DataError):
    """The stated change of basis is singular at admissible parameters."""


_E_NAMES = ("E1", "E2", "E3", "E4")
_e_NAMES = ("e1", "e2", "e3", "e4")
_ZERO = (sp.Integer(0),) * 4


@dataclass(frozen=True)
class ClassAssignment:
    """One row of the isomorphism-class table."""

    entry_id: str
    label: str
    basis_change: tuple  # 4x4: row i holds e_{i+1}'s coefficients over E1..E4
    relations: dict  # (i, j) with i < j -> coefficient 4-vector over e1..e4


@lru_cache(maxsize=None)
def _assignments() -> dict[str, ClassAssignment]:
    text = resources.files("gassym").joinpath("data/classes.yaml").read_text()
    return {
        raw["id"]: ClassAssignment(
            entry_id=raw["id"],
            label=raw["label"],
            basis_change=tuple(
                tuple(parse(f"class row {raw['id']}", s, _PARAM_SYMS, _E_NAMES))
                for s in raw["basis_change"]
            ),
            relations=_parse_relations(raw.get("relations", {}), f"class row {raw['id']}"),
        )
        for raw in yaml.load(text, Loader=_YAML_LOADER)["entries"]
    }


def _parse_relations(raw: dict, where: str) -> dict:
    rel = {}
    for key, text in raw.items():
        i_s, j_s = key.split(",")
        i = int(i_s.strip().lstrip("e")) - 1
        j = int(j_s.strip().lstrip("e")) - 1
        vec = parse(where, text, _PARAM_SYMS, _e_NAMES)
        if i > j:
            i, j = j, i
            vec = [-c for c in vec]
        if (i, j) in rel:
            raise DataError(f"{where}: relation {key} duplicates its reverse")
        rel[(i, j)] = tuple(vec)
    return rel


def class_ids() -> list[str]:
    return list(_assignments().keys())


def get_assignment(entry_id: str) -> ClassAssignment:
    asg = _assignments().get(entry_id)
    if asg is None:
        raise UnknownEntryError(f"no class assignment for entry {entry_id!r}")
    return asg


# --------------------------------------------------------------------------
# verification


@dataclass
class ClassReport:
    """Verdicts for one class assignment across parameter cases."""

    entry_id: str
    label: str
    cases: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return bool(self.cases) and all(
            c["invertible"] and c["match"] for c in self.cases
        )


def _abs_params(asg: ClassAssignment) -> set[str]:
    coeffs = [c for row in asg.basis_change for c in row]
    coeffs += [c for vec in asg.relations.values() for c in vec]
    return {s.name for c in coeffs for node in c.atoms(sp.Abs) for s in node.free_symbols}


def _grid_cases(name: str, split: set[str], constraints: list) -> list:
    """Symbolic values of one grid parameter: a signed positive symbol per
    sign when it sits under an absolute value, a nonzero symbol when a
    constraint says ``Ne(name, 0)``, a plain symbol otherwise."""
    if name in split:
        pos = sp.Symbol(name, positive=True)
        return [pos, -pos]
    if sp.Ne(_PARAM_SYMS[name], 0) in constraints:
        return [sp.Symbol(name, nonzero=True)]
    return [sp.Symbol(name)]


def _parameter_cases(entry_id: str, asg: ClassAssignment) -> list[dict]:
    """Case list: unit-circle samples x sign branches x choice values.

    Grid parameters stay symbolic (see :func:`_grid_cases`); the catalog's
    constraint rule filters the cases and raises when it cannot decide.
    """
    split = _abs_params(asg)
    constraints = _row(entry_id).constraints
    return parameter_bindings(
        entry_id, lambda name: _grid_cases(name, split, constraints)
    )


def verify_class(entry_id: str) -> ClassReport:
    """Check one row: change of basis reproduces the stated commutators.

    Each case's change of basis, catalog basis and target relations are
    taken into QQ(params) by :func:`to_domain` (anything else raises
    ValueError); the determinant, the closure of the e-basis and the
    comparison of its induced constants with the targets are exact there.
    Raises :class:`NonInvertibleError` when the change-of-basis matrix is
    singular in some admissible case.
    """
    asg = get_assignment(entry_id)
    report = ClassReport(entry_id=entry_id, label=asg.label)
    pairs = list(itertools.combinations(range(4), 2))
    row = _row(entry_id)
    for binding in _parameter_cases(entry_id, asg):
        subs = row.subs(binding)  # the fixed values included
        change = [c.xreplace(subs) for r in asg.basis_change for c in r]
        basis = list(row.basis.xreplace(subs))
        want = [c.xreplace(subs) for p in pairs for c in asg.relations.get(p, _ZERO)]
        try:
            D = to_domain(sp.Matrix([change + basis + want]))
        except ValueError as exc:
            raise DataError(f"entry {entry_id}: {exc} at {binding}") from exc
        K, flat = D.domain, D.to_list_flat()
        M = DomainMatrix.from_list_flat(flat[:16], (4, 4), K).to_sparse()
        if not M.det():
            raise NonInvertibleError(
                f"entry {entry_id}: singular change of basis at {binding}"
            )
        B = DomainMatrix.from_list_flat(flat[16:64], (4, 12), K).to_sparse()
        closed, induced = Subalgebra(l12(), M * B).is_closed()
        match = closed and all(
            not (induced.get(p, {}).get(k, K.zero) - w)
            for (p, k), w in zip(itertools.product(pairs, range(4)), flat[64:])
        )
        report.cases.append({
            "params": {k: str(v) for k, v in binding.items()},
            "invertible": True,
            "match": match,
        })
    return report


# --------------------------------------------------------------------------
# fingerprint corroboration


def entry_fingerprint(entry_id: str) -> Fingerprint:
    """Fingerprint of the entry's subalgebra at a representative sample."""
    binding = parameter_samples(entry_id)[0]
    B = sp.Matrix([list(v) for v in entry_basis(entry_id, binding)])
    return fingerprint(LieAlgebra(_e_NAMES, Subalgebra(l12(), B).induced()))


@dataclass
class ConsistencyReport:
    """Same-label fingerprint agreement plus cross-label collisions."""

    fingerprints: dict  # entry id -> Fingerprint
    label_ok: dict  # label -> bool
    collisions: list  # INFO: (label, label) pairs sharing a fingerprint

    @property
    def passed(self) -> bool:
        return all(self.label_ok.values())


def fingerprint_consistency(entry_ids: list[str] | None = None) -> ConsistencyReport:
    """Entries with the same class label must share a fingerprint.

    Distinct labels sharing a fingerprint are reported as collisions,
    not failures: the fingerprint is necessary, not sufficient.
    """
    ids = list(entry_ids) if entry_ids is not None else class_ids()
    prints = {eid: entry_fingerprint(eid) for eid in ids}
    by_label: dict[str, set] = {}
    for eid in ids:
        by_label.setdefault(get_assignment(eid).label, set()).add(prints[eid])
    label_ok = {label: len(fps) == 1 for label, fps in by_label.items()}
    labels = sorted(by_label)
    collisions = []
    for la, lb in itertools.combinations(labels, 2):
        if by_label[la] & by_label[lb]:
            collisions.append((la, lb))
    return ConsistencyReport(
        fingerprints=prints, label_ok=label_ok, collisions=collisions
    )
