"""Command-line verification campaigns and trajectory export.

Subcommands:
  verify-algebra     Jacobi identity plus realization-vs-table diff
  verify-invariants  catalog closure/annihilation/rank checks
  classify           isomorphism-class table and fingerprint consistency
  verify-solution    submodel and full-system residuals, flow geometry
  trace              RK4 particle trajectory exported as CSV

Exit codes: 0 all requested checks passed, 1 a check failed, 2 usage
error (unknown entry id or solution kind, empty time range, non-positive
or too small step, bad parameters, a non-finite initial point, a trace
the velocity cannot be evaluated along, an unwritable ``--out``, a data
file string or row the verifier refuses).
Reports are deterministic: no subcommand reads ``--seed``, and every
report only echoes it.
"""

from __future__ import annotations

import atexit
import gc

# The objects that sympy and gassym build at import time (about 100k with
# the interpreter's own) live until exit.  Keep the cyclic collector off
# while they are built, then freeze them so that no later collection walks
# them; freezing again at exit spares the interpreter's shutdown
# collections everything main built.
gc.disable()
try:
    import argparse
    import dataclasses
    import json
    import math
    import os
    import sys
    from pathlib import Path

    import sympy as sp

    from . import __version__, catalog, classify, numerics, submodel
    from .exprs import MAX_DIGITS, exact_number
    from .fields import realization_table_diff
    from .liealg import l12

    gc.freeze()
finally:
    gc.enable()
atexit.register(gc.freeze)

__all__ = ["main"]

_USAGE_ERROR = 2


class UsageError(Exception):
    pass


def _empty_report(seed: int) -> dict:
    return {
        "version": __version__,
        "seed": seed,
        "algebra": None,
        "catalog": None,
        "classes": None,
        "solutions": None,
        "traces": None,
    }


def _parse_params(text: str | None) -> dict:
    out = {}
    if not text:
        return out
    for item in text.split(","):
        if "=" not in item:
            raise UsageError(f"bad parameter {item!r}; expected k=v")
        k, v = item.split("=", 1)
        if (k := k.strip()) in out:
            raise UsageError(f"parameter {k!r} is given twice")
        try:  # read exactly, never evaluated; float() of a huge value is inf
            out[k] = exact_number(v.strip())
            if not math.isfinite(float(out[k])):
                raise ValueError
        except ValueError:
            raise UsageError(f"parameter value {v!r} is not a finite number")
    return out


def _resolve_ids(requested: list[str], known: list[str], what: str = "entry ids") -> list[str]:
    if not requested or requested == ["all"]:
        return list(known)
    unknown = [eid for eid in requested if eid not in known]
    if unknown:
        raise UsageError(f"unknown {what}: {unknown}; known {what}: {', '.join(known)}")
    return list(requested)


# --------------------------------------------------------------------------
# subcommands


def cmd_verify_algebra(args, report: dict) -> bool:
    alg = l12()
    jacobi = alg.jacobi_report()
    diff = realization_table_diff()
    report["algebra"] = {
        "dim": alg.dim,
        "jacobi_failures": [list(tr) for tr in jacobi],
        "realization_diff": [list(p) for p in diff],
        "passed": not jacobi and not diff,
    }
    if args.format == "text":
        _print_bracket_table(alg)
    return report["algebra"]["passed"]


def _print_bracket_table(alg) -> None:
    for i, a in enumerate(alg.labels):
        for j in range(i + 1, alg.dim):
            terms = [
                f"{'-' if c == -1 else '' if c == 1 else str(c) + '*'}{alg.labels[k]}"
                for k, c in sorted(alg.table.get((i, j), {}).items())
            ]
            print(f"[{a}, {alg.labels[j]}] = {' + '.join(terms) if terms else '0'}")


def cmd_verify_invariants(args, report: dict) -> bool:
    ids = _resolve_ids(args.entries, catalog.catalog_ids())
    params = _parse_params(args.params)
    if params and len(ids) == 1:
        reports = [catalog.verify_invariants(catalog.get_entry(ids[0], **params))]
    else:
        if params:
            raise UsageError("--params requires exactly one entry id")
        reports = catalog.verify_entries(ids)
    report["catalog"] = {
        rep.entry_id: {
            "passed": rep.passed,
            "closure": rep.closure_ok,
            "rank": rep.rank,
            "samples": len(rep.samples),
            "simplifier_gaps": [],  # every verdict is exact; the key keeps reports stable
            "verdicts": {f"{g},{i}": v for (g, i), v in sorted(rep.verdicts.items())},
        }
        for rep in reports
    }
    return all(rep.passed for rep in reports)


def cmd_classify(args, report: dict) -> bool:
    ids = _resolve_ids(args.entries, classify.class_ids())
    reports = [classify.verify_class(eid) for eid in ids]
    cons = classify.fingerprint_consistency(ids)
    report["classes"] = {
        "rows": {
            rep.entry_id: {
                "label": rep.label,
                "passed": rep.passed,
                "cases": rep.cases,
            }
            for rep in reports
        },
        "fingerprints": {eid: dataclasses.asdict(fp) for eid, fp in cons.fingerprints.items()},
        "label_consistency": cons.label_ok,
        "collisions": [list(p) for p in cons.collisions],
        "passed": all(rep.passed for rep in reports) and cons.passed,
    }
    return report["classes"]["passed"]


def cmd_verify_solution(args, report: dict) -> bool:
    kinds = _resolve_ids(args.kinds, list(submodel.SOLUTION_KINDS), "solution kinds")
    report["solutions"] = {kind: submodel.verify_solution(kind) for kind in kinds}
    return all(e["passed"] for e in report["solutions"].values())


_PRINTABLE = 10**MAX_DIGITS


def _unprintable(s: submodel.Solution) -> bool:
    """Whether a rational in the velocity of ``s`` has more digits than an
    int may have as text, so that no evaluator of it can be generated."""
    return any(max(abs(r.p), r.q) >= _PRINTABLE
               for g in (s.u, s.v, s.w) for r in g.atoms(sp.Rational))


def cmd_trace(args, report: dict) -> bool:
    if args.kind == "nonisochoric-reduced" and args.t0 < 0:
        raise UsageError(f"{args.kind} holds only for t > 0, not from t0={args.t0}")
    family = submodel.solution_family(args.kind)
    velocity = sp.Matrix([family.u, family.v, family.w])
    constants = {c.name: c for c in submodel.CONSTANTS if c in velocity.free_symbols}
    default = {c: 1 for c in constants.values()}
    given = _parse_params(args.params)
    for k, v in given.items():
        if k not in constants:
            raise UsageError(f"unknown constant {k!r}; expected one of {sorted(constants)}")
        if constants[k].is_positive and not v > 0:
            raise UsageError(f"constant {k} must be positive, not {v}")
    s = family.subs({**default, **{constants[k]: v for k, v in given.items()}})
    if _unprintable(s):
        alone = [k for k, v in given.items() if _unprintable(family.subs({**default, constants[k]: v}))]
        raise UsageError(f"the value of {' and '.join(alone or given)} makes a velocity "
                         f"coefficient longer than {MAX_DIGITS} digits")
    try:
        p0 = tuple(float(v) for v in args.x0.split(","))
    except ValueError:
        raise UsageError(f"bad initial point {args.x0!r}")
    if len(p0) != 3:
        raise UsageError("initial point must be x,y,z")
    if not all(map(math.isfinite, p0)):
        raise UsageError(f"initial point {args.x0!r} is not finite")
    vel = numerics.velocity_function(s)
    try:
        tr = numerics.integrate(vel, p0, args.t0, args.t1, args.h)
    except ValueError as exc:  # a bad time range or step
        raise UsageError(str(exc))
    if args.out is not None:  # a forked process formats half of the rows
        _write(args.out, lambda: numerics.write_csv(tr, args.out, catalog.fork_cpus() > 1))
    report["traces"] = [
        {
            "kind": args.kind,
            "initial": list(p0),
            "t0": args.t0,
            "t1": args.t1,
            "h": args.h,
            "samples": len(tr.ts),
            "endpoint": list(tr.points[-1]),
            "csv": args.out,
        }
    ]
    return True


# --------------------------------------------------------------------------
# argument parsing


def _checked(convert, ok, what: str):
    """An argparse type: ``convert`` the text and require ``ok`` of it."""
    def parse(text: str):
        try:
            if ok(value := convert(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
    return parse


_NUMERIC_OPTIONS = ("--x0", "--t0", "--t1", "--h")


def _attach_numbers(argv: list[str]) -> list[str]:
    """``--t0 -1e-3`` as ``--t0=-1e-3``, for each of ``_NUMERIC_OPTIONS``.
    Each takes exactly one value, so the word after it is that value; argparse
    would read a word that starts with '-' (``-1e-3``, ``-inf``) as an option."""
    out, rest = [], list(argv)
    while rest:
        tok = rest.pop(0)
        if tok == "--":
            return out + [tok] + rest
        if tok in _NUMERIC_OPTIONS and rest:
            tok = f"{tok}={rest.pop(0)}"
        out.append(tok)
    return out


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gassym",
        description="verify the symmetry-algebra results of the gas "
        "dynamics system with state equation P = f(rho) + S",
    )
    sub = p.add_subparsers(dest="command", required=True)

    seed = _checked(int, lambda v: v >= 0, "an integer >= 0")

    def common(sp_):
        sp_.add_argument("--seed", type=seed, default=0)
        sp_.add_argument("--format", choices=("json", "text"), default="json")
        sp_.add_argument("--out", default=None)

    pa = sub.add_parser("verify-algebra", help="Jacobi + table certification")
    common(pa)

    pi = sub.add_parser("verify-invariants", help="catalog verification")
    pi.add_argument("entries", nargs="*", default=[], metavar="ID")
    pi.add_argument("--params", default=None, help="k=v,... for one entry")
    common(pi)

    pc = sub.add_parser("classify", help="isomorphism-class verification")
    pc.add_argument("entries", nargs="*", default=[], metavar="ID")
    common(pc)

    ps = sub.add_parser("verify-solution", help="solution family verification")
    ps.add_argument("kinds", nargs="*", default=[], metavar="KIND")
    common(ps)

    pt = sub.add_parser("trace", help="integrate one particle trajectory")
    pt.add_argument("kind", choices=("isochoric-reduced", "nonisochoric-reduced"))
    pt.add_argument("--x0", default="0,0,0", help="initial point x,y,z")
    pt.add_argument("--t0", type=float, default=0.0)
    pt.add_argument("--t1", type=float, default=3.0)
    pt.add_argument("--h", type=float, default=1e-3)
    pt.add_argument("--params", default=None, help="constants k0=...,m0=...,rho0=...")
    common(pt)
    return p


_COMMANDS = {
    "verify-algebra": cmd_verify_algebra,
    "verify-invariants": cmd_verify_invariants,
    "classify": cmd_classify,
    "verify-solution": cmd_verify_solution,
    "trace": cmd_trace,
}


def _write(path: str, write) -> None:
    """Call ``write``; an empty ``--out`` path, or one it cannot write, is a usage error."""
    if not path:
        raise UsageError("cannot write : the --out path is empty")
    try:
        write()
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}")


def _emit(report: dict, args) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.format == "text":
        lines = []
        for key in ("algebra", "catalog", "classes", "solutions", "traces"):
            if report.get(key) is not None:
                lines.append(f"{key}: {json.dumps(report[key], sort_keys=True)}")
        text = "\n".join(lines)
    if args.command == "trace" and args.out is not None:
        # CSV already written; report goes to stdout
        print(text)
    elif args.out is not None:
        _write(args.out, lambda: Path(args.out).write_text(text + "\n"))
    else:
        print(text)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(_attach_numbers(sys.argv[1:] if argv is None else argv))
    report = _empty_report(args.seed)
    try:
        ok = _COMMANDS[args.command](args, report)
        _emit(report, args)
        sys.stdout.flush()
    except (
        UsageError,
        catalog.UnknownEntryError,
        catalog.ConstraintError,
        catalog.DataError,
        numerics.IntegrationError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except BrokenPipeError:
        # the reader of stdout went away; point stdout at devnull so the
        # interpreter's final flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
