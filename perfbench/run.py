"""Cold time-to-verdict benchmark of the ``gassym`` CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload {catalog,structure,flows} \
        --seed N --seconds S --trace {0,1}

Each pass runs the workload's campaigns one after another, each in a
fresh interpreter (closed loop, one client, no ``--jobs``), and checks
every report against its known answer.  Passes repeat until the next one
would end after ``--seconds``.  Negative controls run once per run,
and so do the workload's known-defect campaigns, which are reported on
stderr and in the record but not counted.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median over
passes of the summed spawn-to-exit time of the pass's campaigns),
``setup_s`` (median over campaign processes of the time from spawn until
``gassym.cli`` is imported and ``main`` is about to run), both rescaled
to the machine-speed reference below, and ``peak_rss_mb`` (median over
passes of the largest ``ru_maxrss`` of a campaign in the pass).  ``--trace 1`` runs one untraced pass, then traced
passes in which perfbench/probe.py wraps the package's functions, and
prints per-layer metrics as per-pass values (median over traced passes).

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; ``failed / attempted`` is the
share of campaigns and controls whose exit code, verdicts or control
outcome differs from the known answer.  The full record of a run, with
the generated inputs for replay, goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PROBE = BENCH / "probe.py"
OUT = ROOT / ".perfbench"
CAMPAIGN_TIMEOUT_S = 120
# Machine-speed reference.  On a shared host the speed drifts by a
# quarter or more over minutes, and by a tenth or more within seconds,
# which raw times cannot tell from a regression.  In an untraced pass a
# cold run of a fixed process outside the program (interpreter start
# plus the sympy import) precedes each campaign and follows the last, and
# each campaign's times are rescaled by the mean of the two runs around
# it to a machine on which that process takes REFERENCE_S, the ROADMAP
# baseline's sympy import time.  The raw times are kept in the results
# record.
REFERENCE_ARGV = ["-c", "import sympy"]
REFERENCE_S = 0.35


# --------------------------------------------------------------------------
# per-layer metrics from the traced run.  Span names are
# "<module>.<qualname>" of the wrapped function (see probe.py).

RANK = ("catalog.independence_rank", "catalog._group_ranks")
CALLS = {  # metric -> spans whose calls are summed
    "catalog.instantiations": ("catalog._instantiate",),
    "catalog.rank.calls": RANK,
    "fields.pushforward.calls": ("fields.pushforward",),
    "fields.realize_combination.calls": ("fields.realize_combination",),
    "fields.apply.calls": ("fields.VectorField.apply",),
    "liealg.closure.calls": ("liealg.Subalgebra.is_closed",),
    "liealg.solve.calls": ("liealg._solve_exact",),
    "liealg.fingerprint.calls": ("liealg.fingerprint",),
    "exprs.canonicalize.calls": ("exprs.canonicalize",),
    "exprs.is_zero.calls": ("exprs.is_zero",),
    "exprs.sampled_points": ("exprs.evaluate",),
    "classify.verify_class.calls": ("classify.verify_class",),
    "numerics.rhs_evals": ("numerics.rhs",),
}
SELF = {  # metric -> spans whose self time is summed
    "catalog.verify_entry.self_s": ("catalog.verify_entry",),
    "catalog.rank.self_s": RANK,
    "fields.pushforward.self_s": ("fields.pushforward",),
    "fields.realize_combination.self_s": ("fields.realize_combination",),
    "fields.apply.self_s": ("fields.VectorField.apply",),
    "fields.vf_commutator.self_s": ("fields.vf_commutator",),
    "liealg.closure.self_s": ("liealg.Subalgebra.is_closed",),
    "liealg.solve.self_s": ("liealg._solve_exact",),
    "liealg.jacobi.self_s": ("liealg.LieAlgebra.jacobi_report",),
    "liealg.fingerprint.self_s": ("liealg.fingerprint",),
    "exprs.canonicalize.self_s": ("exprs.canonicalize",),
    "classify.verify_class.self_s": ("classify.verify_class",),
    "classify.fingerprint_consistency.self_s": ("classify.fingerprint_consistency",),
    "submodel.full_residuals.self_s": ("submodel.full_residuals",),
    "submodel.flow_map.self_s": ("submodel.flow_map",),
    "submodel.geometry_checks.self_s": ("submodel.geometry_checks",),
    "submodel.reduce_general.self_s": ("submodel.reduce_general",),
    "numerics.integrate.self_s": ("numerics.integrate",),
    "numerics.velocity_function.self_s": ("numerics.velocity_function",),
    "numerics.write_csv.self_s": ("numerics.write_csv",),
}
DERIVED_SPANS = {  # metric computed in layer_metrics -> spans it reads
    "cli.main_s": ("cli.main",),
    "catalog.items_per_instantiation": ("catalog._instantiate",),
    "numerics.ns_per_particle_step": ("numerics.integrate",),
}
# per-campaign call counts kept in the results file
CAMPAIGN_COUNTS = (
    "catalog._instantiate", "fields.pushforward", "liealg.Subalgebra.is_closed",
    "liealg._solve_exact", "fields.VectorField.apply", "exprs.canonicalize",
    "exprs.is_zero", "numerics.rhs",
)


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "B"
    if metric.endswith("_mb"):
        return "MiB"
    if metric.startswith("numerics.ns_"):
        return "ns"
    if metric.endswith(("_share", "_per_instantiation")):
        return "ratio"
    return "count"


# --------------------------------------------------------------------------
# running campaigns


@dataclass
class Result:
    label: str
    code: int
    wall_s: float
    setup_s: float | None
    rss_kb: int
    stdout: bytes
    stderr: str
    meta: dict = field(default_factory=dict)
    spans: Path | None = None
    errors: list = field(default_factory=list)
    speed: float = 1.0  # reference time around the campaign / REFERENCE_S


class Runner:
    """Spawns one probe process at a time and waits for it with wait4."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        env = {k: v for k, v in os.environ.items() if not k.startswith("PERFBENCH_")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.env = env
        self.count = 0

    def run(self, argv: list, label: str, traced: bool = False) -> Result:
        self.count += 1
        stem = self.workdir / f"c{self.count}"
        meta_path = stem.with_suffix(".json")
        env = dict(self.env, PERFBENCH_OUT=str(meta_path), PERFBENCH_CAMPAIGN=f"c{self.count}")
        if traced:
            env["PERFBENCH_TRACE"] = "1"
        out_path, err_path = stem.with_suffix(".out"), stem.with_suffix(".err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            spawn, end, code, usage = self._spawn([str(PROBE), *argv], env, out, err)
        meta = json.loads(meta_path.read_text()) if meta_path.exists() else {}
        mark = meta.get("setup_mark")
        spans = Path(str(meta_path) + ".npz")
        res = Result(
            label=label,
            code=code,
            wall_s=end - spawn,
            setup_s=None if mark is None else mark - spawn,
            rss_kb=usage.ru_maxrss,
            stdout=out_path.read_bytes(),
            stderr=err_path.read_text(errors="replace"),
            meta=meta,
            spans=spans if spans.exists() else None,
        )
        if res.wall_s >= CAMPAIGN_TIMEOUT_S:
            res.errors.append(f"killed after {CAMPAIGN_TIMEOUT_S} s")
        return res

    def reference(self) -> float:
        """Wall time of one cold run of the machine-speed reference."""
        spawn, end, code, _ = self._spawn(REFERENCE_ARGV, self.env, subprocess.DEVNULL, subprocess.DEVNULL)
        if code != 0:
            sys.exit(f"perfbench: reference process exited {code}")
        return end - spawn

    def _spawn(self, args: list, env: dict, out, err) -> tuple:
        spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, *args], cwd=self.workdir, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(CAMPAIGN_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        end = time.monotonic()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        return spawn, end, code, usage


def run_campaign(runner: Runner, camp, traced: bool = False) -> Result:
    """One campaign; the result carries the mismatches against its known
    answer."""
    res = runner.run(camp.argv, camp.label, traced)
    if res.code != 0:
        last = res.stderr.strip().splitlines()[-1:] or [""]
        res.errors.append(f"exit {res.code}: {last[0][:300]}")
    report = workloads.report_json(res.stdout)
    if report is None:
        res.errors.append("stdout is not a JSON report")
    else:
        res.errors += camp.check(report)
    if camp.csv is not None:
        csv = runner.workdir / camp.csv
        res.meta["csv_bytes"] = csv.stat().st_size if csv.exists() else 0
        if not res.meta["csv_bytes"]:
            res.errors.append("no CSV written")
    return res


def run_pass(runner: Runner, wl, traced: bool, first: list | None, refs: list | None = None) -> list:
    """One pass over the workload's campaigns.  With ``refs``, reference
    runs bracket every campaign and are appended to it."""
    results = []
    if refs is not None:
        refs.append(runner.reference())
    for i, camp in enumerate(wl.campaigns):
        res = run_campaign(runner, camp, traced)
        if refs is not None:
            refs.append(runner.reference())
            res.speed = (refs[-2] + refs[-1]) / 2 / REFERENCE_S
        if first is not None and res.stdout != first[i].stdout:
            res.errors.append("report bytes differ from the first pass")
        results.append(res)
    return results


def run_controls(runner: Runner, wl) -> list:
    """Negative controls: each passes when gassym reports the failure."""
    out = []
    for ctl in wl.controls:
        if ctl.argv is not None:
            res = runner.run(ctl.argv, ctl.label)
            err = res.stderr.strip()
            ok = res.code == 2 and err.startswith("error:") and "Traceback" not in err
            detail = {"exit": res.code, "stderr": err[-300:]}
        else:
            try:
                ok, detail = ctl.run()
            except Exception as exc:  # a crash is not a reported failure
                ok, detail = False, {"exception": repr(exc)}
        out.append({"label": ctl.label, "reported_fail": bool(ok), "detail": detail})
    return out


# --------------------------------------------------------------------------
# metrics


def end_to_end(passes: list, refs: list) -> dict:
    """Medians over the untraced passes of times rescaled, campaign by
    campaign, to the reference speed."""
    timed = [r for rs in passes for r in rs if r.setup_s is not None]

    def median_or_nan(values):
        values = list(values)
        return statistics.median(values) if values else float("nan")

    return {
        "passes": len(passes),
        "setup_samples": len(timed),
        "reference_s": refs,
        "raw_wall_s": statistics.median(sum(r.wall_s for r in rs) for rs in passes),
        "raw_setup_s": median_or_nan(r.setup_s for r in timed),
        "wall_s": statistics.median(sum(r.wall_s / r.speed for r in rs) for rs in passes),
        "setup_s": median_or_nan(r.setup_s / r.speed for r in timed),
        "peak_rss_mb": statistics.median(max(r.rss_kb for r in rs) / 1024 for rs in passes),
    }


def span_totals(path: Path) -> dict:
    """name -> [calls, self seconds, inclusive seconds] for one process.
    Self time is a span's duration minus the durations of its children."""
    import numpy as np

    with np.load(path, allow_pickle=False) as d:
        names, idx, parent = list(d["names"]), d["name_idx"], d["parent"]
        dur = d["end"] - d["start"]
    child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
    n = len(names)
    calls = np.bincount(idx, minlength=n)
    selfs = np.bincount(idx, weights=dur - child, minlength=n)
    incl = np.bincount(idx, weights=dur, minlength=n)
    return {names[k]: [int(calls[k]), float(selfs[k]), float(incl[k])] for k in range(n)}


def layer_metrics(results: list) -> tuple:
    """Per-layer metrics of one traced pass, the span names that were not
    found, and per-campaign call counts."""
    totals: dict = {}
    wrapped: set = set()
    per_campaign = {}
    for res in results:
        wrapped |= set(res.meta.get("wrapped", ()))
        tot = span_totals(res.spans) if res.spans else {}
        per_campaign[res.label] = {
            "calls": {k: tot.get(k, [0])[0] for k in CAMPAIGN_COUNTS},
            # the first l12() call builds the LieAlgebra; later calls are lookups
            "l12_s": tot.get("liealg.l12", [0, 0.0, 0.0])[2],
        }
        for name, vals in tot.items():
            acc = totals.setdefault(name, [0, 0.0, 0.0])
            for j in range(3):
                acc[j] += vals[j]

    def calls(names):
        return sum(totals.get(n, [0])[0] for n in names)

    def selft(names):
        return sum(totals.get(n, [0, 0.0])[1] for n in names)

    reports = [workloads.report_json(r.stdout) or {} for r in results]
    items = sum(len(rep.get("catalog") or {}) for rep in reports)
    verdicts = [v for rep in reports for it in (rep.get("catalog") or {}).values() for v in it.get("verdicts", {}).values()]
    steps = sum(t["samples"] - 1 for rep in reports for t in rep.get("traces") or [])
    inst = calls(("catalog._instantiate",))
    m = {k: calls(v) for k, v in CALLS.items()}
    m.update({k: selft(v) for k, v in SELF.items()})
    m.update({
        "import.sympy_s": sum(r.meta.get("import_sympy_s", 0.0) for r in results),
        "import.gassym_s": sum(r.meta.get("import_gassym_s", 0.0) for r in results),
        "cli.main_s": totals.get("cli.main", [0, 0.0, 0.0])[2],
        "cli.campaigns": len(results),
        "cli.report_bytes": sum(len(r.stdout) for r in results),
        "catalog.items_per_instantiation": items / inst if inst else 0.0,
        "exprs.symbolic_share": verdicts.count("SymbolicZero") / len(verdicts) if verdicts else 0.0,
        "classify.cases": sum(
            len(row["cases"]) for rep in reports for row in ((rep.get("classes") or {}).get("rows") or {}).values()
        ),
        "numerics.particle_steps": steps,
        "numerics.ns_per_particle_step": totals.get("numerics.integrate", [0, 0.0, 0.0])[2] / steps * 1e9
        if steps else 0.0,
        "numerics.csv_bytes": sum(r.meta.get("csv_bytes", 0) for r in results),
    })
    needs = {**CALLS, **SELF, **DERIVED_SPANS}
    missing = sorted({n for names in needs.values() for n in names} - wrapped)
    for metric, names in needs.items():
        if all(n in missing for n in names):
            m.pop(metric, None)  # reported as missing, never as 0
    bases = {"catalog_items": items, "verdicts": len(verdicts)}
    return m, missing, per_campaign, bases


# --------------------------------------------------------------------------


def environment(gassym) -> dict:
    import numpy
    import sympy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "numpy": numpy.__version__,
        "gassym": gassym.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "file_cache": "warm: no cache drop or other machine setting is changed, "
        "so sources and libraries are read from the page cache",
    }


def load_gassym():
    if not (SRC / "gassym" / "cli.py").is_file():
        sys.exit(f"perfbench: no gassym sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import gassym.cli  # noqa: F401  (imports every module)

    gassym = sys.modules["gassym"]
    if Path(gassym.__file__).resolve().parent != SRC / "gassym":
        sys.exit(f"perfbench: imported gassym from {gassym.__file__}, not {SRC}")
    return gassym


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    gassym = load_gassym()
    wl = workloads.WORKLOADS[args.workload](gassym, args.seed)
    workdir = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(workdir)
    try:
        untraced, traced, durations, refs = [], [], [], []
        first = None
        start = time.monotonic()
        while True:
            tracing = bool(args.trace) and first is not None
            t0 = time.monotonic()
            results = run_pass(runner, wl, tracing, first, None if args.trace else refs)
            first = first or results
            (traced if tracing else untraced).append(results)
            durations.append(time.monotonic() - t0)
            if args.trace and not traced:
                continue
            if time.monotonic() - start + statistics.median(durations[-3:]) > args.seconds:
                break
        controls = run_controls(runner, wl)
        defects = []
        for camp in wl.known_defects:
            res = run_campaign(runner, camp)
            defects.append({"label": camp.label, "present": bool(res.errors), "errors": res.errors})

        layers = [layer_metrics(rs) for rs in traced]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [(r.label, r.errors) for rs in untraced + traced for r in rs]
    ops += [(c["label"], [] if c["reported_fail"] else ["gassym did not report the failure"]) for c in controls]
    failures = [{"op": label, "errors": errs} for label, errs in ops if errs]

    e2e = end_to_end(untraced, refs)
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(gassym),
        "inputs": {"campaigns": [c.argv for c in wl.campaigns], **wl.inputs},
        "passes": [
            [{"label": r.label, "traced": rs in traced, "exit": r.code, "wall_s": r.wall_s, "setup_s": r.setup_s,
              "speed": r.speed, "rss_kb": r.rss_kb, "report_bytes": len(r.stdout)} for r in rs]
            for rs in untraced + traced
        ],
        "controls": controls,
        "failures": failures,
        "known_defects": defects,
        "end_to_end": e2e,
    }
    if args.trace:
        per_pass = [m for m, _, _, _ in layers]
        # counts repeat exactly from pass to pass; median_low keeps them whole
        metrics = {
            k: (statistics.median_low if unit(k) == "count" else statistics.median)([p[k] for p in per_pass])
            for k in per_pass[0]
        }
        metrics["trace.overhead_s"] = statistics.median(
            sum(r.wall_s for r in rs) for rs in traced
        ) - e2e["wall_s"]
        _, missing, per_campaign, bases = layers[0]
        record.update(layers=metrics, missing=missing, campaign_counts=per_campaign, bases=bases)
        for name in missing:
            print(f"perfbench: span {name} not found (missing)", file=sys.stderr)
    else:
        metrics = {k: e2e[k] for k in ("wall_s", "setup_s", "peak_rss_mb")}

    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for f in failures:
        print(f"perfbench: FAILED {f['op']}: {'; '.join(f['errors'])}", file=sys.stderr)
    for d in defects:
        state = "still present" if d["present"] else "no longer shows; drop it from known_defects"
        print(f"perfbench: known defect (not counted), {state}: {d['label']}: {'; '.join(d['errors'])}",
              file=sys.stderr)
    print(f"perfbench: {wl.name} seed {args.seed}: {len(untraced)} untraced and {len(traced)} traced passes; "
          f"record in {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
