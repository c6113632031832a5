"""Benchmark for species-forge: CLI workloads timed end to end, or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload {axioms,full,structure,all}
                             --seed N --seconds S --trace {0,1}

Each workload is a list of CLI invocations (``perfbench/workloads.json``).
A repetition runs them one after another, each in a fresh Python process, as
a closed loop with a single client.  Repetitions continue until ``--seconds``
is used up, with at least two so that outputs under two hash seeds can be
compared.  The workload seed is the only input: it is passed as ``--seed`` to
every ``check`` and derives a distinct ``PYTHONHASHSEED`` per repetition.

The host's speed drifts by tens of percent within seconds to minutes (other
tenants share its cores), so the benchmark measures it as it goes with
``perfbench/reference.py``, a fixed piece of pure-Python work.  The
reference runs after every timed process and, while a process runs, every
``SLICE_S`` seconds with the process stopped.  Each slice of a process's run
is scaled by ``REF_NOMINAL_S`` over the mean of the reference times just
before and just after it: the time it would have taken on a host where the
reference takes ``REF_NOMINAL_S``.  The benchmark and its children are
pinned to one CPU, so the reference measures the CPU the program runs on.

``--trace 0`` reports the end-to-end metrics from untraced runs:
``wall_norm_s`` (the scaled wall time of a repetition: per invocation the
median over repetitions, summed), ``setup_s`` (interpreter start, import and
spec parsing, scaled the same way, summed over the workload's processes;
median of five probes per spec) and ``peak_rss_mb`` (largest child).  The
raw wall and set-up times are printed and recorded beside them.
``--trace 1`` runs one untraced and one traced repetition
(``perfbench/tracer.py``) and reports the per-module metrics with the
tracing overhead.

Every output is judged (``perfbench/verdicts.py``); a failed invocation, or
one whose stdout differs between hash seeds, counts as a failed operation.
Doctored copies of a real output must also be caught, or the run is marked
incorrect.  The last stdout line is the JSON result; a fuller record with
provenance is written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import verdicts

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_BUDGET_S = 165      # a run must end within 180 s; children still running are killed
SETUP_PROBES = 5
MAX_REPS = 200
PROBE = "import sys, species_forge.cli as cli; cli.parse_species(sys.argv[1])"
# Median wall time of one reference.py process, spawn to exit, on the
# 2-vCPU Xeon VM (CPython 3.11.7) the baseline was measured on.  Scaled times
# are seconds on a host that runs the reference this fast.
REF_NOMINAL_S = 0.25
# A timed process is stopped every SLICE_S seconds of its run while the
# reference runs, so that the host's speed is known throughout a long run.
SLICE_S = 2.0

END_TO_END = {"wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-module metrics: name -> unit.  Where a module does not run on a
# workload its metrics read 0.
PER_LAYER = {
    "cli.rows": "count",
    "core.transport_check_s": "s", "core.transport_check_calls": "count",
    "core.enum_s": "s", "core.decompositions_yielded": "count",
    "core.vec_built": "count", "core.elements_built": "count",
    "core.elements_hit_ratio": "ratio",
    "catalog.rule_calls": "count", "catalog.fold_calls": "count", "catalog.fold_s": "s",
    "catalog.fiber_builds": "count", "catalog.fiber_hit_ratio": "ratio",
    **{f"engine.{f}_s": "s" for f in (
        "naturality", "associative", "coassociative", "hopf_compatible", "delta_nabla",
        "self_compatible", "fsd", "ssd_conditions", "preorder_rectangle", "antipode",
        "dual_tables", "other_axioms")},
    "engine.check_calls": "count", "engine.repeat_calls": "count",
    "controls.systems": "count", "controls.s": "s",
    **{f"classify.{f}_s": "s" for f in (
        "primitives", "primitives_match", "takeuchi_closed_form", "fmu", "nabla_x",
        "other")},
    "linalg.s": "s", "linalg.calls": "count", "linalg.cells": "count",
    "order.compute_s": "s", "order.checks_s": "s", "order.bases_s": "s",
    "order.strict_pairs": "count",
    "trace.overhead": "ratio", "trace.closed_form_checks": "count",
}


# ---------------------------------------------------------------------------
# child processes

class Child:
    """One finished child process: exit code, stdout, wall time, peak RSS.

    With a ``ref``, the child's run is cut into slices of at most ``SLICE_S``
    seconds: after each slice the child is stopped (SIGSTOP) while the
    reference runs, then continued.  ``wall_s`` counts only the time the
    child ran, and ``scaled_s`` scales each slice by the reference times
    around it.  Without one, ``scaled_s`` equals ``wall_s``.  The child is
    killed if it is still running at ``deadline`` (a ``time.perf_counter``
    value), and on any error while it runs."""

    def __init__(self, cmd: list[str], env: dict, out_path: Path, deadline: float,
                 ref: "Reference | None" = None):
        self.wall_s = self.scaled_s = 0.0
        self.timed_out = False
        t0 = time.perf_counter()
        with open(out_path, "wb") as out:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out,
                                    stderr=subprocess.DEVNULL)
        pidfd = status = None
        try:
            pidfd = os.pidfd_open(proc.pid)
            while status is None:
                left = deadline - time.perf_counter()
                wait = left if ref is None else min(SLICE_S, left)
                exited = select.select([pidfd], [], [], max(wait, 0.0))[0]
                if not exited and time.perf_counter() >= deadline:
                    proc.kill()
                    self.timed_out = True
                    exited = True
                if not exited:
                    os.kill(proc.pid, signal.SIGSTOP)
                _, status, usage = os.wait4(proc.pid, 0 if exited else os.WUNTRACED)
                run_s = time.perf_counter() - t0
                stopped = os.WIFSTOPPED(status)
                if stopped:
                    status = None
                self.wall_s += run_s
                self.scaled_s += run_s * (ref.factor() if ref else 1.0)
                if stopped:
                    t0 = time.perf_counter()
                    os.kill(proc.pid, signal.SIGCONT)
        finally:
            if pidfd is not None:
                os.close(pidfd)
            if status is None:          # an error while the child ran or was stopped
                proc.kill()
                proc.returncode = os.waitstatus_to_exitcode(os.wait4(proc.pid, 0)[1])
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024
        self.stdout = out_path.read_bytes()


class Reference:
    """Runs reference.py between timed slices and scales their times."""

    def __init__(self, work: Path, deadline: float):
        self.work, self.deadline = work, deadline
        self.env = child_env(0)
        self.times: list[float] = []
        self.last = statistics.median(self.run() for _ in range(3))

    def run(self) -> float:
        child = Child([sys.executable, str(BENCH / "reference.py")], self.env,
                      self.work / "reference", self.deadline)
        if child.returncode != 0 or child.stdout.decode().strip() != reference.CHECKSUM:
            raise SystemExit(f"reference.py failed: exit {child.returncode}, "
                             f"stdout {child.stdout[:200]!r}")
        self.times.append(child.wall_s)
        return child.wall_s

    def factor(self) -> float:
        """Scale for a time measured since the previous reference run: runs
        the reference again and compares the mean of the two with
        REF_NOMINAL_S."""
        before, self.last = self.last, self.run()
        return REF_NOMINAL_S / ((before + self.last) / 2)


def child_env(hash_seed: int) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)    # import from .pyc, as installed users do
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


# ---------------------------------------------------------------------------
# one workload

def load_workloads() -> dict:
    with open(BENCH / "workloads.json") as fh:
        return json.load(fh)["workloads"]


def invocations(workload: dict, seed: int) -> list[dict]:
    out = []
    for inv in workload["invocations"]:
        argv = list(inv["argv"])
        if argv[0] == "check":
            argv += ["--seed", str(seed)]
        out.append({"argv": argv, "spec": inv["spec"], "facts": inv["facts"]})
    return out


def run_rep(invs: list[dict], hash_seed: int, work: Path, traced: bool,
            ref: Reference, deadline: float) -> dict:
    env = child_env(hash_seed)
    children, traces, scaled = [], [], []
    t0 = time.perf_counter()
    for i, inv in enumerate(invs):
        cmd = [sys.executable, "-m", "species_forge.cli", *inv["argv"]]
        if traced:
            trace_path = work / f"trace-{i}.json"
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(trace_path), "--",
                   *inv["argv"]]
        if traced:      # not sliced: a stop would add to the spans' times
            children.append(Child(cmd, env, work / f"stdout-{i}", deadline))
            scaled.append(children[-1].wall_s * ref.factor())
        else:
            children.append(Child(cmd, env, work / f"stdout-{i}", deadline, ref))
            scaled.append(children[-1].scaled_s)
        if traced:
            traces.append(json.loads(trace_path.read_text()) if trace_path.exists() else None)
    return {"wall_s": sum(c.wall_s for c in children), "norm_s": scaled,
            "elapsed_s": time.perf_counter() - t0, "hash_seed": hash_seed,
            "children": children, "traces": traces}


def median_setup(spec: str, env: dict, work: Path, ref: Reference,
                 deadline: float) -> tuple[float, float]:
    """Median raw and scaled time of SETUP_PROBES probes, run back to back
    between reference runs."""
    times = []
    for _ in range(SETUP_PROBES):
        child = Child([sys.executable, "-c", PROBE, spec], env, work / "probe", deadline)
        if child.returncode != 0:
            raise SystemExit(f"set-up probe failed for {spec!r}: exit {child.returncode}")
        times.append(child.wall_s)
    raw = statistics.median(times)
    return raw, raw * ref.factor()


def run_workload(name: str, workload: dict, seed: int, seconds: float, trace: bool,
                 work: Path) -> dict:
    invs = invocations(workload, seed)
    hash_seeds = random.Random(f"species-forge-bench:{seed}").sample(range(1, 2 ** 32),
                                                                     MAX_REPS + 1)
    load_before = os.getloadavg()[0]
    deadline = time.perf_counter() + RUN_BUDGET_S
    env = child_env(hash_seeds[0])
    Child([sys.executable, "-c", PROBE, invs[0]["spec"]], env, work / "probe",
          deadline)   # compiles the .pyc files, as an installed package has them
    ref = Reference(work, deadline)
    per_spec = {} if trace else {spec: median_setup(spec, env, work, ref, deadline)
                                 for spec in sorted({i["spec"] for i in invs})}

    def another_rep() -> bool:
        if len(reps) < (1 if trace else 2):
            return True
        mean_rep = statistics.mean(r["elapsed_s"] for r in reps)
        return (not trace and len(reps) < MAX_REPS
                and time.perf_counter() - t0 + mean_rep <= seconds)

    reps = []
    t0 = time.perf_counter()
    while another_rep():
        reps.append(run_rep(invs, hash_seeds[len(reps)], work, False, ref, deadline))
    traced = (run_rep(invs, hash_seeds[len(reps)], work, True, ref, deadline)
              if trace else None)

    # judge every output, then compare stdout digests across hash seeds
    attempted = failed = 0
    failures = []
    all_reps = reps + ([traced] if traced else [])
    for i, inv in enumerate(invs):
        split = verdicts.split_runs([verdicts.digest(r["children"][i].stdout)
                                     for r in all_reps])
        for j, rep in enumerate(all_reps):
            child = rep["children"][i]
            reasons = verdicts.judge(inv["argv"], inv["facts"], child.returncode,
                                     child.stdout, child.timed_out)
            if j in split:
                reasons.append("stdout differs from the first repetition's "
                               f"(PYTHONHASHSEED {rep['hash_seed']})")
            attempted += 1
            if reasons:
                failed += 1
                failures.append({"argv": inv["argv"], "hash_seed": rep["hash_seed"],
                                 "reasons": reasons})

    controls = {}
    for i, inv in enumerate(invs):
        child = reps[0]["children"][i]
        if not verdicts.judge(inv["argv"], inv["facts"], child.returncode, child.stdout):
            for kind, caught in verdicts.negative_controls(
                    inv["argv"], inv["facts"], child.returncode, child.stdout).items():
                controls.setdefault(kind, caught)
    controls_ok = bool(controls) and all(controls.values())

    walls = [r["wall_s"] for r in reps]
    norms = [sum(r["norm_s"]) for r in reps]
    result = {
        "workload": name, "seed": seed, "trace": int(trace),
        "attempted": attempted, "failed": failed, "failures": failures[:20],
        "negative_controls": controls,
        "wall_samples_s": walls,
        "wall_norm_samples_s": norms,
        "wall_norm_tail": tail_percentile(norms),
        "reference_s": ref.times,
        "setup_per_spec_s": {spec: {"raw": raw, "scaled": scaled}
                             for spec, (raw, scaled) in per_spec.items()},
        "invocations": [
            {"argv": inv["argv"],
             "wall_s": [r["children"][i].wall_s for r in all_reps],
             "wall_norm_s": [r["norm_s"][i] for r in all_reps],
             "peak_rss_mb": max(r["children"][i].rss_mb for r in all_reps),
             "rows": verdicts.row_count(inv["argv"], reps[0]["children"][i].stdout)}
            for i, inv in enumerate(invs)],
    }
    closed_ok = True
    if trace:
        rows = sum(verdicts.row_count(inv["argv"], traced["children"][i].stdout)
                   for i, inv in enumerate(invs))
        metrics, closed, edges = layer_metrics(traced, norms[0], rows)
        closed_ok = closed["failed"] == 0 and None not in traced["traces"]
        result["closed_form"] = closed
        result["span_edges"] = edges        # "caller > callee": [calls, inclusive s]
        result["bindings"] = next((tr["bindings"] for tr in traced["traces"] if tr), {})
        result["traced_wall_norm_s"] = sum(traced["norm_s"])
        result["untraced_wall_norm_s"] = norms[0]
    else:
        metrics = {"wall_norm_s": sum(statistics.median(r["norm_s"][i] for r in reps)
                                      for i in range(len(invs))),
                   "setup_s": sum(per_spec[inv["spec"]][1] for inv in invs),
                   "peak_rss_mb": max(c.rss_mb for r in reps for c in r["children"])}
        result["raw"] = {"wall_s": statistics.median(walls),
                         "setup_s": sum(per_spec[inv["spec"]][0] for inv in invs)}
    result["metrics"] = metrics
    result["correct"] = failed == 0 and controls_ok and closed_ok
    result["load_avg_1m"] = {"before": load_before, "after": os.getloadavg()[0]}
    return result


def tail_percentile(samples: list[float]):
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            cuts = statistics.quantiles(samples, n=1000, method="inclusive")
            return {"percentile": p, "value_s": cuts[int(p * 10) - 1], "samples": n}
    return {"percentile": None, "samples": n,
            "note": "fewer than 20 samples: no percentile has ten beyond it"}


def layer_metrics(traced: dict, untraced_norm: float, rows: int):
    self_s, inclusive, calls, counts = {}, {}, {}, {}
    closed = {"checked": 0, "failed": 0, "mismatches": []}
    edges: dict[str, list] = {}
    for tr in traced["traces"]:
        if tr is None:
            continue
        for src, dst in ((tr["self_s"], self_s), (tr["inclusive_s"], inclusive),
                         (tr["calls"], calls), (tr["counts"], counts)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        for k, (n, t) in tr["edges"].items():
            edge = edges.setdefault(k, [0, 0.0])
            edge[0] += n
            edge[1] += t
        for k in ("checked", "failed"):
            closed[k] += tr["closed_form"][k]
        closed["mismatches"] += tr["closed_form"]["mismatches"]

    def ratio_hit(calls_key, miss_key):
        n = counts.get(calls_key, 0)
        return (n - counts.get(miss_key, 0)) / n if n else 0.0

    m = {
        "cli.rows": rows,
        "core.transport_check_s": self_s.get("core.transport_check", 0.0),
        "core.transport_check_calls": calls.get("core.transport_check", 0),
        "core.enum_s": self_s.get("core.enum", 0.0),
        "core.elements_hit_ratio": ratio_hit("core.elements_calls", "core.elements_misses"),
        "catalog.fold_calls": calls.get("catalog.fold", 0),
        "catalog.fold_s": self_s.get("catalog.fold", 0.0),
        "catalog.fiber_hit_ratio": ratio_hit("catalog.fiber_calls", "catalog.fiber_builds"),
        "controls.s": inclusive.get("controls.checked", 0.0) + self_s.get("controls.build", 0.0),
        "linalg.s": self_s.get("linalg", 0.0),
        "trace.overhead": sum(traced["norm_s"]) / untraced_norm,
        "trace.closed_form_checks": closed["checked"],
    }
    for name, unit in PER_LAYER.items():
        if name in m:
            continue
        if unit == "s":
            m[name] = self_s.get(name[:-2], 0.0)
        else:
            m[name] = counts.get(name, 0)
    return {name: m[name] for name in PER_LAYER}, closed, edges


# ---------------------------------------------------------------------------
# provenance and output

def provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "nproc_usable": len(os.sched_getaffinity(0)),
            "git_commit": git_commit(), "src_sha256": digest.hexdigest(),
            "workload_seed": seed}


def git_commit():
    """HEAD of the repository at ROOT, or None when ROOT is not a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def print_summary(result: dict) -> None:
    name, m = result["workload"], result["metrics"]
    print(f"workload {name}: seed {result['seed']}, trace {result['trace']}, "
          f"{len(result['wall_samples_s'])} untraced repetitions")
    if result["trace"]:
        for key, value in m.items():
            print(f"  {key:34s} {value:.6g} {PER_LAYER[key]}")
    else:
        tail = result["wall_norm_tail"]
        tail_text = (f"p{tail['percentile']} {tail['value_s']:.4f} s" if tail["percentile"]
                     else "tail percentile: none (fewer than 20 samples)")
        raw = result["raw"]
        print(f"  wall_norm_s  {m['wall_norm_s']:.4f} s   scaled to the reference; "
              f"{tail['samples']} repetitions; {tail_text}")
        print(f"  wall_s       {raw['wall_s']:.4f} s   raw, median repetition")
        print(f"  setup_s      {m['setup_s']:.4f} s   scaled; "
              f"median of {SETUP_PROBES} probes per spec, summed over processes")
        print(f"  setup_raw_s  {raw['setup_s']:.4f} s   raw")
        print(f"  peak_rss_mb  {m['peak_rss_mb']:.2f} MB  largest child")
        print(f"  reference    {statistics.median(result['reference_s']):.4f} s   "
              f"median of {len(result['reference_s'])} runs; nominal {REF_NOMINAL_S} s")
    share = result["failed"] / result["attempted"]
    print(f"  failed_ops   {result['failed']}/{result['attempted']} = {share:.4g} ratio")
    caught = sum(result["negative_controls"].values())
    print(f"  negative controls counted as failed ops: {caught}/"
          f"{len(result['negative_controls'])} ({', '.join(result['negative_controls'])})")
    if "closed_form" in result:
        cf = result["closed_form"]
        print(f"  closed-form counts: {cf['checked'] - cf['failed']}/{cf['checked']} match")
    for f in result["failures"][:5]:
        print(f"  FAILED {' '.join(f['argv'])}: {'; '.join(f['reasons'])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "species_forge" / "cli.py").is_file():
        print(f"error: no species_forge sources under {SRC}", file=sys.stderr)
        return 2
    workloads = load_workloads()
    names = list(workloads) if args.workload == "all" else [args.workload]
    if any(n not in workloads for n in names):
        print(f"error: unknown workload {args.workload!r}; one of {list(workloads)} or all",
              file=sys.stderr)
        return 2

    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})     # children inherit it
    work = BENCH / ".work" / f"{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    try:
        results = []
        for name in names:
            result = run_workload(name, workloads[name], args.seed, args.seconds,
                                  bool(args.trace), work)
            result["provenance"] = provenance(args.seed)
            out = results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
            out.write_text(json.dumps(result, indent=2) + "\n")
            print_summary(result)
            results.append(result)
    finally:
        for path in work.iterdir():
            path.unlink()
        work.rmdir()
        try:
            work.parent.rmdir()
        except OSError:     # another run is still using it
            pass

    units = PER_LAYER if args.trace else END_TO_END
    prefix = len(results) > 1
    final = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): {"value": v, "unit": units[k]}
                    for r in results for k, v in r["metrics"].items()},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
