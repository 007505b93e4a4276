"""rqit benchmark: time each CLI command end to end on one workload, verify every output.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper-figures --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 1

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the workload
once untraced and once traced (half the seconds each) and reports the
per-layer metrics.  A report goes to standard output, a run record to
``.bench_out/results/``, and the last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

RUN_LIMIT_S = 175.0  # the whole run must end within 180 s
DRIVER_END_TO_END = ("setup_s", "solve_s", "peak_rss_mb")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("RQIT_THREADS", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: bool, env: dict,
               tmp: str, deadline: float, spans: str = "") -> dict:
    tag = "traced" if trace else "untraced"
    out_dir = os.path.join(tmp, f"{workload}-{tag}")
    os.makedirs(out_dir)
    result_path = os.path.join(tmp, f"{workload}-{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
           "--out-dir", os.path.relpath(out_dir, ROOT), "--result", result_path]
    if trace:
        cmd.append("--trace")
    if spans:
        cmd += ["--spans", spans]
    # The worker's standard output goes to ours on stderr, so that nothing
    # the program prints can follow the result line.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any set-up probe it started
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{workload} worker did not finish within the run limit") from None
        raise
    if code != 0:
        raise BenchError(f"{workload} worker exited with code {code}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def tail(values):
    """(value, percentile) of the highest order statistic with ten samples above it.

    None unless that statistic lies above the median (20 samples or more).
    """
    n = len(values)
    k = n - 10
    if 2 * k <= n:
        return None
    return sorted(values)[k - 1], 100.0 * k / n


def timing_rows(worker: dict) -> list:
    """(name, unit, reference-speed samples, wall samples) of every end-to-end timing."""
    passes = worker["passes"]
    rows = [("setup_s", "s", worker["setup_s"], worker["setup_wall_s"]),
            ("solve_s", "s", [p["solve_ref_s"] for p in passes], [p["solve_s"] for p in passes])]
    for cmd in workloads.COMMANDS:
        if cmd in passes[0]["commands"]:
            rows.append((f"{cmd}_s", "s", [p["commands_ref"][cmd] for p in passes],
                         [p["commands"][cmd] for p in passes]))
    return rows


def solve_ref(passes: list[dict]) -> float:
    """One pass at reference speed: each invocation's median over the run, summed.

    Each invocation's wall time is scaled by the calibration readings taken
    just before and after it (see calibrate.py), which removes most of the
    host's changes of speed; the median per invocation removes the rest.
    """
    keys = passes[0]["invocations_ref"]
    return sum(statistics.median(p["invocations_ref"][k] for p in passes) for k in keys)


def git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "rqit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def run_record(workload: str, seed: int, seconds: float, trace: bool, worker: dict) -> dict:
    """What makes two result files comparable."""
    return {
        "workload": workload,
        "seed": seed,
        "program_seed": workloads.program_seed(seed),
        "seconds": seconds,
        "trace": int(trace),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": worker["blas_threads"],
        "calibration": worker["calibration"],
        "python": platform.python_version(),
        "numpy": worker["numpy"],
        "scipy": version("scipy"),
        "argv": worker["argv"],
        "points": worker["points"],
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    env = child_env()
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        if not trace:
            worker = run_worker(workload, seed, seconds, False, env, tmp, deadline)
            workers = [worker]
        else:
            spans = os.path.join(OUT, "results", f"{workload}-seed{seed}.spans.jsonl.gz")
            plain = run_worker(workload, seed, seconds / 2, False, env, tmp, deadline)
            worker = run_worker(workload, seed, seconds / 2, True, env, tmp, deadline, spans)
            workers = [plain, worker]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    out = {
        "record": run_record(workload, seed, seconds, trace, worker),
        "attempted": attempted,
        "failed": failed,
        "failures": [f for w in workers for f in w["failures"]],
    }
    if not trace:
        rows = timing_rows(worker)
        out["timings"] = {name: {"unit": unit, "samples": ref, "wall_samples": wall}
                          for name, unit, ref, wall in rows}
        metrics = {name: (statistics.median(ref), unit) for name, unit, ref, _ in rows}
        metrics["solve_s"] = (solve_ref(worker["passes"]), "s")
        metrics["host_speed"] = (worker["host_speed"], "ratio")
        metrics["peak_rss_mb"] = (worker["peak_rss_mb"], "MB")
        metrics["failed_frac"] = (failed / attempted, "ratio")
    else:
        metrics = {k: tuple(v) for k, v in worker["per_layer"].items()}
        overhead = solve_ref(worker["passes"]) / solve_ref(plain["passes"]) - 1.0
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        out["traced_solve_s"] = statistics.fmean(p["solve_s"] for p in worker["passes"])
        out["per_command_per_point"] = worker["per_command_per_point"]
    out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    path = os.path.join(OUT, "results", f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    return out


def print_report(result: dict) -> None:
    rec = result["record"]
    mode = "traced" if rec["trace"] else "untraced"
    print(f"== rqit benchmark: workload {rec['workload']}, seed {rec['seed']}, "
          f"{rec['seconds']:g} s, {mode} ==")
    print(f"   source {rec['source_sha256'][:12]}  commit {rec['git_commit'] or 'n/a'}  "
          f"nproc {rec['nproc']}  blas threads {rec['blas_threads']}  "
          f"python {rec['python']}  numpy {rec['numpy']}  scipy {rec['scipy']}")
    m = result["metrics"]
    if not rec["trace"]:
        print(f"   times at reference speed ({rec['calibration']} kernel); "
              f"host speed {m['host_speed']['value']:.3f} of reference")
        print(f"   {'metric':<14}{'unit':<7}{'median':>10}{'tail':>10}{'pct':>6}{'min':>10}{'n':>6}"
              f"{'wall med':>10}")
        for name, t in result["timings"].items():
            vals = t["samples"]
            tl = tail(vals)
            tail_s = f"{tl[0]:10.4f}{'p' + format(tl[1], '.0f'):>6}" if tl else f"{'-':>10}{'-':>6}"
            print(f"   {name:<14}{t['unit']:<7}{statistics.median(vals):10.4f}{tail_s}"
                  f"{min(vals):10.4f}{len(vals):6d}{statistics.median(t['wall_samples']):10.4f}")
        print(f"   {'solve_s':<14}{'s':<7}{m['solve_s']['value']:10.4f}"
              f"   (bounded: each invocation's median, summed)")
        print(f"   {'peak_rss_mb':<14}{'MB':<7}{m['peak_rss_mb']['value']:10.1f}")
        print(f"   {'failed_frac':<14}{'ratio':<7}{m['failed_frac']['value']:10.4f}"
              f"   ({result['failed']} of {result['attempted']} invocations)")
    else:
        for name, v in m.items():
            print(f"   {name:<52}{v['unit']:<7}{v['value']:.6g}")
        modules = sum(v["value"] for k, v in m.items() if k.count(".") == 1 and k.endswith(".self_s"))
        ok = "ok" if modules <= result["traced_solve_s"] else "VIOLATED"
        print(f"   module self_s sum {modules:.4f} s <= traced solve_s "
              f"{result['traced_solve_s']:.4f} s: {ok}")
        for fn, by_cmd in result["per_command_per_point"].items():
            parts = ", ".join(f"{c} {v:.3f}" for c, v in by_cmd.items()) or "not called"
            print(f"   {fn}.per_point by command: {parts}")
    for line in result["failures"]:
        print(f"   FAILED {line}")


def final_line(results: dict, trace: bool, prefix: bool) -> str:
    metrics = {}
    for workload, res in results.items():
        for name, v in res["metrics"].items():
            if trace or name in DRIVER_END_TO_END:
                metrics[f"{workload}.{name}" if prefix else name] = v
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rqit", "cli.py")):
        print(f"error: no rqit sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    # --workload all runs each workload for the full --seconds; the single-run
    # time limit then applies per workload.
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + RUN_LIMIT_S
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
            print_report(results[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(final_line(results, bool(args.trace), prefix=len(names) > 1), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
