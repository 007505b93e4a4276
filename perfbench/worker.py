"""One workload in a fresh process: run passes of CLI invocations, verify, report.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``
and ``RQIT_THREADS`` removed from the environment.  Each invocation calls
``rqit.cli.main(argv)`` in process, as the installed ``rqit`` script does.
Passes repeat until the next one would end past ``--seconds``; there is
always at least one.  Outputs are verified after each pass, outside the
timed region.  The result is written as JSON to ``--result``.

Untraced runs also time set-up: a fresh interpreter importing ``rqit`` and
``rqit.cli``.  The probes are spread over the run, one before the first
invocation and then one between invocations every PROBE_EVERY_S seconds,
so that their median covers the whole run rather than one moment of it.

Every invocation is followed by a calibration reading (``calibrate.measure``
with the workload's kernel), and the run starts with one; every probe is
preceded and followed by a reading of the ``mixed`` kernel.  Each timing
is also given at reference speed: its wall time times the kernel's
``REFERENCE_S`` over the mean of the readings just before and just after it.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import calibrate
import verify
import workloads


SETUP_PROBES = 15     # at least this many per untraced run
PROBE_EVERY_S = 1.5
PROBE = (
    "import sys, rqit, rqit.cli\n"
    "sys.stdout.write(rqit.__file__ + '\\n')\n"
    "sys.stdout.flush()\n"
)


def setup_probe(src: str) -> float:
    """Seconds from spawning a fresh interpreter until rqit and rqit.cli are imported."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", PROBE], stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line.startswith(src + os.sep):
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}, rqit at {line.strip()!r})")
    return elapsed


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_invocation(cli, argv):
    """(exit code, error text or None) of one in-process CLI call."""
    try:
        return cli.main(argv), None
    except SystemExit as exc:
        return exc.code, f"SystemExit({exc.code!r})"
    except Exception as exc:  # any escaping exception is a failed invocation
        return None, f"{type(exc).__name__}: {exc}"


def check_invocation(inv, outcome, path: str, first_text: dict, reference: dict) -> list[str]:
    """Problems with one invocation: its exit, its output, and the verifier itself.

    The first output of each invocation is kept in ``first_text``; later
    passes must reproduce its bytes.  On that first output the verifier is
    also checked: it must reject each copy with a fixed-input value moved
    by 1e-9.
    """
    code, error = outcome
    if error is not None or code != 0:
        return [error or f"exit code {code}"]
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        problems = verify.check(inv, text, reference)
    except ValueError as exc:  # undecodable text or a non-numeric field
        return [f"unreadable output: {exc}"]
    if problems:
        return problems
    if inv.key not in first_text:
        first_text[inv.key] = text
        for column, bad in verify.perturbed_copies(text, inv, reference):
            if not verify.check(inv, bad, reference):
                problems.append(f"verifier accepted a 1e-9 change in {column}")
    elif text != first_text[inv.key]:
        problems.append("output bytes differ from the first pass")
    return problems


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", default="")
    args = p.parse_args()

    src = os.path.join(args.root, "src")
    import rqit
    import rqit.cli
    if not os.path.abspath(rqit.__file__).startswith(src + os.sep):
        print(f"rqit imported from {rqit.__file__}, not from {src}", file=sys.stderr)
        return 2
    import numpy

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    cli = sys.modules["rqit.cli"]

    invs = workloads.build(args.workload, args.seed)
    reference = verify.load_reference()
    paths = {inv.key: os.path.join(args.out_dir, inv.key + ".csv") for inv in invs}
    first_text = {}
    passes, failures, invocations = [], [], {}
    setup, setup_wall, readings = [], [], []
    attempted = failed = 0
    probing = not args.trace
    last_probe = float("-inf")

    kind = workloads.CALIBRATION[args.workload]
    reference_s = calibrate.REFERENCE_S[kind]

    def calibrated(wall: float) -> float:
        """Reference-speed time of what ran since the last reading; takes a new reading."""
        before = readings[-1]
        readings.append(calibrate.measure(kind))
        return wall * reference_s * 2.0 / (before + readings[-1])

    def probe() -> None:
        # Start-up is interpreted Python and imports, so the mixed kernel
        # calibrates it on every workload.
        before = calibrate.measure("mixed")
        wall = setup_probe(src)
        after = calibrate.measure("mixed")
        setup_wall.append(wall)
        setup.append(wall * calibrate.REFERENCE_S["mixed"] * 2.0 / (before + after))
        readings.append(calibrate.measure(kind))

    readings.append(calibrate.measure(kind))
    origin = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        times, scaled, codes = {}, {}, {}
        for inv in invs:
            if probing and time.perf_counter() - last_probe >= PROBE_EVERY_S:
                probe()
                last_probe = time.perf_counter()
            if tracer is not None:
                tracer.invocation = len(invocations)
            invocations[len(invocations)] = [inv.command, inv.points, inv.key, len(passes)]
            if os.path.exists(paths[inv.key]):
                os.remove(paths[inv.key])  # a failing call must not leave last pass's file
            t0 = time.perf_counter()
            codes[inv.key] = run_invocation(cli, list(inv.argv) + ["-o", paths[inv.key]])
            times[inv.key] = time.perf_counter() - t0
            scaled[inv.key] = calibrated(times[inv.key])
        per_command, per_command_ref = {}, {}
        for inv in invs:
            per_command[inv.command] = per_command.get(inv.command, 0.0) + times[inv.key]
            per_command_ref[inv.command] = per_command_ref.get(inv.command, 0.0) + scaled[inv.key]
        passes.append({"solve_s": sum(times.values()), "solve_ref_s": sum(scaled.values()),
                       "commands": per_command, "commands_ref": per_command_ref,
                       "invocations": times, "invocations_ref": scaled})

        for inv in invs:
            attempted += 1
            problems = check_invocation(inv, codes[inv.key], paths[inv.key], first_text, reference)
            if problems:
                failed += 1
                if len(failures) < 20:
                    failures.append(f"pass {len(passes)} {inv.key}: {'; '.join(problems)}")

        passes[-1]["wall_s"] = time.perf_counter() - pass_start
        elapsed = time.perf_counter() - origin
        typical = statistics.median(p["wall_s"] for p in passes)
        if elapsed + typical > args.seconds:
            break

    while probing and len(setup) < SETUP_PROBES:
        probe()

    result = {
        "setup_s": setup,
        "setup_wall_s": setup_wall,
        "calibration_s": readings,
        "calibration": kind,
        "host_speed": statistics.median(reference_s / r for r in readings),
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "blas_threads": blas_threads(),
        "numpy": numpy.__version__,
        "argv": [list(inv.argv) for inv in invs],
        "points": {inv.key: inv.points for inv in invs},
    }
    if tracer is not None:
        result["per_layer"] = tracer.metrics(len(passes), invocations)
        result["per_command_per_point"] = tracer.per_command_per_point(invocations)
        if args.spans:
            tracer.write(args.spans, invocations, origin)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
