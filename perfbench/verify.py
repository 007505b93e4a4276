"""Output verification for the benchmark's CLI invocations.

Fixed-input columns (those of fig1 and fig3, fig2's fidelity_exact, and every
curvature column) and the ``# n_max=`` header must match ``reference.json``,
taken from the seed commit, within 1e-10 absolute.  CSV rows hold 12
significant digits, which cannot resolve 1e-10 once |value| >= 10, so half a
unit of the last printed digit is added to the tolerance; a change of 1e-9
is still caught for every value the workloads produce.

Seed-dependent columns are checked with rules that hold for any seed:
fidelity_mc within 5 std_err of fidelity_exact (only [0, 1] with a single
sample), and the metric table's error columns consistent with its tensors
and below 1 % of the tensor scale (the largest value over the sampled ball
is about 0.6 %).

Pure Python: the checks import neither rqit nor numpy.
"""

from __future__ import annotations

import json
import math
import os

ABS_TOL = 1e-10
MC_SIGMAS = 5.0
METRIC_SCALE_REL_MAX = 0.01
METRIC_MAX_NORM = 0.7  # the CLI's default --max-norm, which the workloads keep

COLUMNS = {
    "fig1": ("xi", "log_negativity"),
    "fig2": ("xi", "fidelity_mc", "std_err", "fidelity_exact"),
    "fig3": ("xi", "theta"),
    "metric": (
        ("x", "y", "z")
        + tuple(f"g_{c}" for c in ("xx", "xy", "xz", "yy", "yz", "zz"))
        + tuple(f"gnum_{c}" for c in ("xx", "xy", "xz", "yy", "yz", "zz"))
        + ("max_abs_err", "scale_rel_err")
    ),
    "curvature": ("xi_c", "theta", "numeric_R", "closed_form_R", "discrepancy"),
}

FIXED_COLUMNS = {
    "fig1": ("xi", "log_negativity"),
    "fig2": ("xi", "fidelity_exact"),
    "fig3": ("xi", "theta"),
    "curvature": COLUMNS["curvature"],
}

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["outputs"]


def parse_csv(text: str):
    """(header dict, column names, rows of floats) of an rqit CSV."""
    header, rows = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            header[key] = value
        elif line:
            rows.append([float(v) for v in line.split(",")])
    columns = tuple(header.get("columns", "").split(","))
    return header, columns, rows


def tolerance(ref: float) -> float:
    """ABS_TOL plus half a unit in the 12th significant digit of ``ref``."""
    if ref == 0.0:
        return ABS_TOL
    return ABS_TOL + 0.5 * 10.0 ** (math.floor(math.log10(abs(ref))) - 11)


def fixed_values(text: str, command: str) -> dict:
    """The reference entry of an output: n_max and its fixed-input columns."""
    header, columns, rows = parse_csv(text)
    entry = {"command": command, "rows": len(rows)}
    if "n_max" in header:
        entry["n_max"] = int(header["n_max"])
    entry["columns"] = {
        name: [row[columns.index(name)] for row in rows] for name in FIXED_COLUMNS[command]
    }
    return entry


def check(inv, text: str, reference: dict) -> list[str]:
    """Problems found in one output; an empty list means it passed."""
    header, columns, rows = parse_csv(text)
    cmd = inv.command
    problems = []
    if header.get("command") != cmd:
        problems.append(f"header command={header.get('command')!r}, want {cmd!r}")
    want_r = inv.option("--r")
    if want_r is not None and header.get("r") != f"{float(want_r):.12g}":
        problems.append(f"header r={header.get('r')!r}, want {want_r}")
    if columns != COLUMNS[cmd]:
        return problems + [f"columns {','.join(columns)}, want {','.join(COLUMNS[cmd])}"]
    if len(rows) != inv.points:
        return problems + [f"{len(rows)} rows, want {inv.points}"]
    if any(len(row) != len(columns) or not all(map(math.isfinite, row)) for row in rows):
        return problems + ["a row is short or holds a non-finite value"]
    if cmd in FIXED_COLUMNS:
        problems += _check_reference(header, columns, rows, reference.get(inv.key))
    if cmd == "fig2":
        problems += _check_fig2(columns, rows, int(inv.option("--samples")))
    if cmd == "metric":
        problems += _check_metric(rows)
    return problems


def _check_reference(header, columns, rows, ref) -> list[str]:
    if ref is None:
        return ["no reference entry"]
    problems = []
    if "n_max" in ref and header.get("n_max") != str(ref["n_max"]):
        problems.append(f"header n_max={header.get('n_max')!r}, want {ref['n_max']}")
    for name, want in ref["columns"].items():
        col = columns.index(name)
        for i, (row, w) in enumerate(zip(rows, want)):
            if not abs(row[col] - w) <= tolerance(w):
                problems.append(f"{name}[{i}]={row[col]!r}, reference {w!r}")
                break
    return problems


def _check_fig2(columns, rows, samples: int) -> list[str]:
    mc, se, ex = (columns.index(c) for c in ("fidelity_mc", "std_err", "fidelity_exact"))
    for i, row in enumerate(rows):
        if not 0.0 <= row[mc] <= 1.0 or not 0.0 <= row[ex] <= 1.0:
            return [f"fidelity outside [0, 1] in row {i}"]
        if samples > 1:
            if not row[se] > 0.0:
                return [f"std_err={row[se]!r} in row {i}, want > 0 with {samples} samples"]
            if abs(row[mc] - row[ex]) > MC_SIGMAS * row[se]:
                return [f"fidelity_mc {row[mc]!r} more than {MC_SIGMAS:g} std_err from exact {row[ex]!r} in row {i}"]
    return []


def _leading_minors_positive(g) -> bool:
    (a, b, c), (_, d, e), (_, _, f) = g
    det2 = a * d - b * b
    det3 = a * (d * f - e * e) - b * (b * f - e * c) + c * (b * e - d * c)
    return a > 0 and det2 > 0 and det3 > 0


def _sym(six):
    xx, xy, xz, yy, yz, zz = six
    return ((xx, xy, xz), (xy, yy, yz), (xz, yz, zz))


def _check_metric(rows) -> list[str]:
    for i, row in enumerate(rows):
        x, y, z = row[0:3]
        closed, numeric = row[3:9], row[9:15]
        max_abs_err, scale_rel_err = row[15], row[16]
        if math.sqrt(x * x + y * y + z * z) > METRIC_MAX_NORM + 1e-12:
            return [f"point {i} lies outside the --max-norm ball"]
        if not (_leading_minors_positive(_sym(closed)) and _leading_minors_positive(_sym(numeric))):
            return [f"metric tensor not positive definite at point {i}"]
        err = max(abs(n - c) for n, c in zip(numeric, closed))
        scale = max(abs(c) for c in closed)
        if abs(err - max_abs_err) > 1e-11:
            return [f"max_abs_err {max_abs_err!r} disagrees with its tensors ({err!r}) at point {i}"]
        if abs(scale_rel_err - max_abs_err / scale) > 1e-9 * scale_rel_err + 1e-15:
            return [f"scale_rel_err {scale_rel_err!r} disagrees with max_abs_err/scale at point {i}"]
        if scale_rel_err > METRIC_SCALE_REL_MAX:
            return [f"scale_rel_err {scale_rel_err!r} above {METRIC_SCALE_REL_MAX:g} at point {i}"]
    return []


def perturbed_copies(text: str, inv, reference: dict):
    """Copies of ``text`` with one reference-checked value moved by 1e-9.

    Yields (column, copy), one per fixed-input column; the verifier must
    reject every copy.
    """
    ref = reference.get(inv.key)
    if ref is None:
        return
    lines = text.splitlines(keepends=True)
    data = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
    _, columns, _ = parse_csv(text)
    for name in ref["columns"]:
        col = columns.index(name)
        idx = data[len(data) // 2]
        fields = lines[idx].rstrip("\n").split(",")
        fields[col] = repr(float(fields[col]) + 1e-9)
        copy = lines[:]
        copy[idx] = ",".join(fields) + "\n"
        yield name, "".join(copy)
