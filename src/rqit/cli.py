"""Command-line front end: figure sweeps and geometry tables as CSV.

Output format: '# key=value' header lines capturing the full run
configuration, a '# columns=...' line, then comma-separated numeric rows
(12 significant digits, LF endings, UTF-8).  Re-running a fixed
configuration reproduces identical bytes; Monte-Carlo commands are pinned
by the seed.  Each figure is one sweep call over its whole grid, with the
Fock cutoff built once.

Exit codes: 0 success, 2 invalid arguments, 3 numeric failure
(truncation/positivity/size/chart, or a LAPACK routine's INFO), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import partial

import numpy as np

from . import __version__
from .channel import DEFAULT_TRUNCATION_TOL, FockCutoff, entangled_state
from .distinguishability import angle_sweep
from .entanglement import log_negativity, negativity_sweep
from .errors import RQITError
from .geometry import curvature_comparison, metric_cartesian, numeric_metric, scalar_curvature_numeric
from .teleportation import average_fidelity_exact, fidelity_sweep, run_protocol

CURVATURE_GEOMETRY = "cartesian_pullback"
H_OFFDIAG_SYMBOL = "xi_c"
# Largest xi grid, metric table and curvature grid (--grid squared) a command
# takes on; checked from the options before any work.
MAX_GRID_POINTS = 100_000


class UsageError(Exception):
    """Invalid command-line input detected after parsing."""


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _parse_grid(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must be min:max:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"grid {text!r} has non-numeric parts") from exc
    if not 0 <= lo <= hi < 1:
        raise UsageError(f"grid must satisfy 0 <= min <= max < 1, got {text!r}")
    if hi > lo and not 0 < step < math.inf:
        raise UsageError(f"grid step must be positive and finite, got {step}")
    if hi > lo and (hi - lo) / step + 1 > MAX_GRID_POINTS:
        raise UsageError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    return lo, hi, step


def _grid_values(grid: tuple[float, float, float]) -> np.ndarray:
    lo, hi, step = grid
    if hi == lo:
        return np.array([lo])
    count = int(round((hi - lo) / step)) + 1
    vals = lo + step * np.arange(count)
    return vals[vals <= hi + 1e-12]


def _write_csv(args, columns, rows, xi_grid=(0.0, 0.0, 0.0), **extras) -> None:
    """Write the run's header and rows to ``args.output``.

    The header has the same eight keys for every command, then ``extras``;
    an option the command does not take is written as 0 (the default
    tolerance for ``cutoff_tol``).
    """
    lo, hi, step = xi_grid
    items = [
        ("rqit_version", __version__),
        ("command", args.command),
        ("r", _fmt(getattr(args, "r", 0.0))),
        ("xi_grid", f"{_fmt(lo)}:{_fmt(hi)}:{_fmt(step)}"),
        ("cutoff_tol", _fmt(getattr(args, "cutoff_tol", DEFAULT_TRUNCATION_TOL))),
        ("samples", getattr(args, "samples", 0)),
        ("seed", getattr(args, "seed", 0)),
        ("output", args.output),
        *extras.items(),
    ]
    lines = [f"# {k}={v}" for k, v in items]
    lines.append("# columns=" + ",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _write_svg(path: str, xs, ys, xlabel: str, ylabel: str) -> None:
    """Minimal polyline rendering of one curve; no plotting dependency."""
    width, height, margin = 640, 480, 60
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0
    px = margin + (xs - x0) / xspan * (width - 2 * margin)
    py = height - margin - (ys - y0) / yspan * (height - 2 * margin)
    pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f'<rect x="{margin}" y="{margin}" width="{width-2*margin}" height="{height-2*margin}" '
        f'fill="none" stroke="black"/>\n'
        f'<polyline points="{pts}" fill="none" stroke="steelblue" stroke-width="1.5"/>\n'
        f'<text x="{width/2:.0f}" y="{height-15}" text-anchor="middle">{xlabel}</text>\n'
        f'<text x="18" y="{height/2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {height/2:.0f})">{ylabel}</text>\n'
        f'<text x="{margin}" y="{height-margin+18}" text-anchor="middle">{_fmt(x0)}</text>\n'
        f'<text x="{width-margin}" y="{height-margin+18}" text-anchor="middle">{_fmt(x1)}</text>\n'
        f'<text x="{margin-6}" y="{height-margin}" text-anchor="end">{_fmt(y0)}</text>\n'
        f'<text x="{margin-6}" y="{margin+4}" text-anchor="end">{_fmt(y1)}</text>\n'
        "</svg>\n"
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)


def _cutoff(args) -> FockCutoff:
    if getattr(args, "n_max", None):
        return FockCutoff(args.n_max, args.cutoff_tol)
    return FockCutoff.for_acceleration(args.r, args.cutoff_tol)


def _cmd_sweep(args, sweep, *columns: str) -> int:
    """fig1, fig2 and fig3: one ``sweep`` call over the grid, a CSV column per named field."""
    grid = _parse_grid(args.xi)
    xis = _grid_values(grid)
    cut = _cutoff(args)
    rows = [[x, *(getattr(p, c) for c in columns)] for x, p in zip(xis, sweep(args.r, xis, cut))]
    _write_csv(args, ["xi", *columns], rows, grid, n_max=cut.n_max)
    if args.svg:
        _write_svg(args.svg, xis, [row[1] for row in rows], "xi", columns[0])
    return 0


def _cmd_metric(args) -> int:
    if not 0 < args.max_norm <= 0.9:
        raise UsageError(f"--max-norm must lie in (0, 0.9], got {args.max_norm}")
    if args.points > MAX_GRID_POINTS:
        raise UsageError(f"--points must be <= {MAX_GRID_POINTS}, got {args.points}")
    rng = np.random.default_rng(args.seed)
    cols = ["x", "y", "z"]
    cols += [f"g_{c}" for c in ("xx", "xy", "xz", "yy", "yz", "zz")]
    cols += [f"gnum_{c}" for c in ("xx", "xy", "xz", "yy", "yz", "zz")]
    cols += ["max_abs_err", "scale_rel_err"]
    idx = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    rows = []
    for _ in range(args.points):
        v = rng.normal(size=3)
        v = v / np.linalg.norm(v) * rng.uniform(0.0, args.max_norm)
        closed = metric_cartesian(v, args.r).tensor
        numeric = numeric_metric(v, args.r).tensor
        err = float(np.max(np.abs(numeric - closed)))
        scale = float(np.max(np.abs(closed)))
        row = list(v) + [closed[i, j] for i, j in idx] + [numeric[i, j] for i, j in idx]
        row += [err, err / scale]
        rows.append(row)
    _write_csv(args, cols, rows, points=args.points, max_norm=_fmt(args.max_norm))
    return 0


def _cmd_curvature(args) -> int:
    if not 2 <= args.grid <= math.isqrt(MAX_GRID_POINTS):
        raise UsageError(f"--grid must lie in [2, {math.isqrt(MAX_GRID_POINTS)}], got {args.grid}")
    xi_vals = np.linspace(0.2, 0.8, args.grid)
    th_vals = np.linspace(0.4, math.pi - 0.4, args.grid)
    points = [(xi, th) for xi in xi_vals for th in th_vals]
    rows = [(*c.point, c.numeric_R, c.closed_form_R, c.discrepancy)
            for c in curvature_comparison(points, args.r)]
    _write_csv(args, ["xi_c", "theta", "numeric_R", "closed_form_R", "discrepancy"], rows,
               grid=args.grid, curvature_geometry=CURVATURE_GEOMETRY, h_offdiag_symbol=H_OFFDIAG_SYMBOL)
    return 0


def _cmd_validate(args) -> int:
    checks = []

    def add(name, value, reference, tol):
        checks.append((name, float(value), float(reference), tol))

    cut0 = FockCutoff.for_acceleration(0.0, args.cutoff_tol)
    add("bell_log_negativity", log_negativity(entangled_state(0.0, 0.0, cut0)), 1.0, 1e-10)
    cut6 = FockCutoff.for_acceleration(0.6, args.cutoff_tol)
    add("state_trace", entangled_state(0.5, 0.6, cut6).trace().real, 1.0, 1e-10)
    ideal = run_protocol((1 / math.sqrt(2), 1j / math.sqrt(2)), 0.0, 0.0)
    psi = np.zeros(ideal.dim, dtype=complex)
    psi[0], psi[1] = 1 / math.sqrt(2), 1j / math.sqrt(2)
    add("ideal_teleportation", (psi.conj() @ ideal.entries @ psi).real, 1.0, 1e-10)
    add("exact_fidelity_bell", average_fidelity_exact(0.0, 0.0), 1.0, 1e-12)
    sweep0 = angle_sweep(0.0, [0.0])
    add("orthogonal_angle", sweep0[0].theta, math.pi / 2, 1e-10)
    add("metric_origin", numeric_metric((0, 0, 0), 0.0).tensor[0, 0], 0.25, 1e-6)
    add("flat_curvature", scalar_curvature_numeric(0.5, math.pi / 2, 0.0), 24.0, 1e-3)
    en1 = log_negativity(entangled_state(0.0, 0.6, cut6))
    en2 = log_negativity(entangled_state(0.0, 0.6, cut6.doubled()))
    add("cutoff_doubling_shift", en1 - en2, 0.0, 1e-8)

    rows = []
    all_ok = True
    for name, value, reference, tol in checks:
        ok = abs(value - reference) <= tol
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {value:.12g} (want {reference:.12g} +- {tol:g})")
        rows.append((value, reference, abs(value - reference), tol, 1.0 if ok else 0.0))
    cols = ["value", "reference", "abs_error", "tolerance", "ok"]
    if args.output != "-":
        _write_csv(args, cols, rows)
    return 0 if all_ok else 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rqit",
        description="Accelerated-observer qubit toolkit: figure sweeps and geometry tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, r_default, xi_default="0:0.95:0.01"):
        p.add_argument("--r", type=float, default=r_default, help="acceleration (squeezing) parameter")
        p.add_argument("--xi", default=xi_default, help="orthogonality grid min:max:step")
        p.add_argument("--cutoff-tol", type=float, default=1e-12, help="Fock truncation tolerance")
        p.add_argument("--n-max", type=int, default=0, help="override the Fock cutoff level")
        p.add_argument("-o", "--output", default="-", help="CSV path ('-' for stdout)")
        p.add_argument("--svg", default="", help="also render the curve to this SVG path")

    p1 = sub.add_parser("fig1", help="log-negativity sweep over xi (columns: xi,log_negativity)")
    common(p1, 0.6)
    p1.set_defaults(func=lambda args: _cmd_sweep(args, negativity_sweep, "log_negativity"))

    p2 = sub.add_parser(
        "fig2", help="average teleportation fidelity over xi (columns: xi,fidelity_mc,std_err,fidelity_exact)"
    )
    common(p2, 0.6)
    p2.add_argument("--samples", type=int, default=200_000, help="Monte-Carlo sample count")
    p2.add_argument("--seed", type=int, default=42, help="Monte-Carlo seed")
    p2.set_defaults(func=lambda args: _cmd_sweep(
        args, partial(fidelity_sweep, samples=args.samples, seed=args.seed),
        "fidelity_mc", "std_err", "fidelity_exact"))

    p3 = sub.add_parser("fig3", help="Bures-angle sweep over xi (columns: xi,theta)")
    common(p3, 0.85)
    p3.set_defaults(func=lambda args: _cmd_sweep(args, angle_sweep, "theta"))

    pm = sub.add_parser(
        "metric", help="closed-form vs numeric metric at random interior points"
    )
    pm.add_argument("--r", type=float, default=0.05)
    pm.add_argument("--points", type=int, default=20)
    pm.add_argument("--seed", type=int, default=0)
    pm.add_argument("--max-norm", type=float, default=0.7)
    pm.add_argument("-o", "--output", default="-")
    pm.set_defaults(func=_cmd_metric)

    pc = sub.add_parser(
        "curvature", help="numeric vs closed-form scalar curvature on a polar grid"
    )
    pc.add_argument("--r", type=float, default=0.1)
    pc.add_argument("--grid", type=int, default=5, help="grid points per polar axis")
    pc.add_argument("-o", "--output", default="-")
    pc.set_defaults(func=_cmd_curvature)

    pv = sub.add_parser("validate", help="run fast self-checks and report pass/fail")
    pv.add_argument("--cutoff-tol", type=float, default=1e-12)
    pv.add_argument("-o", "--output", default="-")
    pv.set_defaults(func=_cmd_validate)
    return parser


def _check_args(args) -> None:
    """Reject out-of-range option values before any work starts."""
    r = getattr(args, "r", 0.0)
    if not (math.isfinite(r) and r >= 0):
        raise UsageError(f"--r must be finite and >= 0, got {r}")
    tol = getattr(args, "cutoff_tol", DEFAULT_TRUNCATION_TOL)
    if not 0 < tol < 1:
        raise UsageError(f"--cutoff-tol must lie in (0, 1), got {tol}")
    for name, minimum in (("n_max", 0), ("samples", 1), ("seed", 0), ("points", 1)):
        value = getattr(args, name, minimum)
        if value < minimum:
            flag = "--" + name.replace("_", "-")
            raise UsageError(f"{flag} must be >= {minimum}, got {value}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_args(args)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RQITError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
