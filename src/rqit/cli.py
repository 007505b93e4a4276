"""Command-line front end: figure sweeps and geometry tables as CSV.

Output format: '# key=value' header lines capturing the full run
configuration, a '# columns=...' line, then comma-separated numeric rows
(12 significant digits, LF endings, UTF-8).  Re-running a fixed
configuration reproduces identical bytes; Monte Carlo (fig2 --samples) is
pinned by the seed.  Each figure is one sweep call over its whole grid; fig1
and fig3 build their Fock cutoff once, and fig2 reads Fock levels {0, 1}
only, so it takes no cutoff; without --samples it draws no sample.

Exit codes: 0 success, 2 invalid arguments, 3 numeric failure
(truncation/positivity/size/chart, or a LAPACK routine's INFO), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys

import numpy as np

from . import __version__
from .channel import (DEFAULT_TRUNCATION_TOL, MIN_TRUNCATION_TOL, FockCutoff, _as_accel, _encoding_amplitudes,
                      _shared_etas, _shared_weights, _towers, _unit_trace_atol, _xi_array, unruh_one_particle_amplitudes)
from .distinguishability import angle_sweep
from .entanglement import negativity_sweep
from .errors import RQITError
from .geometry import metric_cartesian, numeric_metric, scalar_curvature_closed_form, scalar_curvature_numeric
from .teleportation import _fidelity_columns, average_fidelity_exact, fidelity_sweep

CURVATURE_GEOMETRY = "cartesian_pullback"
H_OFFDIAG_SYMBOL = "xi_c"
# Largest xi grid, metric table and curvature grid (--grid squared) a command
# takes on; checked from the options before any work.
MAX_GRID_POINTS = 100_000
# validate's fig1 at xi = 0.5, r = 0.6 (the double nearest 0.6), n_max 24: log2 ||rho^Gamma||_1
# from the Minkowski amplitudes in 50-digit mpmath (tests/oracles.py, mp_log_negativity)
FIG1_XI05_R06_N24 = "0.6366301750435001267699338136836555022648"
# validate's fig3 at xi = 0.3, r = 0.85 (the doubles nearest both), n_max 41: the Bures angle from the
# Minkowski amplitudes in 50-digit mpmath (tests/oracles.py, mp_bures_angle)
FIG3_XI03_R085_N41 = "1.008335629061860469773807352359329686466"
# CSV rows formatted and written at a time, so the text in memory stays that of a block
_CSV_BLOCK = 4096


class UsageError(Exception):
    """Invalid command-line input detected after parsing."""


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _parse_grid(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must be min:max:step, got {text!r}")
    try:
        lo, hi, step = (float(p) + 0.0 for p in parts)  # + 0.0 reads -0 as 0
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
    return vals[(vals <= hi + 1e-12) & (vals < 1.0)]  # the slack keeps a rounded max, never xi = 1


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
        ("samples", getattr(args, "samples", None) or 0),
        ("seed", getattr(args, "seed", 0)),
        ("output", args.output),
        *extras.items(),
    ]
    head = "".join(f"# {k}={v}\n" for k, v in items) + "# columns=" + ",".join(columns) + "\n"
    # one %-template a row gives the bytes of _fmt on each value, nan, inf and -0 included
    template = ",".join(["%.12g"] * len(columns)) + "\n"
    with (contextlib.nullcontext(sys.stdout) if args.output == "-"
          else open(args.output, "w", encoding="utf-8", newline="\n")) as fh:
        fh.write(head)
        for lo in range(0, len(rows), _CSV_BLOCK):
            fh.write("".join([template % tuple(row) for row in rows[lo:lo + _CSV_BLOCK]]))


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
    """The Fock cutoff of fig1 and fig3.  For fig2, which takes no cutoff
    options, the one the full shared state would need at the default
    tolerance; only its ``n_max`` header reads it."""
    tol = getattr(args, "cutoff_tol", DEFAULT_TRUNCATION_TOL)
    if getattr(args, "n_max", 0):
        return FockCutoff(args.n_max, tol)
    return FockCutoff.for_acceleration(args.r, tol)


def _cmd_sweep(args, sweep, *columns: str) -> int:
    """fig1, fig2 and fig3: one ``sweep(r, xis, cutoff)`` call over the grid, a CSV column per named field."""
    grid = _parse_grid(args.xi)
    xis = _grid_values(grid)
    cut = _cutoff(args)
    rows = [[x, *(getattr(p, c) for c in columns)] for x, p in zip(xis, sweep(args.r, xis, cut))]
    _write_csv(args, ["xi", *columns], rows, grid, n_max=cut.n_max)
    if args.svg:
        _write_svg(args.svg, xis, [row[1] for row in rows], "xi", columns[0])
    return 0


def _cmd_fig2(args) -> int:
    if args.samples is None:  # fidelity_exact and sigma, one array expression over the grid: no sample drawn
        return _cmd_sweep(args, lambda r, xis, _cut: np.rec.fromarrays(
            _fidelity_columns(_xi_array(xis), r), names="fidelity_exact,sigma"), "fidelity_exact", "sigma")
    return _cmd_sweep(args, lambda r, xis, _cut: fidelity_sweep(r, xis, samples=args.samples, seed=args.seed),
                      "fidelity_mc", "std_err", "fidelity_exact")


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
    points = np.empty((args.points, 3))
    for k in range(args.points):
        v = rng.normal(size=3)
        points[k] = v / np.linalg.norm(v) * rng.uniform(0.0, args.max_norm)
    closed = metric_cartesian(points, args.r).tensor
    numeric = numeric_metric(points, args.r).tensor
    err = np.max(np.abs(numeric - closed), axis=(1, 2))
    scale = np.max(np.abs(closed), axis=(1, 2))
    i, j = np.triu_indices(3)
    rows = np.column_stack([points, closed[:, i, j], numeric[:, i, j], err, err / scale])
    _write_csv(args, cols, rows, points=args.points, max_norm=_fmt(args.max_norm))
    return 0


def _cmd_curvature(args) -> int:
    if not 2 <= args.grid <= math.isqrt(MAX_GRID_POINTS):
        raise UsageError(f"--grid must lie in [2, {math.isqrt(MAX_GRID_POINTS)}], got {args.grid}")
    xi = np.repeat(np.linspace(0.2, 0.8, args.grid), args.grid)
    th = np.tile(np.linspace(0.4, math.pi - 0.4, args.grid), args.grid)
    numeric = scalar_curvature_numeric(xi, th, args.r)
    closed = scalar_curvature_closed_form(xi, th, args.r)
    rows = np.column_stack([xi, th, numeric, closed, numeric - closed])
    _write_csv(args, ["xi_c", "theta", "numeric_R", "closed_form_R", "discrepancy"], rows,
               grid=args.grid, curvature_geometry=CURVATURE_GEOMETRY, h_offdiag_symbol=H_OFFDIAG_SYMBOL)
    return 0


def _cmd_validate(args) -> int:
    checks = []

    def add(name, value, reference, tol):
        checks.append((name, float(value), float(reference), tol))

    cut0 = FockCutoff.for_acceleration(0.0, args.cutoff_tol)
    add("bell_log_negativity", negativity_sweep(0.0, [0.0], cut0)[0].log_negativity, 1.0, 1e-10)
    cut6 = FockCutoff.for_acceleration(0.6, args.cutoff_tol)
    # the cutoff rule from the dropped one-particle terms d_n^2 themselves: the first
    # level (16 at least) whose tail sum_{n > N} d_n^2 is at most tol
    d2 = (unruh_one_particle_amplitudes(0.6, cut6.doubled()) ** 2).tolist()
    first = next(n for n in range(len(d2)) if math.fsum(d2[n + 1:]) <= cut6.tol)
    add("cutoff_one_particle_tail", max(16, first), cut6.n_max, 0)
    # fig1's band terms at xi = 0.5: their trace sum_n w_n |v_n|^2 plus the dropped trace fig1 checks
    eta = _shared_etas(np.array([0.5, 0.0]))
    w, ws, wss, dropped = _towers(0.6, cut6, _shared_weights(eta), "shared-state")
    trace = float(np.sum(eta[0] ** 2 @ np.array([w, w, wss, wss])))
    add("state_trace", trace + dropped[0], 1.0, _unit_trace_atol(cut6.n_max))
    add("exact_fidelity_bell", average_fidelity_exact(0.0, 0.0), 1.0, 1e-12)
    sweep0 = angle_sweep(0.0, [0.0])
    add("orthogonal_angle", sweep0[0].theta, math.pi / 2, 1e-10)
    add("metric_origin", numeric_metric((0, 0, 0), 0.0).tensor[0, 0], 0.25, 1e-12)
    add("flat_curvature", scalar_curvature_numeric(0.5, math.pi / 2, 0.0), 24.0, 1e-3)
    # at xi = 0 rho^Gamma is 4 w_0 and blocks 4 [[w_{m-1} s_{m-1}^2, w_m s_m], [w_m s_m, w_{m+1}]] (PRL 95, 120404),
    # m = 0..n_max + 2, with w_m = 0 above n_max
    w, ws, wss = (np.append(x, (0.0, 0.0)) for x in (w, ws, wss))
    a, b, d = 4 * np.roll(wss, 1), 4 * ws, 4 * np.append(w[1:], 0.0)
    exact = math.log2(4 * w[0] + np.sum(np.maximum(a + d, np.hypot(a - d, 2 * b))))
    en1, en2 = (negativity_sweep(0.6, [0.0], cut)[0].log_negativity for cut in (cut6, cut6.doubled()))
    add("fig1_xi0_closed_form", en1, exact, 1e-14)
    # doubling adds terms Delta >= 0 with a qubit factor: ||Delta^Gamma||_1 <= 2 tr Delta <= 2 D, D the trace
    # beyond n_max, and both trace norms are >= 1 - D; rounding takes the unit-trace rule at 2 n_max
    add("cutoff_doubling_shift", en1 - en2, 0.0,
        2 * dropped[1] / ((1 - dropped[1]) * math.log(2)) + _unit_trace_atol(2 * cut6.n_max))
    add("fig1_xi05_exact", negativity_sweep(0.6, [0.5], FockCutoff(24))[0].log_negativity,
        float(FIG1_XI05_R06_N24), 1e-14)
    # doubling appends columns E, G to angle_sweep's A_+, A_phi: M' = [[M, A_+^T G], [E^T A_phi, E^T G]]; the
    # corners are single entries |b_+ a_phi|, |a_+ b_phi| times c_{N+1} d_N and ||E^T G||_1 <= ||E||_F ||G||_F, the
    # root of the dropped traces of the images of |+> and |phi> that angle_sweep checks (``_towers``), with
    # c_{N+1} d_N = 8 tanh r w_N s_N; with the unit-trace rule for rounding that bounds |dF|, and
    # |dtheta| <= |dF| / sin theta at the larger F
    a85, cut85 = _as_accel(0.85), FockCutoff.for_acceleration(0.85, args.cutoff_tol)
    th1, th2 = (angle_sweep(a85, [0.3], cut)[0].theta for cut in (cut85, cut85.doubled()))
    h, a2, b2 = _encoding_amplitudes(0.3)
    _, ws, _, dropped = _towers(a85, cut85, [(h * h, h * h), (a2 * a2, b2 * b2)], "channel image")
    corners = h * (abs(a2) + abs(b2)) * 8 * a85.T * ws[-1]
    tails = math.sqrt(dropped[0] * dropped[1])
    add("fig3_cutoff_doubling_shift", th1 - th2, 0.0,
        (corners + tails + _unit_trace_atol(2 * cut85.n_max)) / math.sin(min(th1, th2)))
    add("fig3_xi03_exact", angle_sweep(a85, [0.3], FockCutoff(41))[0].theta, float(FIG3_XI03_R085_N41), 1e-14)
    mc, = fidelity_sweep(0.6, [0.4], samples=200_000, seed=0)
    add("mc_fidelity_shift", mc.fidelity_mc - mc.fidelity_exact, 0.0, 5 * mc.std_err)

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


@functools.cache  # built once a process: parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rqit",
        description="Accelerated-observer qubit toolkit: figure sweeps and geometry tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, r_default, xi_default="0:0.95:0.01", fock=True):
        p.add_argument("--r", type=float, default=r_default, help="acceleration (squeezing) parameter")
        p.add_argument("--xi", default=xi_default, help="orthogonality grid min:max:step")
        if fock:
            p.add_argument("--cutoff-tol", type=float, default=1e-12, help="Fock truncation tolerance")
            p.add_argument("--n-max", type=int, default=0, help="override the Fock cutoff level")
        p.add_argument("-o", "--output", default="-", help="CSV path ('-' for stdout)")
        p.add_argument("--svg", default="", help="also render the curve to this SVG path")

    p1 = sub.add_parser("fig1", help="log-negativity sweep over xi (columns: xi,log_negativity)")
    common(p1, 0.6)
    p1.set_defaults(func=lambda args: _cmd_sweep(args, negativity_sweep, "log_negativity"))

    p2 = sub.add_parser("fig2", help="average teleportation fidelity over xi (columns: xi,fidelity_exact,sigma; "
                                     "with --samples: xi,fidelity_mc,std_err,fidelity_exact)")
    common(p2, 0.6, fock=False)
    p2.add_argument("--samples", type=int, help="Monte-Carlo sample count (default: none drawn)")
    p2.add_argument("--seed", type=int, default=42, help="Monte-Carlo seed")
    p2.set_defaults(func=_cmd_fig2)

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
    """Reject out-of-range option values before any work starts, and read an
    --r of -0 as 0, so that both print the same bytes."""
    r = getattr(args, "r", 0.0)
    if not (math.isfinite(r) and r >= 0):
        raise UsageError(f"--r must be finite and >= 0, got {r}")
    if hasattr(args, "r"):
        args.r = r + 0.0
    tol = getattr(args, "cutoff_tol", DEFAULT_TRUNCATION_TOL)
    if not MIN_TRUNCATION_TOL <= tol < 1:
        raise UsageError(f"--cutoff-tol must lie in [{MIN_TRUNCATION_TOL!r}, 1), got {tol}")
    for name, minimum in (("n_max", 0), ("samples", 1), ("seed", 0), ("points", 1)):
        value = getattr(args, name, None)
        if value is not None and value < minimum:
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
