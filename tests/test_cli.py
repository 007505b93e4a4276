import contextlib
import importlib.util
import io
import math
import re
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rqit import cli, geometry, teleportation
from rqit.cli import main


def run_cli(args):
    return main(args)


def read_csv(path):
    header, rows = {}, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                header[key] = value
            else:
                rows.append([float(x) for x in line.split(",")])
    return header, rows


def test_fig3_trivial_row(tmp_path):
    out = tmp_path / "fig3.csv"
    assert run_cli(["fig3", "--r", "0", "--xi", "0:0:1", "-o", str(out)]) == 0
    header, rows = read_csv(out)
    assert header["command"] == "fig3"
    assert header["columns"] == "xi,theta"
    assert len(rows) == 1
    assert rows[0][1] == pytest.approx(math.pi / 2, abs=1e-10)


def test_fig1_columns_and_grid(tmp_path):
    out = tmp_path / "fig1.csv"
    assert run_cli(["fig1", "--r", "0.6", "--xi", "0:0.1:0.02", "-o", str(out)]) == 0
    header, rows = read_csv(out)
    assert header["columns"] == "xi,log_negativity"
    assert header["r"] == "0.6"
    assert "n_max" in header
    assert len(rows) == 6
    assert rows[0][1] == pytest.approx(0.6461686715, abs=1e-8)


def test_fig2_columns(tmp_path):
    out = tmp_path / "fig2.csv"
    code = run_cli(
        ["fig2", "--r", "0.3", "--xi", "0:0.04:0.04", "--samples", "4000", "--seed", "42", "-o", str(out)]
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header["columns"] == "xi,fidelity_mc,std_err,fidelity_exact"
    assert header["samples"] == "4000" and header["seed"] == "42"
    for xi, mc, se, exact in rows:
        assert abs(mc - exact) < 5 * se


def test_fig2_reaches_large_r(tmp_path):
    # fig2 reads Fock levels {0, 1} only; its n_max header is the cutoff the
    # full shared state would need (above 3e9 at r = 10), found in closed form
    for r, n_max in (("3", 3136), ("5", 171_254), ("10", 3_772_144_013)):
        out = tmp_path / f"fig2-{r}.csv"
        assert run_cli(["fig2", "--r", r, "--xi", "0.4:0.4:0", "--samples", "2000", "-o", str(out)]) == 0
        header, rows = read_csv(out)
        assert header["n_max"] == str(n_max) and header["cutoff_tol"] == "1e-12"
        (xi, mc, se, exact), = rows
        assert abs(mc - exact) <= 5 * se


def test_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["fig2", "--r", "0.2", "--xi", "0:0.02:0.02", "--samples", "2000", "--seed", "7"]
    assert run_cli(args + ["-o", str(a)]) == 0
    assert run_cli(args + ["-o", str(b)]) == 0
    assert a.read_bytes().replace(str(a).encode(), b"") == b.read_bytes().replace(
        str(b).encode(), b""
    )


def test_svg_emission(tmp_path):
    out, svg = tmp_path / "f.csv", tmp_path / "f.svg"
    assert run_cli(["fig1", "--r", "0.4", "--xi", "0:0.2:0.05", "-o", str(out), "--svg", str(svg)]) == 0
    text = svg.read_text(encoding="utf-8")
    assert text.startswith("<svg") and "polyline" in text


def test_metric_command(tmp_path):
    out = tmp_path / "metric.csv"
    assert run_cli(["metric", "--r", "0.05", "--points", "5", "--seed", "3", "-o", str(out)]) == 0
    header, rows = read_csv(out)
    assert len(rows) == 5
    cols = header["columns"].split(",")
    rel = [row[cols.index("scale_rel_err")] for row in rows]
    assert max(rel) < 0.05


def test_curvature_command(tmp_path):
    out = tmp_path / "curv.csv"
    assert run_cli(["curvature", "--r", "0", "--grid", "2", "-o", str(out)]) == 0
    header, rows = read_csv(out)
    assert header["curvature_geometry"] == "cartesian_pullback"
    assert header["h_offdiag_symbol"] == "xi_c"
    for _, _, numeric, closed, disc in rows:
        assert numeric == pytest.approx(24.0, abs=1e-3)
        assert closed == pytest.approx(24.0, abs=1e-12)
        # CSV stores 12 significant digits, so recomputed differences agree
        # only to the rounding of the printed values
        assert disc == pytest.approx(numeric - closed, abs=1e-9)


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "name, argv",
    [
        ("metric-r0.05-points20-seed1.csv", ["metric", "--r", "0.05", "--points", "20", "--seed", "1"]),
        ("metric-default.csv", ["metric"]),
        ("curvature-default.csv", ["curvature"]),
        ("curvature-r0.3-grid9.csv", ["curvature", "--r", "0.3", "--grid", "9"]),
    ],
)
@pytest.mark.parametrize("block", [None, 7])
def test_geometry_tables_match_golden_bytes(name, argv, block, tmp_path, monkeypatch):
    # the curvature golden files were written by the per-point implementation,
    # the metric ones by the eigenbasis form of ``numeric_metric``; the size
    # of the blocks a table is evaluated in changes no byte
    if block is not None:
        monkeypatch.setattr(geometry, "_BLOCK", block)
    assert_golden_bytes(name, argv, tmp_path)


@pytest.mark.parametrize(
    "name, argv",
    [
        ("fig2-samples1000-seed42.csv", ["fig2", "--samples", "1000", "--seed", "42"]),
        ("fig2-r10-samples1-seed3.csv", ["fig2", "--r", "10", "--samples", "1", "--seed", "3"]),
    ],
)
def test_fig2_tables_match_golden_bytes(name, argv, tmp_path):
    # written before the teleportation kit was built from the Schmidt
    # vectors; the Monte-Carlo and exact columns must keep every byte
    assert_golden_bytes(name, argv, tmp_path)


@pytest.mark.parametrize(
    "name, argv", [("fig1-default.csv", ["fig1"]), ("fig3-default.csv", ["fig3"])],
)
def test_band_figure_tables_match_golden_bytes(name, argv, tmp_path):
    # before these files only the benchmark's 1e-10 reference guarded fig1
    # and fig3; test_fallback_csv_is_byte_identical holds the dense fallback
    # to the same bytes
    assert_golden_bytes(name, argv, tmp_path)


def assert_golden_bytes(name, argv, tmp_path):
    # only the '# output=' line, which names the path written, may differ
    out = tmp_path / name
    assert run_cli([*argv, "-o", str(out)]) == 0

    def body(path):
        return [line for line in path.read_bytes().split(b"\n") if not line.startswith(b"# output=")]

    assert body(out) == body(GOLDEN / name)


def test_cached_parser_carries_nothing_between_calls(tmp_path):
    # ``main`` builds its parser once a process: the options of one call must
    # not reach the values or defaults of the next
    assert cli._build_parser() is cli._build_parser()
    runs = [
        ["metric", "--r", "0.2", "--points", "3", "--seed", "5", "--max-norm", "0.5"],
        ["curvature", "--r", "0.05", "--grid", "2"],
        ["metric", "--points", "2"],
        ["curvature", "--grid", "2"],
    ]
    bodies = []
    for k, argv in enumerate(runs * 2):
        fresh = vars(cli._build_parser.__wrapped__().parse_args(argv))
        assert vars(cli._build_parser().parse_args(argv)) == fresh
        out = tmp_path / f"{k}.csv"
        assert run_cli([*argv, "-o", str(out)]) == 0
        header, rows = read_csv(out)
        del header["output"]
        bodies.append((header, rows))
    assert bodies[:4] == bodies[4:]
    metric, curvature = bodies[2][0], bodies[3][0]
    assert (metric["r"], metric["seed"], metric["max_norm"], metric["points"]) == ("0.05", "0", "0.7", "2")
    assert (curvature["r"], curvature["grid"]) == ("0.1", "2") and "points" not in curvature


def test_validate_command(tmp_path, capsys):
    out = tmp_path / "validate.csv"
    assert run_cli(["validate", "-o", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.count("PASS") == 8 and "FAIL" not in stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["fig1", "--xi", "0:0.5:-0.1"],
        ["fig1", "--xi", "0:0.9:inf", "--svg", "never-written.svg"],
        ["fig1", "--xi", "nonsense"],
        ["fig1", "--xi", "0:1:0.5"],
        ["fig1", "--r", "nan"],
        ["fig1", "--r", "inf"],
        ["fig1", "--n-max", "-3"],
        ["fig1", "--cutoff-tol", "0"],
        ["fig2", "--seed", "-1"],
        ["metric", "--points", "-1"],
        ["fig3", "--xi", "0:0.5:1e-9"],
        ["curvature", "--grid", "100000"],
        ["metric", "--points", "1000000000"],
    ],
    ids=["grid-step", "grid-step-inf", "grid-syntax", "grid-xi-one", "r-nan", "r-inf", "n-max-negative",
         "cutoff-tol-zero", "seed-negative", "points-negative", "grid-too-many-points",
         "curvature-grid-too-many-points", "metric-too-many-points"],
)
def test_invalid_input_exits_2(argv, capsys):
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["metric", "--cutoff-tol", "1e-3"],
        ["curvature", "--cutoff-tol", "1e-3"],
        ["fig2", "--cutoff-tol", "1e-3"],
        ["fig2", "--n-max", "4"],
    ],
    ids=["metric", "curvature", "fig2", "fig2-n-max"],
)
def test_commands_without_fock_cutoff_reject_cutoff_tol(argv, capsys):
    # metric and curvature build no Fock tower, and fig2 reads levels {0, 1}
    # only, which no cutoff changes, so a cutoff option would change nothing
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert argv[1] in capsys.readouterr().err


_HEADER_KEYS = ["rqit_version", "command", "r", "xi_grid", "cutoff_tol", "samples", "seed", "output"]


@pytest.mark.parametrize(
    "argv, extras",
    [
        (["fig1", "--xi", "0:0:1"], ["n_max"]),
        (["fig2", "--xi", "0:0:1", "--samples", "10"], ["n_max"]),
        (["fig3", "--xi", "0:0:1"], ["n_max"]),
        (["metric", "--points", "1"], ["points", "max_norm"]),
        (["curvature", "--grid", "2"], ["grid", "curvature_geometry", "h_offdiag_symbol"]),
        (["validate"], []),
    ],
    ids=["fig1", "fig2", "fig3", "metric", "curvature", "validate"],
)
def test_header_keys_and_order(argv, extras, tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert run_cli(argv + ["-o", str(out)]) == 0
    keys = [line[2:].partition("=")[0] for line in out.read_text(encoding="utf-8").splitlines()
            if line.startswith("# ")]
    assert keys == _HEADER_KEYS + extras + ["columns"]
    header, _ = read_csv(out)
    assert header["command"] == argv[0] and header["output"] == str(out)
    assert header["cutoff_tol"] == "1e-12"  # the default, also where the command takes no tolerance
    if argv[0] in ("metric", "curvature", "validate"):
        assert header["xi_grid"] == "0:0:0"


@pytest.mark.parametrize(
    "argv",
    [
        ["fig1", "--r", "0.9", "--n-max", "4", "--xi", "0:0:1"],
        ["fig1", "--r", "1000", "--n-max", "50", "--xi", "0:0:1"],
        ["fig2", "--r", "1000", "--xi", "0:0:1", "--samples", "10"],
        ["fig3", "--r", "1000", "--n-max", "50", "--xi", "0:0:1"],
        ["metric", "--r", "1000", "--points", "2"],
        ["curvature", "--r", "400"],
        ["fig3", "--r", "0.85", "--n-max", "3", "--cutoff-tol", "0.9", "--xi", "0.3:0.3:0"],
        # no cutoff exists at r = 20, and the run is over the fig2 work bound too
        ["fig2", "--r", "20", "--samples", "60000000"],
    ],
    ids=["cutoff-too-small", "fig1-r-1000", "fig2-r-1000", "fig3-r-1000", "metric-r-1000",
         "curvature-r-400", "fig3-image-trace", "fig2-no-cutoff-and-over-work-bound"],
)
def test_numeric_failure_exits_3(argv, capsys):
    # a cutoff far too small for the acceleration (at r = 1000 tanh r rounds to 1),
    # or an r above channel.MAX_R
    assert run_cli(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and err.count("\n") == 1


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_monte_carlo_term_exits_3(bad, monkeypatch, capsys):
    # a term the exact sum cannot bin is a numeric failure, not a NaN in the CSV
    def poisoned(q, stream, out):
        out[:] = 0.5
        out[-1] = bad

    monkeypatch.setattr(teleportation, "_draw_form_values", poisoned)
    assert run_cli(["fig2", "--xi", "0.4:0.4:0", "--samples", "100"]) == 3
    err = capsys.readouterr().err
    assert err == "numeric failure: a Monte-Carlo sum met an infinity or a NaN\n"


def test_non_diagonal_fidelity_form_exits_3(monkeypatch, capsys):
    # the sampler reads only the diagonal of Q, so a form it would misread is refused
    exact_form = teleportation._bloch_form

    def skewed(e):
        q = exact_form(e).copy()
        q[0, 2] += 1e-6
        return q

    monkeypatch.setattr(teleportation, "_bloch_form", skewed)
    assert run_cli(["fig2", "--xi", "0.4:0.4:0", "--samples", "100"]) == 3
    err = capsys.readouterr().err
    assert err == "numeric failure: the Bloch form of the fidelity is not diagonal, as the sampler needs\n"


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["fig1", "--r", "4", "--xi", "0.4:0.4:0"], "negativity_sweep needs n_max^2 x points"),
        (["fig3", "--r", "4", "--xi", "0.4:0.4:0"], "angle_sweep needs n_max^2 x points"),
        (["fig1", "--r", "20"], "tanh r rounds to 1"),
        # the most samples the work bound admits on one point, (1e8 - 3000), still
        # exceed the memory budget
        (["fig2", "--xi", "0.4:0.4:0", "--samples", "99997000"], "Monte-Carlo overlaps needs"),
        (["fig2", "--samples", "60000000"], "over the Monte-Carlo work bound"),
        (["fig2", "--xi", "0:0.99999:0.00001", "--samples", "1000"], "over the Monte-Carlo work bound"),
        (["fig2", "--xi", "0:0.99999:0.00001", "--samples", "1"], "over the Monte-Carlo work bound"),
    ],
    ids=["fig1-state-over-budget", "fig3-qubit-over-budget",
         "tanh-rounds-to-one", "fig2-samples-over-budget", "fig2-work-over-budget",
         "fig2-points-over-work-bound", "fig2-points-over-work-bound-one-sample"],
)
def test_size_limit_exits_3(argv, reason, capsys):
    # refused from n_max or the sample count before any large array exists,
    # so it ends at once
    start = time.perf_counter()
    assert run_cli(argv) == 3
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and err.count("\n") == 1
    assert reason in err


def test_fig2_builds_one_channel_per_point(monkeypatch, tmp_path):
    calls = Counter()

    def counted(name, inner):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in ("_channel_blocks", "average_fidelity_mc"):
        monkeypatch.setattr(teleportation, name, counted(name, getattr(teleportation, name)))
    assert run_cli(["fig2", "--xi", "0:0.8:0.2", "--samples", "10", "-o", str(tmp_path / "f.csv")]) == 0
    assert calls == {"_channel_blocks": 5, "average_fidelity_mc": 5}


def test_io_failure_exits_4(tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "f.csv"
    assert run_cli(["fig1", "--r", "0.4", "--xi", "0:0:1", "-o", str(target)]) == 4


def test_benchmark_traced_functions_resolve():
    # perfbench/run.py --trace 1 wraps these names; each must still exist in rqit
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for entry in tracer.FUNCTIONS:
        module, name = entry.split(".")
        assert callable(getattr(importlib.import_module("rqit." + module), name)), entry


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "rqit.cli", "fig3", "--r", "0", "--xi", "0:0:1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "columns=xi,theta" in proc.stdout




_BAD = st.sampled_from(["nan", "inf", "-inf", "1e999", "abc", "", "0x10", "1,5"])
_NEGATIVE = st.floats(max_value=0, exclude_max=True).map(repr)
# name: (values the command accepts, values it must reject).  The accepted ones
# are cheap: r <= 1.5 and cutoff-tol >= 1e-14 keep n_max near 200 at most, and
# no grid, sample count or table is large.
_OPTIONS = {
    "--r": (st.floats(0, 1.5).map(repr), st.one_of(_NEGATIVE, _BAD)),
    "--xi": (
        st.one_of(
            st.builds(lambda lo, span, n: f"{lo!r}:{lo + span!r}:{max(span, 1e-3) / n!r}",
                      st.floats(0, 0.9), st.floats(0, 0.09), st.integers(1, 20)),
            st.sampled_from(["0:0:1", "0.5:0.5:0", "0:0.9:1e300"]),
        ),
        st.sampled_from(["0:1:0.5", "0.5:0.1:0.1", "nan:0.5:0.1", "0:0.5:nan", "0:0.9:1e-300", "0:0.9:inf",
                         "1:1:0", "a:b:c", "0:0.5", "-0.1:0.2:0.1", "0:0.5:-0.1"]),
    ),
    "--cutoff-tol": (st.floats(1e-14, 1, exclude_max=True).map(repr),
                     st.one_of(st.floats(min_value=1).map(repr), _NEGATIVE, _BAD)),
    "--n-max": (st.integers(0, 200).map(str), st.one_of(st.integers(max_value=-1).map(str), _BAD)),
    "--samples": (st.integers(1, 2000).map(str), st.one_of(st.integers(max_value=0).map(str), _BAD)),
    "--seed": (st.integers(0, 2**70).map(str), st.one_of(st.integers(max_value=-1).map(str), _BAD)),
    "--points": (st.integers(1, 20).map(str),
                 st.one_of(st.integers(max_value=0).map(str), st.integers(min_value=100_001).map(str), _BAD)),
    "--max-norm": (st.floats(0, 0.9, exclude_min=True).map(repr),
                   st.one_of(st.floats(0.9, exclude_min=True).map(repr), _NEGATIVE, _BAD)),
    "--grid": (st.integers(2, 4).map(str),
               st.one_of(st.integers(max_value=1).map(str), st.integers(min_value=317).map(str), _BAD)),
}
# (always passed, sometimes passed): the sweeps always get a small grid, fig2 a small sample count
_COMMAND_OPTIONS = {
    "fig1": (["--xi"], ["--r", "--cutoff-tol", "--n-max"]),
    "fig2": (["--xi", "--samples"], ["--r", "--seed"]),
    "fig3": (["--xi"], ["--r", "--cutoff-tol", "--n-max"]),
    "metric": ([], ["--r", "--points", "--seed", "--max-norm"]),
    "curvature": (["--grid"], ["--r"]),
    "validate": ([], ["--cutoff-tol"]),
}


_SMALL_R_WARNING = re.compile(
    r"small_r_qubit called with r=\d+\.\d{3} > 0\.3; the O\(r\^4\) accuracy guarantee degrades")


@st.composite
def _argv(draw):
    """A command with accepted option values, in half the cases one of them replaced by a
    rejected one."""
    command = draw(st.sampled_from(sorted(_COMMAND_OPTIONS)))
    always, sometimes = _COMMAND_OPTIONS[command]
    names = always + draw(st.lists(st.sampled_from(sometimes), unique=True))
    spoiled = draw(st.one_of(st.none(), st.sampled_from(names))) if names else None
    return [command, "-o", "-"] + [
        f"{name}={draw(_OPTIONS[name][name == spoiled])}" for name in names
    ]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=_argv())
def test_cli_argv_fuzz_exits_with_documented_code(argv):
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a malformed value itself
            code = exc.code
    assert time.perf_counter() - start < 5.0, argv
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    # the only warning is the documented small-r one, from a metric run above r = 0.3
    assert len(caught) <= 1, (argv, [str(w.message) for w in caught])
    for w in caught:
        assert w.category is UserWarning and argv[0] == "metric", (argv, w.message)
        assert _SMALL_R_WARNING.fullmatch(str(w.message)), (argv, w.message)
        assert cli._build_parser().parse_args(argv).r > 0.3, (argv, w.message)
