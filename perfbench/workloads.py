"""The benchmark's workloads: the CLI invocations of one pass, made from the seed.

The seed reaches the program only as the ``--seed`` argument of ``fig2`` and
``metric``; every other argument is fixed, so the fixed-input columns of a
pass can be checked against stored reference values.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Invocation:
    """One CLI call of a pass.

    key: stable label; names the output file and the reference entry.
    argv: CLI arguments without ``-o``.
    points: data rows the output must hold (xi points or table points).
    """

    key: str
    argv: tuple[str, ...]
    points: int

    @property
    def command(self) -> str:
        return self.argv[0]

    def option(self, name: str) -> str | None:
        """Value that follows ``name`` in argv, or None."""
        if name in self.argv:
            return self.argv[self.argv.index(name) + 1]
        return None


def program_seed(seed: int) -> int:
    """The CLI rejects negative seeds; fold any benchmark seed into [0, 2**32)."""
    return seed % 2**32


def paper_figures(seed: int) -> list[Invocation]:
    s = str(program_seed(seed))
    return [
        Invocation("fig1-r0.6", ("fig1", "--r", "0.6"), 96),
        Invocation("fig3-r0.85", ("fig3", "--r", "0.85"), 96),
        Invocation("metric-r0.05", ("metric", "--r", "0.05", "--points", "20", "--seed", s), 20),
        Invocation("curvature-r0.1", ("curvature", "--r", "0.1", "--grid", "5"), 25),
    ]


def monte_carlo(seed: int) -> list[Invocation]:
    s = str(program_seed(seed))
    # README's r and sample count on three xi points instead of 96: a pass
    # takes under a second, so a run holds dozens and their median is steady.
    return [
        Invocation(
            "fig2-r0.6-mc",
            ("fig2", "--r", "0.6", "--samples", "200000", "--xi", "0:0.8:0.4", "--seed", s),
            3,
        ),
    ]


# r=1.5 (n_max 155) on three points, r=2.0 (n_max 423) on one: a pass then
# costs 7-13 s on a 2-core x86 machine, so a 36 s run holds two to four.
LARGE_R_GRIDS = (("1.5", "0:0.8:0.4", 3), ("2.0", "0.4:0.4:0", 1))


def large_r(seed: int) -> list[Invocation]:
    s = str(program_seed(seed))
    out = []
    for r, grid, points in LARGE_R_GRIDS:
        out.append(Invocation(f"fig1-r{r}", ("fig1", "--r", r, "--xi", grid), points))
        out.append(Invocation(
            f"fig2-r{r}-exact",
            ("fig2", "--r", r, "--xi", grid, "--samples", "1", "--seed", s),
            points,
        ))
        out.append(Invocation(f"fig3-r{r}", ("fig3", "--r", r, "--xi", grid), points))
    return out


WORKLOADS = {
    "paper-figures": paper_figures,
    "monte-carlo": monte_carlo,
    "large-r": large_r,
}

# The calibration kernel (calibrate.py) whose slowdowns track each workload's.
CALIBRATION = {
    "paper-figures": "mixed",
    "monte-carlo": "mixed",
    "large-r": "dense",
}

COMMANDS = ("fig1", "fig2", "fig3", "metric", "curvature")


def build(name: str, seed: int) -> list[Invocation]:
    return WORKLOADS[name](seed)
