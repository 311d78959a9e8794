"""The benchmark's workloads: fixed lists of ``diaglab`` command lines.

Each operation is one argument list for ``diaglab.cli.main``; the runner adds
``--out``.  The lists are written out here rather than taken from the
program's defaults, so that a change to the program cannot silently change
what the benchmark measures.
"""

from __future__ import annotations


def check_all(group: str, m: int) -> tuple[str, ...]:
    return ("check-all", "--group", group, "--m", str(m))


# The nine groups that `diaglab grid` runs by default.
GRID_GROUPS = ("C2", "C3", "C4", "C5", "C6", "C2xC2", "S3", "D4", "Q8")

# The shares of traced self time in the comments were measured with
# `run.py --trace 1` at the first benchmarked revision.  No operation may
# fail in a workload, so the instances that miss the 30 s deadline there
# (C2 m=8, C8 m=2, C16 m=2) are left out.
WORKLOADS: dict[str, list[tuple[str, ...]]] = {
    # Many vertices, short lattices (512 to 1024 vertices, 15 to 63
    # elements): partition suprema about 50 %, stabiliser chains and orbit
    # counts about 35 %.
    "wide": [check_all("Q8", 3), check_all("C9", 3), check_all("C4", 5)],
    # Few vertices, long lattices (127 and 255 elements): partition suprema
    # in the join closure and the Cartesian check about 80 %, symmetry's
    # induced closure about 10 %.
    "tall": [check_all("C2", 6), check_all("C2", 7)],
    # Many small instances: the exact colourings of the Hall-Paige-failing
    # C6 and S3 at m=2 about 70 %, per-instance symmetry work (chains, orbit
    # counts) about 15 %.
    "grid": [check_all(g, m) for g in GRID_GROUPS for m in (2, 3)]
    + [check_all("C8", 3)],
    # Graph-only commands: Bron-Kerbosch and every-vertex walk counts about
    # 35 % each, BFS distances and graph6 encoding about 10 % each.  No
    # closure, symmetry or colouring work, so a change there must read "no
    # change" here.
    "graph": [
        ("build", "--group", "C3", "--m", "7", "--format", "graph6"),
        ("cliques", "--group", "C16", "--m", "3"),
        ("spectrum", "--group", "C3", "--m", "6", "--verify", "--paranoid"),
        ("diameter", "--group", "C4", "--m", "5", "--paranoid"),
    ],
}


def groups_of(ops: list[tuple[str, ...]]) -> list[str]:
    """The distinct ``--group`` arguments of ``ops``, in order."""
    return list(dict.fromkeys(argv[argv.index("--group") + 1] for argv in ops))
