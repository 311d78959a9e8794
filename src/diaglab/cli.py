"""Command-line interface: construction, verification and export.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 size cap exceeded or memory exhausted.  ``DIAGLAB_CAP_VERTICES``
overrides the default vertex cap.  All output is deterministic;
``--format text`` renders the same data that ``--format json`` emits, one
``key.path: value`` line per leaf, list items keyed by their index.  Each
subcommand accepts only the formats it can emit and the switches it reads,
so an unknown ``--format`` or an unread switch is a usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, replace
from math import factorial

from . import diaggraph, semilattice, spectral, symmetry
from .chromatic import chromatic_verdict, find_complete_mapping, hall_paige_predicate
from .errors import CapExceededError, DiagLabError
from .groups import GroupTable, is_elementary_abelian, parse_group_spec
from .semilattice import DEFAULT_VERTEX_CAP

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3

GRID_DEFAULT_GROUPS = ("C2", "C3", "C4", "C5", "C6", "C2xC2", "S3", "D4", "Q8")
GRID_DEFAULT_VERTEX_LIMIT = 4096

# The formats each subcommand can emit, the default first; the report
# commands and grid render JSON or the same data as text.
REPORT_FORMATS = ("json", "text")
COMMAND_FORMATS = {"build": ("graph6", "dot", "edgelist"),
                   "semilattice": ("dot",), "mobius": ("json",)}

# The switches each subcommand reads; the others take none.
SWITCH_HELP = {"--paranoid": "re-run symmetry-based shortcuts from every base vertex",
               "--exact": "run exact search where a cap allows it"}
COMMAND_SWITCHES = {"spectrum": ("--paranoid",), "diameter": ("--paranoid",),
                    "cliques": ("--paranoid",), "symmetry": ("--paranoid",),
                    "chromatic": ("--exact",), "check-all": ("--paranoid", "--exact"),
                    "grid": ("--paranoid", "--exact")}


@dataclass
class RunConfig:
    group: str = ""
    m: int = 2
    vertex_cap: int = DEFAULT_VERTEX_CAP
    fmt: str = "json"
    paranoid: bool = False
    exact: bool = False
    out: str | None = None


def resolve_vertex_cap(flag: int | None) -> int:
    """``--cap-vertices`` if given, else ``DIAGLAB_CAP_VERTICES``, else the
    default; a cap below 1 is a usage error."""
    cap, source = flag, "--cap-vertices"
    if cap is None:
        env = os.environ.get("DIAGLAB_CAP_VERTICES")
        if not env:
            return DEFAULT_VERTEX_CAP
        source = "DIAGLAB_CAP_VERTICES"
        try:
            cap = int(env)
        except ValueError as exc:
            raise DiagLabError(
                f"DIAGLAB_CAP_VERTICES must be an integer, got {env!r}"
            ) from exc
    if cap < 1:
        raise DiagLabError(f"{source} must be at least 1, got {cap}")
    return cap


def _render(data: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(data, indent=2, sort_keys=True)
    lines = []

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for k in sorted(value):
                walk(f"{prefix}{k}.", value[k])
        elif isinstance(value, (list, tuple)) and value:
            for i, item in enumerate(value):
                walk(f"{prefix}{i}.", item)
        else:
            lines.append(f"{prefix[:-1]}: {value}")

    walk("", data)
    return "\n".join(lines)


def _emit(data: str | bytes, out: str | None) -> None:
    """Write text, or bytes as they are, and a newline, to ``out`` or to
    standard output.  A standard output whose reader has gone takes the
    rest of the output into the null device, so that the command ends with
    its own exit code."""
    binary = not isinstance(data, str)
    newline = b"\n" if binary else "\n"
    if out:
        try:
            with open(out, "wb" if binary else "w") as fh:
                fh.write(data)
                fh.write(newline)
        except OSError as exc:
            raise DiagLabError(f"cannot write {out}: {exc.strerror or exc}") from exc
        return
    try:
        if binary:
            sys.stdout.flush()
            sys.stdout.buffer.write(data)
            sys.stdout.buffer.write(newline)
        else:
            print(data)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _claim(claims: list, name: str, passed: bool, detail: str = "", conjectural: bool = False) -> None:
    claims.append(
        {"claim": name, "passed": bool(passed), "detail": detail, "conjectural": conjectural}
    )


def _ledger(g, m: int, n: int, claims: list) -> dict:
    failures = [c["claim"] for c in claims if not c["passed"] and not c["conjectural"]]
    return {"group": g.label, "q": g.order, "m": m, "n": n, "claims": claims,
            "failures": failures, "ok": not failures}


def run_check_all(cfg: RunConfig, g: GroupTable) -> dict:
    """Run every verification for one instance, ``g`` the group that
    ``cfg.group`` names; returns the claims ledger."""
    m = cfg.m
    q = g.order
    claims: list[dict] = []

    minimals = semilattice.minimal_partitions(g, m, cfg.vertex_cap)
    sl, ok = semilattice.semilattice_and_hypothesis(g, minimals, cfg.paranoid)
    _claim(claims, "cartesian-hypothesis", ok,
           "every m-subset of the minimal partitions generates a Cartesian lattice")

    expected = semilattice.expected_rank_counts(m)
    got: dict[int, int] = {}
    for r in sl.rank:
        got[r] = got.get(r, 0) + 1
    _claim(claims, "rank-counts", got == expected,
           f"elements per rank {got}, expected binomials {expected}")

    try:
        rep = semilattice.verify_mobius(sl)
    except AssertionError as exc:
        _claim(claims, "mobius-closed-form", False, str(exc))
    else:
        _claim(claims, "mobius-closed-form", rep.ok,
               f"mu(bottom,top) = {rep.mu_bottom_top}, mismatches = {rep.mismatch_count}")
    del sl

    try:
        graph = diaggraph.build_graph(g, minimals)
    except AssertionError as exc:
        _claim(claims, "construction-agreement", False, str(exc))
        return _ledger(g, m, q**m, claims)
    cay = diaggraph.cayley_graph(g, m, cfg.vertex_cap)
    _claim(claims, "construction-agreement", diaggraph.same_edge_set(graph, cay),
           "partition-based and connection-set edge sets coincide")
    del cay

    val = graph.valency
    degree_ok = graph.nbr.shape[1] == val and bool((graph.nbr < graph.size).all())
    _claim(claims, "valency", degree_ok, f"regular of valency {val}")
    edges = graph.edge_count
    _claim(claims, "edge-count", edges * 2 == graph.size * val, f"{edges} edges")

    diam = diaggraph.diameter(graph, cfg.paranoid)
    _claim(claims, "diameter-formula", diam.ok,
           f"bfs {diam.bfs} vs closed form {diam.formula}")

    closed = spectral.spectrum_closed_form(q, m) if m >= 2 else None
    if closed is not None:
        try:
            moments = spectral.spectrum_trace_moments(graph, cfg.paranoid)
        except AssertionError as exc:
            _claim(claims, "spectrum-agreement", False, str(exc))
        else:
            _claim(claims, "spectrum-agreement", closed.entries == moments.entries,
                   f"{len(closed.entries)} distinct eigenvalues")
        inv_ok = (
            closed.total_multiplicity() == graph.size
            and closed.moment(1) == 0
            and closed.moment(2) == graph.size * val
        )
        _claim(claims, "spectrum-moments", inv_ok,
               "multiplicity sum, trace, and closed 2-walks all agree")
        _claim(claims, "stratum-identities", spectral.verify_stratum_identity(q, m),
               "interval dimension sums and multiplicity grouping")

    creport = None
    try:
        creport = diaggraph.maximal_cliques(graph, minimals, paranoid=cfg.paranoid)
    except CapExceededError:
        pass  # whole-graph Bron-Kerbosch past its cap: the claim is left out
    except AssertionError as exc:
        _claim(claims, "clique-structure", False, str(exc))
    else:
        detail = f"{creport.count} maximal cliques, clique number {creport.clique_number}"
        if creport.exceptional:
            detail += f" ({creport.exceptional_name})"
        _claim(claims, "clique-structure", True, detail)
    try:
        cover = diaggraph.clique_cover(graph, minimals)
    except AssertionError as exc:
        _claim(claims, "clique-cover", False, str(exc))
    else:
        _claim(claims, "clique-cover", cover.size == q ** (m - 1),
               f"{cover.size} disjoint cliques, lower bound {cover.lower_bound}")

    if m >= 2:
        dr, arrays = diaggraph.is_distance_regular(graph, cfg.paranoid)
        expect_dr = m == 2 or q == 2
        detail = f"distance-regular: {dr}"
        if arrays and dr:
            detail += f", intersection array {arrays}"
        _claim(claims, "distance-regular-iff", dr == expect_dr, detail)

    # One search for a complete mapping serves the verdict, which needs it
    # for even m, and the hall-paige claim.  The search fallback is capped
    # (order 16, for groups no certificate covers); past it the claims that
    # need it are left out.  A witness that fails its check fails them.
    try:
        cm, cm_error = find_complete_mapping(g), None
    except (CapExceededError, AssertionError) as exc:
        cm, cm_error = None, exc
    proven_case = m % 2 == 1 or hall_paige_predicate(g)
    try:
        if cm_error is not None and m % 2 == 0:
            raise cm_error
        verdict = chromatic_verdict(graph, exact=cfg.exact, mapping=cm)
    except CapExceededError:
        # Past a cap, e.g. a Hall-Paige group whose complete mapping only
        # the capped search could find, the chromatic claim is left out.
        verdict = None
    except AssertionError as exc:
        verdict = None
        _claim(claims, "chromatic-number" if proven_case else "chromatic-bounds",
               False, str(exc))
    else:
        if verdict.chi is not None and proven_case:
            _claim(claims, "chromatic-number", verdict.chi == q,
                   f"chi = {verdict.chi} via {verdict.reason[0]}")
        else:
            bounds_ok = verdict.upper is None or verdict.lower <= verdict.upper
            _claim(claims, "chromatic-bounds", bounds_ok,
                   f"bounds [{verdict.lower}, {verdict.upper}]")
            if verdict.conjecture is not None and verdict.upper is not None:
                _claim(claims, "chromatic-conjecture",
                       verdict.upper == verdict.conjecture,
                       f"upper bound {verdict.upper} vs conjectured {verdict.conjecture}",
                       conjectural=True)

    if cm_error is None:
        _claim(claims, "hall-paige", (cm is not None) == hall_paige_predicate(g),
               f"complete mapping {'found' if cm else 'absent'}")
    elif isinstance(cm_error, AssertionError):
        _claim(claims, "hall-paige", False, str(cm_error))

    # Past the search cap for Aut(G) the symmetry claims are left out; a
    # failed check inside the report fails the symmetry-order claim.
    sym = None
    if m >= 2:
        top = None
        if creport is not None and not creport.exceptional:
            top = (creport.top_through_zero, creport.max_count)
        try:
            sym = symmetry.symmetry_report(graph, minimals, top, paranoid=cfg.paranoid)
        except CapExceededError:
            pass
        except AssertionError as exc:
            _claim(claims, "symmetry-order", False, str(exc))
    if sym is not None:
        _claim(claims, "symmetry-order", sym.order == sym.order_formula,
               f"Schreier-Sims order {sym.order}, formula {sym.order_formula}")
        _claim(claims, "vertex-transitive", sym.vertex_orbits == 1, "one vertex orbit")
        elem_ab = is_elementary_abelian(g) is not None
        _claim(claims, "edge-transitive-iff", (sym.edge_orbits == 1) == elem_ab,
               f"{sym.edge_orbits} edge orbits, elementary abelian: {elem_ab}")
        if sym.clique_orbits is not None:
            _claim(claims, "clique-transitive", sym.clique_orbits == 1,
                   f"{sym.clique_orbits} orbits on the {creport.max_count} maximum cliques")
        prim = sym.primitivity
        if prim.criterion is None:
            _claim(claims, "primitivity", True,
                   f"block computation: primitive={prim.primitive}; "
                   "criterion: unsupported classification")
        else:
            _claim(claims, "primitivity", prim.agrees is True,
                   f"blocks say primitive={prim.primitive}, criterion says {prim.criterion}")
        size = sym.induced_partition_group
        want = factorial(m + 1)
        _claim(claims, "partition-action", size == want,
               f"induced group on the minimal partitions has size {size} (want {want})")

    return _ledger(g, m, graph.size, claims)


def _instance_key(entry: dict) -> tuple:
    return (entry.get("group", ""), entry.get("m", 0))


def run_grid(groups: list[str], m_values: list[int], cfg: RunConfig,
             vertex_limit: int) -> dict:
    """check-all across a grid of instances, skipping oversize ones."""

    def one(spec: str, m: int) -> dict:
        local = replace(cfg, group=spec, m=m)
        try:
            g = parse_group_spec(spec)
            if g.order**m > vertex_limit:
                return {"group": spec, "m": m, "skipped": True}
            return run_check_all(local, g)
        except (DiagLabError, ValueError, AssertionError) as exc:
            # One instance's failure is its own entry; the rest still run.
            return {"group": spec, "m": m, "error": str(exc), "ok": False}

    entries = [one(spec, m) for spec in groups for m in m_values]
    entries.sort(key=_instance_key)
    ran = [e for e in entries if not e.get("skipped")]
    failures = [e for e in ran if not e.get("ok")]
    return {
        "instances": entries,
        "ran": len(ran),
        "failed": len(failures),
        "ok": not failures,
    }


def _add_options(p: argparse.ArgumentParser, name: str) -> None:
    """The options that follow a subcommand's own: its formats, ``--out``,
    the vertex cap where it builds G^m, and the switches it reads."""
    formats = COMMAND_FORMATS.get(name, REPORT_FORMATS)
    p.add_argument("--format", dest="fmt", choices=formats, default=formats[0],
                   help="output format")
    p.add_argument("--out", default=None, help="write output to this path")
    if name != "mapping":
        p.add_argument("--cap-vertices", type=int, default=None)
    for switch in COMMAND_SWITCHES.get(name, ()):
        p.add_argument(switch, action="store_true", help=SWITCH_HELP[switch])


def _build_config(args: argparse.Namespace) -> RunConfig:
    if args.m < 1:
        raise DiagLabError("m must be >= 1")
    return RunConfig(group=args.group, m=args.m,
                     vertex_cap=resolve_vertex_cap(args.cap_vertices), fmt=args.fmt,
                     paranoid=getattr(args, "paranoid", False),
                     exact=getattr(args, "exact", False), out=args.out)


def _grid_config(args: argparse.Namespace) -> RunConfig:
    """The shared options of a grid run, after its range flags are checked."""
    if args.m_min < 1:
        raise DiagLabError(f"--m-min must be at least 1, got {args.m_min}")
    if args.m_min > args.m_max:
        raise DiagLabError(f"--m-min {args.m_min} exceeds --m-max {args.m_max}")
    if args.max_vertices < 1:
        raise DiagLabError(f"--max-vertices must be at least 1, got {args.max_vertices}")
    return RunConfig(vertex_cap=resolve_vertex_cap(args.cap_vertices),
                     paranoid=args.paranoid, exact=args.exact)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; each ``parse_args``
    call returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="diaglab",
        description="diagonal semilattices and diagonal graphs over small finite groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("build", "semilattice", "mobius", "spectrum", "diameter",
                 "cliques", "chromatic", "symmetry", "check-all", "mapping"):
        p = sub.add_parser(name)
        p.add_argument("--group", required=True, help="group expression, e.g. C3 or C2xC2")
        if name != "mapping":
            p.add_argument("--m", type=int, required=True, help="dimension m >= 1")
        if name == "spectrum":
            p.add_argument("--verify", action="store_true",
                           help="also compare against trace moments")
        _add_options(p, name)

    p = sub.add_parser("grid")
    p.add_argument("--groups", default=",".join(GRID_DEFAULT_GROUPS),
                   help="comma-separated group expressions")
    p.add_argument("--m-min", type=int, default=2, help="least dimension, at least 1")
    p.add_argument("--m-max", type=int, default=4, help="greatest dimension")
    p.add_argument("--max-vertices", type=int, default=GRID_DEFAULT_VERTEX_LIMIT,
                   help="skip instances with more vertices, at least 1")
    _add_options(p, "grid")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    try:
        return _dispatch(args)
    except (CapExceededError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CAP
    except DiagLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        # a check that failed outside the check-all ledger
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


def _dispatch(args: argparse.Namespace) -> int:
    cmd = args.command

    if cmd == "grid":
        cfg = _grid_config(args)
        groups = [s for s in args.groups.split(",") if s]
        m_values = list(range(args.m_min, args.m_max + 1))
        report = run_grid(groups, m_values, cfg, args.max_vertices)
        _emit(_render(report, args.fmt), args.out)
        return EXIT_OK if report["ok"] else EXIT_CHECK_FAILED

    if cmd == "mapping":
        g = parse_group_spec(args.group)
        cm = find_complete_mapping(g)
        data = {
            "group": g.label,
            "order": g.order,
            "hall_paige": hall_paige_predicate(g),
            "exists": cm is not None,
            "phi": list(cm.phi) if cm else None,
        }
        _emit(_render(data, args.fmt), args.out)
        return EXIT_OK

    cfg = _build_config(args)
    g = parse_group_spec(cfg.group)

    if cmd == "spectrum":
        closed = spectral.spectrum_closed_form(g.order, cfg.m)
        data = closed.to_dict()
        if args.verify:
            graph = diaggraph.build_graph(
                g, semilattice.minimal_partitions(g, cfg.m, cfg.vertex_cap))
            try:
                moments = spectral.spectrum_trace_moments(graph, cfg.paranoid)
            except AssertionError as exc:
                print(f"error: {exc}", file=sys.stderr)
                data["verified"] = False
            else:
                data["verified"] = moments.entries == closed.entries
            _emit(_render(data, cfg.fmt), cfg.out)
            return EXIT_OK if data["verified"] else EXIT_CHECK_FAILED
        _emit(_render(data, cfg.fmt), cfg.out)
        return EXIT_OK

    if cmd in ("semilattice", "mobius"):
        minimals = semilattice.minimal_partitions(g, cfg.m, cfg.vertex_cap)
        sl = semilattice.join_closure(minimals, semilattice.subset_suprema(minimals))
        if cmd == "semilattice":
            _emit(semilattice.hasse_dot(sl), cfg.out)
            return EXIT_OK
        rep = semilattice.verify_mobius(sl)
        _emit(rep.to_json(), cfg.out)
        return EXIT_OK if rep.ok else EXIT_CHECK_FAILED

    if cmd == "check-all":
        report = run_check_all(cfg, g)
        _emit(_render(report, cfg.fmt), cfg.out)
        return EXIT_OK if report["ok"] else EXIT_CHECK_FAILED

    minimals = semilattice.minimal_partitions(g, cfg.m, cfg.vertex_cap)
    graph = diaggraph.build_graph(g, minimals)

    if cmd == "build":
        data = diaggraph.export_graph(graph, cfg.fmt)
        summary = json.dumps(
            {"N": graph.size, "valency": graph.valency, "edges": graph.edge_count},
            sort_keys=True,
        )
        _emit(data, cfg.out)
        print(summary, file=sys.stdout if cfg.out else sys.stderr)
        return EXIT_OK

    if cmd == "diameter":
        rep = diaggraph.diameter(graph, cfg.paranoid)
        data = {"bfs": rep.bfs, "formula": rep.formula, "match": rep.ok}
        _emit(_render(data, cfg.fmt), cfg.out)
        return EXIT_OK if rep.ok else EXIT_CHECK_FAILED

    if cmd == "cliques":
        rep = diaggraph.maximal_cliques(graph, minimals, paranoid=cfg.paranoid)
        cover = diaggraph.clique_cover(graph, minimals)
        data = {
            "clique_number": rep.clique_number,
            "maximal_cliques": rep.count,
            "exceptional": rep.exceptional,
            "exceptional_name": rep.exceptional_name,
            "cover_size": cover.size,
            "cover_lower_bound": cover.lower_bound,
        }
        _emit(_render(data, cfg.fmt), cfg.out)
        return EXIT_OK

    if cmd == "chromatic":
        verdict = chromatic_verdict(graph, exact=cfg.exact)
        _emit(_render(verdict.to_dict(), cfg.fmt), cfg.out)
        return EXIT_OK

    if cmd == "symmetry":
        cliques = None
        try:
            crep = diaggraph.maximal_cliques(graph, minimals, paranoid=cfg.paranoid)
            cliques = (crep.top_through_zero, crep.max_count)
        except CapExceededError:
            pass  # as in check-all, the clique orbits are left out
        rep = symmetry.symmetry_report(graph, minimals, cliques, paranoid=cfg.paranoid)
        _emit(_render(rep.to_dict(), cfg.fmt), cfg.out)
        return EXIT_OK

    raise DiagLabError(f"unknown command {cmd!r}")


if __name__ == "__main__":
    sys.exit(main())
