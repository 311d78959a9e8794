from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from dataclasses import replace
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

from diaglab.cli import EXIT_CAP, EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, main

from replaced import parse_graph6


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_graph6(capsys):
    code, out, err = run_cli(capsys, "build", "--group", "C3", "--m", "3",
                             "--format", "graph6")
    assert code == EXIT_OK
    adj = parse_graph6(out.strip())
    assert len(adj) == 27
    assert all(len(a) == 8 for a in adj)
    summary = json.loads(err.strip())
    assert summary == {"N": 27, "valency": 8, "edges": 108}


def test_build_k4_summary(capsys):
    code, out, err = run_cli(capsys, "build", "--group", "C2", "--m", "2")
    assert code == EXIT_OK
    assert out.strip() == "C~"


def test_build_rejects_trivial_group(capsys):
    code, out, err = run_cli(capsys, "build", "--group", "C1", "--m", "2")
    assert code == EXIT_USAGE
    assert "order must be >= 2" in err


@pytest.mark.parametrize("command", ["semilattice", "mobius", "check-all"])
def test_semilattice_commands_reject_trivial_group(capsys, command):
    code, out, err = run_cli(capsys, command, "--group", "C1", "--m", "2")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: group order must be >= 2\n"


def test_build_to_file(tmp_path, capsys):
    out_path = tmp_path / "g.d6"
    code, out, _ = run_cli(capsys, "build", "--group", "C2", "--m", "3",
                           "--out", str(out_path))
    assert code == EXIT_OK
    assert json.loads(out)["N"] == 8
    data = out_path.read_bytes()
    assert parse_graph6(data)
    code, out, _ = run_cli(capsys, "build", "--group", "C2", "--m", "3")
    assert out.encode("ascii") == data == b"GrdjSk\n"


@pytest.mark.parametrize("argv", [
    ("spectrum", "--group", "C2", "--m", "2"),
    ("grid", "--groups", "C2", "--m-min", "2", "--m-max", "2"),
])
def test_out_into_missing_directory_is_usage_error(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, *argv, "--out", str(path))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: cannot write {path}: No such file or directory\n"


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "build", "--group", "Z9", "--m", "2")
    assert code == EXIT_USAGE


def test_cap_exceeded_exit_code(capsys):
    code, _, err = run_cli(capsys, "build", "--group", "C4", "--m", "4",
                           "--cap-vertices", "100")
    assert code == EXIT_CAP
    assert "cap" in err


def test_env_var_cap(capsys, monkeypatch):
    monkeypatch.setenv("DIAGLAB_CAP_VERTICES", "10")
    code, _, err = run_cli(capsys, "build", "--group", "C4", "--m", "2")
    assert code == EXIT_CAP


@pytest.mark.parametrize("argv,env", [
    (["check-all", "--group", "C3", "--m", "2", "--cap-vertices", "0"], None),
    (["check-all", "--group", "C3", "--m", "2", "--cap-vertices", "-5"], None),
    (["check-all", "--group", "C3", "--m", "2"], "-1"),
    (["grid", "--groups", "C2", "--m-max", "2", "--cap-vertices", "0"], None),
])
def test_vertex_cap_below_one_is_usage_error(capsys, monkeypatch, argv, env):
    if env is not None:
        monkeypatch.setenv("DIAGLAB_CAP_VERTICES", env)
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "must be at least 1" in err


def test_semilattice_dot(capsys):
    code, out, _ = run_cli(capsys, "semilattice", "--group", "C2", "--m", "2")
    assert code == EXIT_OK
    assert out.startswith("digraph")


def test_mobius_json(capsys):
    code, out, _ = run_cli(capsys, "mobius", "--group", "C2", "--m", "3")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["elements"] == 12
    assert data["mismatches"] == []
    assert data["mu_bottom_top"] == -3


OUTPUTS_PATH = Path(__file__).resolve().parent / "data" / "semilattice_outputs.json"
OUTPUTS = json.loads(OUTPUTS_PATH.read_text())


def output_record(code: int, out: str) -> dict:
    """A command's exit code and the sha256 of its standard output."""
    return {"sha256": hashlib.sha256(out.encode()).hexdigest(), "exit": code}


@pytest.mark.parametrize("command,key", [(command, key) for command in ("semilattice", "mobius")
                                         for key in sorted(OUTPUTS[command])])
def test_semilattice_outputs_unchanged(capsys, command, key):
    """The output of ``semilattice`` and ``mobius`` on the grid groups at
    m = 1..3, byte for byte, as recorded when the semilattice kept its
    fields as tuples."""
    group, m = key.split()
    code, out, _ = run_cli(capsys, command, "--group", group, "--m", m)
    assert output_record(code, out) == OUTPUTS[command][key]


def swap_a_rank(sl):
    """``sl`` with the ranks of element 1 and of the first rank-2 element
    not above it swapped: each rank keeps its count, but rank 2 now appears
    before rank 1, and the Moebius check fails on the pairs they are in."""
    j = next(k for k in range(len(sl.below)) if sl.rank[k] == 2 and sl.below[1] & ~sl.below[k])
    rank = sl.rank.copy()
    rank[[1, j]] = rank[[j, 1]]
    return replace(sl, rank=rank)


@pytest.mark.parametrize("key", sorted(OUTPUTS["check-all-doctored-ranks"]))
def test_rank_counts_list_ranks_as_they_first_appear(capsys, monkeypatch, key):
    """The ledger of ``check-all`` at m = 3 with two ranks swapped, on both
    routes, byte for byte: the ``rank-counts`` detail lists the ranks in
    the order they first appear in the rank array."""
    from diaglab import semilattice

    original = semilattice.semilattice_and_hypothesis

    def doctored(*args, **kwargs):
        sl, ok = original(*args, **kwargs)
        return swap_a_rank(sl), ok

    monkeypatch.setattr(semilattice, "semilattice_and_hypothesis", doctored)
    group, m, *switches = key.split()
    code, out, _ = run_cli(capsys, "check-all", "--group", group, "--m", m, *switches)
    assert output_record(code, out) == OUTPUTS["check-all-doctored-ranks"][key]
    claims = {c["claim"]: c for c in json.loads(out)["claims"]}
    assert claims["rank-counts"]["passed"]
    assert claims["rank-counts"]["detail"].startswith("elements per rank {0: 1, 2: 6, 1: 4, 3: 1}")


def test_spectrum_verify(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--group", "C3", "--m", "2",
                           "--verify")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["entries"] == [[-3, 2], [0, 6], [6, 1]]
    assert data["verified"] is True


def test_diameter_json(capsys):
    code, out, _ = run_cli(capsys, "diameter", "--group", "C5", "--m", "2")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data == {"bfs": 2, "formula": 2, "match": True}


def test_cliques_json(capsys):
    code, out, _ = run_cli(capsys, "cliques", "--group", "C4", "--m", "2")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["exceptional"] is True
    assert data["exceptional_name"] == "complement of the Shrikhande graph"
    assert data["cover_size"] == 4


def test_chromatic_json(capsys):
    code, out, _ = run_cli(capsys, "chromatic", "--group", "C4", "--m", "2",
                           "--exact")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["chi"] == 6
    assert data["conjecture"] == 6


@pytest.mark.parametrize("command", ["chromatic", "check-all"])
def test_exact_colouring_stops_at_its_node_budget(capsys, monkeypatch, command):
    # C8 m=2 has 64 vertices, inside the exact colouring cap, and its search
    # does not close within the budget: chi = q+2 from the certificates
    # stands, and a reason names the budget and the bounds the search reached
    from diaglab import chromatic, cli

    verdicts = []

    def spy(*args, **kwargs):
        verdicts.append(chromatic.chromatic_verdict(*args, **kwargs))
        return verdicts[-1]

    monkeypatch.setattr(cli, "chromatic_verdict", spy)
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, command, "--group", "C8", "--m", "2", "--exact")
    assert time.perf_counter() - start < 30  # about 1.5 s; unbounded it ran minutes
    assert code == EXIT_OK
    (verdict,) = verdicts
    assert verdict.chi == 10 and (verdict.lower, verdict.upper) == (8, 10)
    stopped = f"exact search stopped after {chromatic.EXACT_NODE_BUDGET} nodes at bounds [8, 11]"
    assert verdict.reason[-1] == stopped
    if command == "chromatic":
        assert json.loads(out)["reason"][-1] == stopped
    else:
        ledger = json.loads(out)
        assert ledger["ok"] and ledger["failures"] == []


def test_chromatic_honours_vertex_cap(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "chromatic", "--group", "C3", "--m", "3",
                             "--cap-vertices", "5")
    assert code == EXIT_CAP and out == ""
    assert "exceeds cap" in err
    monkeypatch.setenv("DIAGLAB_CAP_VERTICES", "5")
    code, out, err = run_cli(capsys, "chromatic", "--group", "C3", "--m", "3")
    assert code == EXIT_CAP and out == ""
    assert "exceeds cap" in err


def test_chromatic_honours_a_raised_vertex_cap(capsys):
    # 2^17 = 131072 vertices, above the default cap of 65536: the colouring
    # runs on the graph's own vertices, under the command's cap
    code, out, err = run_cli(capsys, "chromatic", "--group", "C2", "--m", "17",
                             "--cap-vertices", "200000")
    assert code == EXIT_OK and err == ""
    assert json.loads(out)["chi"] == 2


def test_mapping_json(capsys):
    code, out, _ = run_cli(capsys, "mapping", "--group", "C2xC2")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["exists"] is True and data["hall_paige"] is True
    code, out, _ = run_cli(capsys, "mapping", "--group", "C6")
    data = json.loads(out)
    assert data["exists"] is False and data["phi"] is None


def test_symmetry_json(capsys):
    code, out, _ = run_cli(capsys, "symmetry", "--group", "C3", "--m", "2")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["order"] == 108
    assert data["vertex_orbits"] == 1


SYMMETRY_PATH = Path(__file__).resolve().parent / "data" / "symmetry_reports.json"


@pytest.mark.parametrize("key", sorted(json.loads(SYMMETRY_PATH.read_text())))
def test_symmetry_output_unchanged(capsys, key):
    """The ``symmetry`` output of every ``grid --m-max 3`` instance, byte for
    byte, as recorded before it shared its code path with ``check-all``.

    ``about_diagonal_action_only`` is a hard-coded rule (m = 2 and
    |G| <= 4), not a computation of the graph's full automorphism group;
    a change that computes that group re-records this file and says why.
    """
    expected = json.loads(SYMMETRY_PATH.read_text())[key]
    group, m = key.split()
    code, out, err = run_cli(capsys, "symmetry", "--group", group, "--m", m)
    assert code == EXIT_OK and err == ""
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_check_all_passes(capsys):
    code, out, _ = run_cli(capsys, "check-all", "--group", "C3", "--m", "3")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["ok"] is True
    assert data["failures"] == []
    names = {c["claim"] for c in data["claims"]}
    assert {"mobius-closed-form", "spectrum-agreement", "diameter-formula",
            "clique-structure", "symmetry-order", "chromatic-number"} <= names


def test_check_all_c2_m6_within_caps(capsys):
    code, out, _ = run_cli(capsys, "check-all", "--group", "C2", "--m", "6")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["ok"] is True and data["n"] == 64


@pytest.mark.parametrize("group,m", [("C3", "3"), ("C2", "4"), ("C4", "2")])
def test_check_all_paranoid_same_verdicts(capsys, group, m):
    verdicts = []
    for extra in ((), ("--paranoid",)):
        code, out, _ = run_cli(capsys, "check-all", "--group", group, "--m", m, *extra)
        assert code == EXIT_OK
        verdicts.append({(c["claim"], c["passed"]) for c in json.loads(out)["claims"]})
    assert verdicts[0] == verdicts[1]


@pytest.mark.parametrize("command", ["cliques", "symmetry", "check-all"])
@pytest.mark.parametrize("group,m", [("C3", "3"), ("Q8", "2"), ("C4", "3")])
def test_clique_commands_paranoid_same_output(capsys, monkeypatch, command, group, m):
    """Same bytes either way; only --paranoid runs Bron-Kerbosch on the whole
    graph, the default path only on the neighbourhood of vertex 0."""
    from diaglab import diaggraph

    sizes: list[int] = []
    original = diaggraph.bron_kerbosch

    def counted(nbr):
        sizes.append(len(nbr))
        return original(nbr)

    monkeypatch.setattr(diaggraph, "bron_kerbosch", counted)
    outputs, largest = [], []
    for extra in ((), ("--paranoid",)):
        sizes.clear()
        code, out, err = run_cli(capsys, command, "--group", group, "--m", m, *extra)
        assert code == EXIT_OK
        outputs.append((out, err))
        largest.append(max(sizes))
    assert outputs[0] == outputs[1]
    n = {"C3": 3, "Q8": 8, "C4": 4}[group] ** int(m)
    assert largest[0] < n and largest[1] == n


def doctor_constructions(monkeypatch, doctor_build, doctor_cayley) -> list[str]:
    """Pass the graphs of ``build_graph`` and ``cayley_graph`` through the
    two doctors; returns the names of the constructions called, in order."""
    from diaglab import diaggraph

    built = []
    for name, doctor in (("build_graph", doctor_build), ("cayley_graph", doctor_cayley)):
        def doctored(*args, construct=getattr(diaggraph, name), name=name, doctor=doctor,
                     **kwargs):
            built.append(name)
            return doctor(construct(*args, **kwargs))

        monkeypatch.setattr(diaggraph, name, doctored)
    return built


@pytest.mark.parametrize("switched", [False, True])
def test_check_all_falls_back_where_translations_are_no_automorphisms(
        capsys, monkeypatch, switched):
    """With both constructions 2-switched alike, the Cayley array fails the
    translation certificate, check-all builds the partition graph, the two
    agree, and each shortcut from vertex 0 searches from every vertex of the
    switched graph instead.  Unswitched, the one breadth-first search from
    vertex 0 serves the diameter, the distance-regularity check and the
    neighbourhood certificate."""
    from test_translated_cliques import record_searches, two_switch

    doctor = two_switch if switched else (lambda graph: graph)
    built = doctor_constructions(monkeypatch, doctor, doctor)
    searched = record_searches(monkeypatch)
    code, out, _ = run_cli(capsys, "check-all", "--group", "C3", "--m", "3")
    n, valency = 27, 8
    if switched:
        assert searched == {"_max_eccentricity": [n], "_walk_blocks": [n],
                            "bron_kerbosch": [n], "is_distance_regular": [n]}
    else:
        assert searched == {"distance_layers": [1], "_walk_blocks": [1],
                            "bron_kerbosch": [valency]}
    assert built == ["cayley_graph", "build_graph"] if switched else ["cayley_graph"]
    failures = json.loads(out)["failures"]
    assert code == (EXIT_CHECK_FAILED if switched else EXIT_OK)
    assert "construction-agreement" not in failures
    assert ("clique-structure" in failures) == switched


@pytest.mark.parametrize("group,m", [("C3", "3"), ("S3", "2")])
def test_a_two_switched_cayley_array_falls_back_and_fails_the_agreement(
        capsys, monkeypatch, group, m):
    """A 2-switched Cayley array keeps row 0 and its tags, so only the
    translation certificate sees the switch: check-all builds the partition
    graph, fails construction-agreement, and runs the other claims on the
    partition graph, as under --paranoid."""
    from test_translated_cliques import two_switch

    built = doctor_constructions(monkeypatch, lambda graph: graph, two_switch)
    ledgers = []
    for extra in ((), ("--paranoid",)):
        built.clear()
        ledgers.append(run_cli(capsys, "check-all", "--group", group, "--m", m, *extra))
        assert built == ["cayley_graph", "build_graph"]
    assert ledgers[0] == ledgers[1]
    code, out, _ = ledgers[0]
    assert code == EXIT_CHECK_FAILED
    assert json.loads(out)["failures"] == ["construction-agreement"]


@pytest.mark.parametrize("argv,certificates", [
    (("check-all", "--group", "C3", "--m", "3"), 1),
    (("check-all", "--group", "S3", "--m", "2"), 1),
    (("check-all", "--group", "C4", "--m", "1"), 1),
    (("cliques", "--group", "C3", "--m", "3"), 1),
    (("symmetry", "--group", "C3", "--m", "3"), 1),
    (("diameter", "--group", "C3", "--m", "3"), 1),
    (("spectrum", "--group", "C3", "--m", "3", "--verify"), 1),
    (("chromatic", "--group", "C4", "--m", "2"), 0),
    (("build", "--group", "C3", "--m", "3"), 0),
])
@pytest.mark.parametrize("paranoid", [False, True])
def test_translation_certificate_is_computed_once_and_never_under_paranoid(
        capsys, monkeypatch, argv, certificates, paranoid):
    from diaglab import diaggraph

    calls = []
    original = diaggraph.translations_are_automorphisms
    monkeypatch.setattr(diaggraph, "translations_are_automorphisms",
                        lambda graph: calls.append(graph.size) or original(graph))
    # chromatic and build take no --paranoid: they have no shortcut to
    # switch off, and run alike either way
    switch = paranoid and argv[0] not in ("chromatic", "build")
    code, _, _ = run_cli(capsys, *argv, *["--paranoid"] * switch)
    assert code == EXIT_OK
    assert len(calls) == (0 if paranoid else certificates)


@pytest.mark.parametrize("paranoid", [False, True])
def test_check_all_checks_each_right_translation_once(capsys, monkeypatch, paranoid):
    """The certificate covers the right translations, N(v) = N(0)·v at
    every v, and checks none of them one by one; the symmetry report checks
    the generators that normalise them at vertex 0 and the others on the
    whole graph.  Under --paranoid there is no certificate, and the
    symmetry report checks them all, each right translation once, on the
    whole graph."""
    from diaglab import diaggraph, symmetry

    checked, at_zero = [], []
    original, original_at_zero = diaggraph.check_automorphisms, symmetry._check_at_zero

    def recording(graph, perms):
        checked.extend(p.tag for p in perms)
        return original(graph, perms)

    def recording_at_zero(graph, perms):
        at_zero.extend(p.tag for p in perms)
        return original_at_zero(graph, perms)

    monkeypatch.setattr(diaggraph, "check_automorphisms", recording)
    monkeypatch.setattr(symmetry, "check_automorphisms", recording)
    monkeypatch.setattr(symmetry, "_check_at_zero", recording_at_zero)
    args = ["check-all", "--group", "S3", "--m", "3"] + ["--paranoid"] * paranoid
    code, _, _ = run_cli(capsys, *args)
    assert code == EXIT_OK
    # S3 has two generators, each shifting one of three coordinates
    assert checked.count("right-mult") == (6 if paranoid else 0)
    # S3 is not abelian, so the inversion map alone does not normalise the
    # translations
    others = {"diag-left-mult", "aut", "coord-perm"}
    if paranoid:
        assert set(checked) == others | {"right-mult", "inversion-map"} and at_zero == []
    else:
        assert set(checked) == {"inversion-map"}
        assert set(at_zero) == others | {"right-mult"}


@pytest.mark.parametrize("paranoid", [False, True])
def test_check_all_records_a_graph_built_twice_over_an_edge(capsys, monkeypatch,
                                                             ledger_validator, paranoid):
    # Q_1 given in place of Q_0 to the graph: every edge of Q_1 is listed
    # twice.  Off --paranoid check-all reads the blocks through 0, where B_1
    # now meets itself, falls back to build_graph, and gets its detail.
    from diaglab import diaggraph, semilattice

    build, rooted = diaggraph.build_graph, semilattice.semilattice_and_hypothesis
    built = []

    def doctored_blocks(*args):
        sl, ok = rooted(*args)
        assert (sl.blocks is None) == paranoid
        return replace(sl, blocks=sl.blocks and sl.blocks[1:2] + sl.blocks[1:]), ok

    monkeypatch.setattr(semilattice, "semilattice_and_hypothesis", doctored_blocks)
    monkeypatch.setattr(diaggraph, "build_graph", lambda g, minimals, codec: built.append(1) or
                        build(g, minimals[1:2] + minimals[1:], codec))
    code, out, err = run_cli(capsys, "check-all", "--group", "C3", "--m", "2",
                             *["--paranoid"] * paranoid)
    assert built == [1]
    assert code == EXIT_CHECK_FAILED and err == ""
    data = json.loads(out)
    ledger_validator.validate(data)
    assert [c["claim"] for c in data["claims"]] == [
        "cartesian-hypothesis", "rank-counts", "mobius-closed-form", "construction-agreement"]
    assert data["failures"] == ["construction-agreement"] and data["n"] == 9
    assert data["claims"][-1]["detail"] == "edge (0, 1) lies in two minimal partitions"


def test_spectrum_and_diameter_paranoid(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--group", "C3", "--m", "3",
                           "--verify", "--paranoid")
    assert code == EXIT_OK
    assert json.loads(out)["verified"] is True
    code, out, _ = run_cli(capsys, "diameter", "--group", "C4", "--m", "3",
                           "--paranoid")
    assert code == EXIT_OK
    assert json.loads(out) == {"bfs": 3, "formula": 3, "match": True}


def test_check_all_conjectural_not_fatal(capsys):
    code, out, _ = run_cli(capsys, "check-all", "--group", "C4", "--m", "2")
    assert code == EXIT_OK
    data = json.loads(out)
    conj = [c for c in data["claims"] if c["conjectural"]]
    assert conj and all(c["claim"] == "chromatic-conjecture" for c in conj)


def test_check_all_text_format(capsys):
    code, out, _ = run_cli(capsys, "check-all", "--group", "C2", "--m", "2",
                           "--format", "text")
    assert code == EXIT_OK
    assert "ok: True" in out


def test_text_format_puts_each_claim_field_on_its_own_line(capsys):
    # C6 m=2 fails no claim but has a conjectural one
    argv = ("check-all", "--group", "C6", "--m", "2")
    _, out, _ = run_cli(capsys, *argv)
    ledger = json.loads(out)
    code, out, _ = run_cli(capsys, *argv, "--format", "text")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert "claims.0.claim: cartesian-hypothesis" in lines
    expect = [f"claims.{i}.{key}: {value}" for i, claim in enumerate(ledger["claims"])
              for key, value in sorted(claim.items())]
    assert [line for line in lines if line.startswith("claims.")] == expect
    assert "failures: []" in lines
    assert not any("[{" in line for line in lines)


def test_text_format_walks_grid_instances(capsys):
    code, out, _ = run_cli(capsys, "grid", "--groups", "C2", "--m-max", "2",
                           "--format", "text")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert {"instances.0.group: C2", "instances.0.m: 2", "instances.0.failures: []",
            "instances.0.claims.0.claim: cartesian-hypothesis", "ran: 1"} <= set(lines)
    assert not any("[{" in line for line in lines)


SCHEMA_PATH = Path(__file__).resolve().parent.parent / "docs" / "check_all.schema.json"


@pytest.fixture(scope="module")
def ledger_validator():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA_PATH.read_text())
    jsonschema.Draft7Validator.check_schema(schema)
    return jsonschema.Draft7Validator(schema)


@pytest.mark.parametrize("group,m,claims", [
    ("C3", "2", set()),
    ("C6", "2", {"chromatic-bounds", "chromatic-conjecture"}),
    ("C2", "3", set()),
])
def test_check_all_matches_schema(capsys, ledger_validator, group, m, claims):
    code, out, _ = run_cli(capsys, "check-all", "--group", group, "--m", m,
                           "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    ledger_validator.validate(data)
    assert claims <= {c["claim"] for c in data["claims"]}


def test_grid_entries_match_schema(capsys, ledger_validator):
    code, out, _ = run_cli(capsys, "grid", "--m-max", "2")
    assert code == EXIT_OK
    ran = [e for e in json.loads(out)["instances"] if not e.get("skipped")]
    assert ran
    for entry in ran:
        ledger_validator.validate(entry)


def test_grid_small(capsys):
    code, out, _ = run_cli(capsys, "grid", "--groups", "C2,C3", "--m-min", "2",
                           "--m-max", "3", "--max-vertices", "64")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["ok"] is True
    ran = [e for e in data["instances"] if not e.get("skipped")]
    assert {(e["group"], e["m"]) for e in ran} == {
        ("C2", 2), ("C2", 3), ("C3", 2), ("C3", 3)}


def test_grid_error_entries(capsys):
    code, out, _ = run_cli(capsys, "grid", "--groups", "C1,C2", "--m-min", "2",
                           "--m-max", "2")
    assert code == EXIT_CHECK_FAILED
    data = json.loads(out)
    bad = [e for e in data["instances"] if e.get("error")]
    assert len(bad) == 1 and bad[0]["group"] == "C1"


@pytest.mark.parametrize("flags,message", [
    (("--m-min", "0"), "--m-min must be at least 1, got 0"),
    (("--m-min", "-2", "--m-max", "2"), "--m-min must be at least 1, got -2"),
    (("--m-min", "3", "--m-max", "2"), "--m-min 3 exceeds --m-max 2"),
    (("--max-vertices", "0"), "--max-vertices must be at least 1, got 0"),
    (("--max-vertices", "-1"), "--max-vertices must be at least 1, got -1"),
])
def test_grid_range_flags_are_checked_before_any_instance(capsys, monkeypatch, flags,
                                                          message):
    from diaglab import cli

    monkeypatch.setattr(cli, "run_check_all", None)  # no instance may run
    code, out, err = run_cli(capsys, "grid", "--groups", "C2", *flags)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: {message}\n"


def test_grid_honours_the_vertex_cap_variable(capsys, monkeypatch):
    monkeypatch.setenv("DIAGLAB_CAP_VERTICES", "3")  # C2 m=2 has 4 vertices
    code, out, _ = run_cli(capsys, "grid", "--groups", "C2", "--m-max", "2")
    assert code == EXIT_CHECK_FAILED
    [entry] = json.loads(out)["instances"]
    assert entry["ok"] is False and "exceeds cap 3" in entry["error"]


def test_grid_rejects_an_env_cap_below_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DIAGLAB_CAP_VERTICES", "0")
    path = tmp_path / "grid.json"
    code, out, err = run_cli(capsys, "grid", "--groups", "C2", "--m-max", "2",
                             "--out", str(path))
    assert code == EXIT_USAGE
    assert out == "" and err == "error: DIAGLAB_CAP_VERTICES must be at least 1, got 0\n"
    assert not path.exists()


def test_grid_empty(capsys):
    code, out, _ = run_cli(capsys, "grid", "--groups", "", "--m-min", "2",
                           "--m-max", "2")
    assert code == EXIT_OK
    assert json.loads(out)["instances"] == []


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "diaglab", "diameter", "--group", "C3", "--m", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["match"] is True


def test_usage_error_exit_two():
    proc = subprocess.run(
        [sys.executable, "-m", "diaglab", "no-such-command"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2


@pytest.mark.parametrize("argv", [
    ("check-all", "--group", "C2", "--m", "1"),
    ("build", "--group", "C3", "--m", "2", "--format", "graph6"),
])
def test_a_closed_output_stream_ends_with_the_commands_own_code(argv):
    # the reading end of the pipe is closed before the command writes
    proc = subprocess.Popen([sys.executable, "-m", "diaglab", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == EXIT_OK
    assert "Traceback" not in err and "BrokenPipeError" not in err


@pytest.mark.parametrize("argv", [
    ("diameter", "--group", "C3", "--m", "2", "--format", "yaml"),
    ("build", "--group", "C3", "--m", "2", "--format", "json"),
    ("grid", "--groups", "C2", "--m-max", "2", "--format", "graph6"),
    ("mobius", "--group", "C2", "--m", "2", "--format", "text"),
    ("semilattice", "--group", "C2", "--m", "2", "--format", "json"),
])
def test_unknown_format_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == EXIT_USAGE
    assert "invalid choice" in captured.err and captured.out == ""


@pytest.mark.parametrize("argv,start", [
    (("build", "--group", "C2", "--m", "2"), "C~"),
    (("semilattice", "--group", "C2", "--m", "2", "--format", "dot"), "digraph hasse"),
    (("mobius", "--group", "C2", "--m", "2", "--format", "json"), "{"),
    (("diameter", "--group", "C2", "--m", "2", "--format", "text"), "bfs: "),
])
def test_each_command_accepts_its_own_formats(capsys, argv, start):
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK and out.startswith(start)


UNREAD_FLAGS = [(command, "--paranoid") for command in ("build", "semilattice", "mobius",
                                                        "chromatic", "mapping")]
UNREAD_FLAGS += [(command, "--exact") for command in ("build", "semilattice", "mobius",
                                                      "spectrum", "diameter", "cliques",
                                                      "symmetry", "mapping")]
UNREAD_FLAGS += [("mapping", "--cap-vertices")]


@pytest.mark.parametrize("command,flag", UNREAD_FLAGS,
                         ids=[f"{command}{flag}" for command, flag in UNREAD_FLAGS])
def test_a_flag_the_command_does_not_read_is_usage_error(capsys, command, flag):
    argv = [command, "--group", "C2", *(["--m", "2"] if command != "mapping" else []), flag]
    if flag == "--cap-vertices":
        argv.append("100")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == EXIT_USAGE
    assert f"unrecognized arguments: {flag}" in captured.err and captured.out == ""
    # without the flag the command runs
    assert main(argv[:argv.index(flag)]) == EXIT_OK


def test_mapping_reads_no_vertex_cap(capsys, monkeypatch):
    monkeypatch.setenv("DIAGLAB_CAP_VERTICES", "0")
    code, out, err = run_cli(capsys, "mapping", "--group", "C3")
    assert code == EXIT_OK and err == ""
    assert json.loads(out)["exists"] is True


CLAIMS_PATH = Path(__file__).resolve().parent / "data" / "check_all_claims.json"


@pytest.mark.parametrize("group,m", [("C3", "3"), ("C6", "2"), ("Q8", "2"), ("C2", "4")])
@pytest.mark.parametrize("extra", [(), ("--paranoid",)])
def test_check_all_claims_unchanged(capsys, group, m, extra):
    """(claim, passed, detail) in order, as recorded before the symmetry
    layer shared one chain between the order and primitivity claims."""
    expected = json.loads(CLAIMS_PATH.read_text())[f"{group} {m}"]
    code, out, _ = run_cli(capsys, "check-all", "--group", group, "--m", m, *extra)
    assert code == EXIT_OK
    got = [[c["claim"], c["passed"], c["detail"]] for c in json.loads(out)["claims"]]
    assert got == expected


def test_check_all_runs_chain_claims_past_4096_points(capsys, ledger_validator):
    # C3 m=8 has 6561 points; the stabiliser chain has no point cap
    code, out, _ = run_cli(capsys, "check-all", "--group", "C3", "--m", "8")
    assert code == EXIT_OK
    data = json.loads(out)
    ledger_validator.validate(data)
    claims = {c["claim"]: c for c in data["claims"]}
    assert claims["symmetry-order"] == {
        "claim": "symmetry-order", "passed": True, "conjectural": False,
        "detail": "Schreier-Sims order 4761711360, formula 4761711360"}
    # 3 divides m+1 = 9, so the blocks and the criterion both say imprimitive
    assert claims["primitivity"]["passed"] is True
    assert claims["primitivity"]["detail"] == (
        "blocks say primitive=False, criterion says False")

    code, out, _ = run_cli(capsys, "symmetry", "--group", "C3", "--m", "8")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["order"] == report["order_formula"] == 4761711360
    assert report["primitive"] is report["criterion"] is False


@pytest.fixture
def call_counts(monkeypatch):
    """``(counted, calls)``: ``counted(module, name)`` wraps the function so
    that ``calls[name]`` counts its calls."""
    calls: dict[str, int] = {}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        # every diaglab module that bound the function by name
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("diaglab")
                    and getattr(mod, name, None) is original):
                monkeypatch.setattr(mod, name, wrapper)

    return counted, calls


def test_check_all_builds_each_artefact_once(capsys, monkeypatch, call_counts):
    check_artefact_counts(capsys, monkeypatch, call_counts, paranoid=False)


def test_check_all_paranoid_builds_the_subset_table_once(capsys, monkeypatch, call_counts):
    check_artefact_counts(capsys, monkeypatch, call_counts, paranoid=True)


def check_artefact_counts(capsys, monkeypatch, call_counts, paranoid):
    """Each artefact is built once, and the group parsed once; the subset
    table only under --paranoid, as the certified path reads the
    semilattice from the blocks through vertex 0; the partition graph only
    under --paranoid, as the certified path decides the construction
    agreement from those blocks and reads the Cayley array alone; the
    vertex codec's digits once; and D_0's chain acts on every vertex only
    under --paranoid, as the certified path reads it on the closed
    neighbourhood of 0."""
    from functools import cached_property

    from diaglab import diaggraph, groups, semilattice, symmetry

    counted, calls = call_counts
    digits = semilattice.VertexCodec.digits

    def counted_digits(codec):
        calls["digits"] = calls.get("digits", 0) + 1
        return digits.func(codec)

    recorded = cached_property(counted_digits)
    recorded.__set_name__(semilattice.VertexCodec, "digits")
    monkeypatch.setattr(semilattice.VertexCodec, "digits", recorded)
    counted(diaggraph, "build_graph")
    counted(diaggraph, "cayley_graph")
    counted(semilattice, "minimal_partitions")
    counted(semilattice, "subset_suprema")
    counted(symmetry, "diagonal_group_generators")
    counted(symmetry, "build_chain")
    counted(groups, "automorphism_group")
    counted(groups, "parse_group_spec")
    degrees = []
    chain = symmetry.StabilizerChain
    monkeypatch.setattr(symmetry, "StabilizerChain",
                        lambda degree, *base: degrees.append(degree) or chain(degree, *base))
    code, _, _ = run_cli(capsys, "check-all", "--group", "C3", "--m", "3",
                         *["--paranoid"] * paranoid)
    assert code == EXIT_OK
    assert calls == {"cayley_graph": 1, "minimal_partitions": 1, "digits": 1,
                     **({"subset_suprema": 1, "build_graph": 1} if paranoid else {}),
                     "diagonal_group_generators": 1, "build_chain": 1,
                     "automorphism_group": 1, "parse_group_spec": 1}
    # the chain that picks generators of Aut(C3) from its 2 elements, on 3
    # points, and one chain of D_0 on the 4 minimal partitions followed by
    # the 9 points of N[0], or by all 27 vertices under --paranoid
    assert degrees == [3, 4 + (27 if paranoid else 9)]


@pytest.mark.parametrize("group,m", [("Q8", 3), ("C4", 5)])
def test_check_all_never_builds_the_list_view(capsys, monkeypatch, group, m):
    # every search reads nbr; the graph keeps no list view, and the exact
    # colouring, whose DSATUR alone lists the rows of nbr, runs only under
    # --exact
    from diaglab import chromatic
    from diaglab.diaggraph import DiagGraph

    assert not hasattr(DiagGraph, "adjacency")
    built = []
    original = chromatic.chromatic_number_exact
    monkeypatch.setattr(chromatic, "chromatic_number_exact",
                        lambda graph, *a: built.append(graph.size) or original(graph, *a))
    code, _, _ = run_cli(capsys, "check-all", "--group", group, "--m", str(m))
    assert code == EXIT_OK
    assert built == []


@pytest.mark.parametrize("group,m", [("Q8", 3), ("C4", 5)])
def test_check_all_never_lists_the_edges(capsys, monkeypatch, group, m):
    # the edge counts read a mask over nbr; only the exporters list pairs
    from diaglab.diaggraph import DiagGraph

    listed = []
    monkeypatch.setattr(DiagGraph, "edges", lambda self: listed.append(self.size))
    code, _, _ = run_cli(capsys, "check-all", "--group", group, "--m", str(m))
    assert code == EXIT_OK
    assert listed == []


def test_parser_is_built_once_and_keeps_no_options(monkeypatch):
    from diaglab import cli

    seen = []
    monkeypatch.setattr(cli, "_dispatch", lambda args: seen.append(args) or EXIT_OK)
    assert main(["spectrum", "--group", "C3", "--m", "2", "--verify", "--paranoid"]) == EXIT_OK
    assert main(["diameter", "--group", "C4", "--m", "3"]) == EXIT_OK
    assert cli._parser() is cli._parser()
    first, second = seen
    assert first.paranoid and first.verify and first.command == "spectrum"
    assert second.command == "diameter" and (second.group, second.m) == ("C4", 3)
    assert not second.paranoid and not hasattr(second, "verify")


@pytest.mark.parametrize("command", ["cliques", "symmetry"])
def test_graph_commands_build_minimal_partitions_once(capsys, call_counts, command):
    from diaglab import diaggraph, semilattice

    counted, calls = call_counts
    counted(diaggraph, "build_graph")
    counted(semilattice, "minimal_partitions")
    counted(semilattice, "build_q")
    code, _, _ = run_cli(capsys, command, "--group", "C3", "--m", "3")
    assert code == EXIT_OK
    assert calls == {"build_graph": 1, "minimal_partitions": 1, "build_q": 4}


@pytest.mark.parametrize("argv,graphs", [
    (("build",), 1),
    (("diameter",), 1),
    (("spectrum", "--verify"), 1),
    (("chromatic",), 1),
    (("semilattice",), 0),
    (("mobius",), 0),
])
def test_single_commands_build_each_artefact_once(capsys, call_counts, argv, graphs):
    from diaglab import diaggraph, semilattice

    counted, calls = call_counts
    counted(diaggraph, "build_graph")
    counted(semilattice, "minimal_partitions")
    code, _, _ = run_cli(capsys, argv[0], "--group", "C3", "--m", "3", *argv[1:])
    assert code == EXIT_OK
    assert calls.get("minimal_partitions") == 1
    assert calls.get("build_graph", 0) == graphs


SYMMETRY_CLAIMS = {"symmetry-order", "vertex-transitive", "edge-transitive-iff",
                   "clique-transitive", "primitivity", "partition-action"}


def test_check_all_past_automorphism_cap_leaves_out_symmetry_claims(
        capsys, ledger_validator):
    # C27 has more elements than the automorphism search takes
    code, out, _ = run_cli(capsys, "check-all", "--group", "C27", "--m", "2")
    assert code == EXIT_OK
    data = json.loads(out)
    ledger_validator.validate(data)
    assert data["ok"] is True
    names = {c["claim"] for c in data["claims"]}
    assert not names & SYMMETRY_CLAIMS
    assert {"construction-agreement", "clique-structure", "chromatic-number",
            "hall-paige"} <= names


def test_grid_past_automorphism_cap_records_a_ledger(capsys, ledger_validator):
    code, out, _ = run_cli(capsys, "grid", "--groups", "C27", "--m-min", "2",
                           "--m-max", "2")
    assert code == EXIT_OK
    [entry] = json.loads(out)["instances"]
    assert "error" not in entry and entry["ok"] is True
    ledger_validator.validate(entry)


def test_oversized_group_atom_exits_at_cap():
    # The cap is checked before the table is built.  The child gets a 1 GiB
    # address-space limit, so a regression that allocates the 10^10-entry
    # table fails with a MemoryError instead of exhausting the host.
    import resource

    def limit() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "diaglab", "build", "--group", "C100000", "--m", "1"],
        capture_output=True, text=True, preexec_fn=limit, timeout=60,
    )
    assert proc.returncode == EXIT_CAP
    assert "above the group order cap 512" in proc.stderr


def test_over_long_group_atom_exits_at_cap(capsys):
    code, out, err = run_cli(capsys, "check-all", "--group", "C" + "9" * 5000,
                             "--m", "2")
    assert code == EXIT_CAP
    assert out == ""
    assert "5000-digit index is above the group order cap 512" in err


def test_check_all_needs_no_exact_colouring(capsys, monkeypatch):
    from diaglab import chromatic

    def refuse(*args, **kwargs):
        raise RuntimeError("exact colouring search called")

    monkeypatch.setattr(chromatic, "chromatic_number_exact", refuse)
    for group, m in [("C2", "2"), ("C4", "2"), ("C6", "2"), ("S3", "2"),
                     ("C2", "4"), ("C8", "2")]:
        code, out, _ = run_cli(capsys, "check-all", "--group", group, "--m", m)
        assert code == EXIT_OK, (group, m)
        data = json.loads(out)
        claims = {c["claim"]: c for c in data["claims"]}
        q = data["q"]
        assert claims["chromatic-bounds"]["detail"] == f"bounds [{q}, {q + 2}]"
        assert claims["chromatic-conjecture"]["passed"] is True
    for group in ("C17", "C5xC5"):
        code, out, _ = run_cli(capsys, "check-all", "--group", group, "--m", "2")
        assert code == EXIT_OK, group
        claims = {c["claim"]: c for c in json.loads(out)["claims"]}
        assert claims["hall-paige"]["passed"] is True
        assert claims["chromatic-number"]["passed"] is True


def test_check_all_contains_chromatic_assertion(capsys, monkeypatch, ledger_validator):
    from diaglab import cli

    code, out, _ = run_cli(capsys, "check-all", "--group", "C3", "--m", "2")
    full = [c["claim"] for c in json.loads(out)["claims"]]

    def broken(*args, **kwargs):
        raise AssertionError("injected colouring failure")

    monkeypatch.setattr(cli, "chromatic_verdict", broken)
    code, out, _ = run_cli(capsys, "check-all", "--group", "C3", "--m", "2")
    assert code == EXIT_CHECK_FAILED
    data = json.loads(out)
    ledger_validator.validate(data)
    assert data["failures"] == ["chromatic-number"]
    assert [c["claim"] for c in data["claims"]] == full
    failed = next(c for c in data["claims"] if c["claim"] == "chromatic-number")
    assert failed["detail"] == "injected colouring failure"


SYMMETRY_BREAKAGES = pytest.mark.parametrize("breakage,message", [
    ("no-translations", "the translations among the generators are not transitive"),
    ("not-an-automorphism", "generator injected maps an item outside the item set"),
    ("stabiliser-not-an-automorphism",
     "generator injected maps an item outside the item set"),
    ("translation-moves-a-partition", "a right translation moves a minimal partition"),
])


def break_generators(monkeypatch, breakage):
    """Make the diagonal-group generators of C3 m=2 lose the right
    multiplications, or gain a transposition that is no graph automorphism,
    or a right multiplication composed with the coordinate swap, which
    swaps Q_1 and Q_2; or give the vertex stabiliser a transposition of a
    neighbour and a non-neighbour of 0, which only the orbit counts' link
    lookups see."""
    from diaglab import symmetry

    if breakage == "stabiliser-not-an-automorphism":
        stabiliser = symmetry.stabiliser_and_normalisers

        def broken(*args):
            swap = np.arange(9)
            swap[[1, 7]] = 7, 1  # (1, 0) is a neighbour of 0, (1, 2) is not
            generators, normalisers = stabiliser(*args)
            return generators + [symmetry.TaggedPerm(tag="injected", image=swap)], normalisers

        monkeypatch.setattr(symmetry, "stabiliser_and_normalisers", broken)
        return
    original = symmetry.diagonal_group_generators

    def broken(*args):
        perms = original(*args)
        if breakage == "no-translations":
            return [p for p in perms if p.tag != "right-mult"]
        if breakage == "translation-moves-a-partition":
            swap = next(p.image for p in perms if p.tag == "coord-perm")
            return perms + [symmetry.TaggedPerm(tag="right-mult", image=swap[perms[0].image])]
        swap = list(range(len(perms[0].image)))
        swap[1], swap[2] = 2, 1  # (1, 0) and (2, 0) have different neighbours
        return perms + [symmetry.TaggedPerm(tag="injected", image=swap)]

    monkeypatch.setattr(symmetry, "diagonal_group_generators", broken)


@SYMMETRY_BREAKAGES
def test_check_all_contains_symmetry_assertion(capsys, monkeypatch, ledger_validator,
                                               breakage, message):
    code, out, _ = run_cli(capsys, "check-all", "--group", "C3", "--m", "2")
    full = [c["claim"] for c in json.loads(out)["claims"]]
    break_generators(monkeypatch, breakage)
    code, out, _ = run_cli(capsys, "check-all", "--group", "C3", "--m", "2")
    assert code == EXIT_CHECK_FAILED
    data = json.loads(out)
    ledger_validator.validate(data)
    assert data["failures"] == ["symmetry-order"]
    assert [c["claim"] for c in data["claims"]] == [
        c for c in full if c not in SYMMETRY_CLAIMS] + ["symmetry-order"]
    assert data["claims"][-1]["detail"] == message


@SYMMETRY_BREAKAGES
def test_symmetry_reports_failed_check(capsys, monkeypatch, breakage, message):
    break_generators(monkeypatch, breakage)
    code, out, err = run_cli(capsys, "symmetry", "--group", "C3", "--m", "2")
    assert code == EXIT_CHECK_FAILED
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["cliques", "symmetry"])
def test_clique_commands_report_a_failed_census(capsys, monkeypatch, command):
    from diaglab import diaggraph

    census = diaggraph._clique_census

    def with_an_edge(graph, whole):
        cliques, counts = census(graph, whole)
        return cliques + [(0, graph.size - 1)], {**counts, 2: graph.size // 2}

    monkeypatch.setattr(diaggraph, "_clique_census", with_an_edge)
    code, out, err = run_cli(capsys, command, "--group", "C3", "--m", "3")
    assert (code, out) == (EXIT_CHECK_FAILED, "")
    assert err == "error: a maximal clique below maximum size exists\n"


WITNESS_MESSAGE = "C3: complete-mapping witness is not a bijection"


def refuse_witnesses(monkeypatch) -> None:
    """Make every complete-mapping witness fail its check."""
    from diaglab import chromatic

    monkeypatch.setattr(chromatic, "is_complete_mapping", lambda g, cm: False)


@pytest.mark.parametrize("argv", [("chromatic", "--group", "C3", "--m", "2"),
                                  ("mapping", "--group", "C3")])
def test_commands_report_a_witness_that_fails_its_check(capsys, monkeypatch, argv):
    refuse_witnesses(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (EXIT_CHECK_FAILED, "", f"error: {WITNESS_MESSAGE}\n")


@pytest.mark.parametrize("m,failures", [("2", ["chromatic-number", "hall-paige"]),
                                        ("3", ["hall-paige"])])
def test_check_all_records_a_witness_that_fails_its_check(capsys, monkeypatch,
                                                          ledger_validator, m, failures):
    # at m = 2 the verdict and the hall-paige claim each need the mapping;
    # at m = 3 only the hall-paige claim does
    code, out, _ = run_cli(capsys, "check-all", "--group", "C3", "--m", m)
    full = [c["claim"] for c in json.loads(out)["claims"]]
    refuse_witnesses(monkeypatch)
    code, out, err = run_cli(capsys, "check-all", "--group", "C3", "--m", m)
    assert (code, err) == (EXIT_CHECK_FAILED, "")
    data = json.loads(out)
    ledger_validator.validate(data)
    assert data["failures"] == failures
    assert [c["claim"] for c in data["claims"]] == full
    assert {c["detail"] for c in data["claims"] if c["claim"] in failures} == {
        WITNESS_MESSAGE}


@pytest.mark.parametrize("m", ["2", "3"])
def test_check_all_searches_for_a_complete_mapping_once(capsys, monkeypatch, call_counts, m):
    # also when the witness fails its check, where the verdict at m = 2 fails
    from diaglab import chromatic

    counted, calls = call_counts
    counted(chromatic, "find_complete_mapping")
    code, _, _ = run_cli(capsys, "check-all", "--group", "C3", "--m", m)
    assert (code, calls) == (EXIT_OK, {"find_complete_mapping": 1})
    refuse_witnesses(monkeypatch)
    code, out, _ = run_cli(capsys, "check-all", "--group", "C3", "--m", m)
    assert (code, calls) == (EXIT_CHECK_FAILED, {"find_complete_mapping": 2})
    assert "hall-paige" in json.loads(out)["failures"]


def test_grid_contains_instance_assertion(capsys, monkeypatch):
    from diaglab import cli

    original = cli.run_check_all

    def broken_for_c3(cfg, g):
        if cfg.group == "C3":
            raise AssertionError("injected instance failure")
        return original(cfg, g)

    monkeypatch.setattr(cli, "run_check_all", broken_for_c3)
    code, out, _ = run_cli(capsys, "grid", "--groups", "C2,C3,C4", "--m-min", "2",
                           "--m-max", "2")
    assert code == EXIT_CHECK_FAILED
    data = json.loads(out)
    assert data["ran"] == 3 and data["failed"] == 1
    by_group = {e["group"]: e for e in data["instances"]}
    assert by_group["C3"] == {"group": "C3", "m": 2, "error": "injected instance failure",
                              "ok": False}
    assert by_group["C2"]["ok"] is True and by_group["C4"]["ok"] is True



def doctor_walk_counts(monkeypatch):
    """Count one closed walk of length 1, a loop, where the graph has none:
    the multiplicities over the candidate eigenvalues are not integral."""
    from diaglab import spectral

    original = spectral._walk_counts

    def doctored(*args):
        traces = original(*args)
        return [traces[0], traces[1] + 1] + traces[2:]

    monkeypatch.setattr(spectral, "_walk_counts", doctored)


DOCTORED_MESSAGE = "non-integral or negative multiplicity 17/9 at eigenvalue -3"


def test_check_all_records_a_failed_spectrum_solve(capsys, monkeypatch, ledger_validator):
    code, out, _ = run_cli(capsys, "check-all", "--group", "C3", "--m", "2")
    full = [c["claim"] for c in json.loads(out)["claims"]]
    doctor_walk_counts(monkeypatch)
    code, out, _ = run_cli(capsys, "check-all", "--group", "C3", "--m", "2")
    assert code == EXIT_CHECK_FAILED
    data = json.loads(out)
    ledger_validator.validate(data)
    assert data["failures"] == ["spectrum-agreement"]
    assert [c["claim"] for c in data["claims"]] == full
    failed = next(c for c in data["claims"] if c["claim"] == "spectrum-agreement")
    assert failed["detail"] == DOCTORED_MESSAGE


def test_spectrum_verify_reports_a_failed_solve(capsys, monkeypatch):
    doctor_walk_counts(monkeypatch)
    code, out, err = run_cli(capsys, "spectrum", "--group", "C3", "--m", "2", "--verify")
    assert code == EXIT_CHECK_FAILED
    data = json.loads(out)
    assert data["verified"] is False
    assert data["entries"] == [[-3, 2], [0, 6], [6, 1]]
    assert err == f"error: {DOCTORED_MESSAGE}\n"


@pytest.mark.parametrize("module,name,claim", [
    ("semilattice", "verify_mobius", "mobius-closed-form"),
    ("diaggraph", "clique_cover", "clique-cover"),
])
def test_check_all_records_a_failed_assertion(capsys, monkeypatch, ledger_validator,
                                              module, name, claim):
    code, out, _ = run_cli(capsys, "check-all", "--group", "C3", "--m", "2")
    full = [c["claim"] for c in json.loads(out)["claims"]]

    def fail(*args, **kwargs):
        raise AssertionError(f"doctored {name}")

    monkeypatch.setattr(import_module(f"diaglab.{module}"), name, fail)
    code, out, _ = run_cli(capsys, "check-all", "--group", "C3", "--m", "2")
    assert code == EXIT_CHECK_FAILED
    data = json.loads(out)
    ledger_validator.validate(data)
    assert data["failures"] == [claim]
    assert [c["claim"] for c in data["claims"]] == full
    failed = next(c for c in data["claims"] if c["claim"] == claim)
    assert failed["detail"] == f"doctored {name}"


@pytest.mark.parametrize("exc,message", [(MemoryError(), "out of memory"),
                                         (MemoryError("no room"), "no room")])
def test_memory_error_exits_with_cap_code(capsys, monkeypatch, exc, message):
    from diaglab import cli

    def exhausted(cfg, g):
        raise exc

    monkeypatch.setattr(cli, "run_check_all", exhausted)
    code, out, err = run_cli(capsys, "check-all", "--group", "C3", "--m", "2")
    assert code == EXIT_CAP
    assert out == ""
    assert err == f"error: {message}\n"
