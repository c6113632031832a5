"""CLI behavior: spec parsing, suites, exit codes, deterministic output."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from species_forge.cli import main
from species_forge.core import GroundSet, set_partitions
from species_forge.engine import AXIOMS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_unknown_species_rejected(capsys):
    code, out, err = run_cli(capsys, "check", "--species", "Nope", "--max-n", "2")
    assert code == 1
    assert "valid specs" in err


def test_unknown_suite_rejected(capsys):
    # a usage error exits 1: exit 2 is kept for a contradicted theorem
    for argv in (["check", "--species", "Pi", "--suite", "bogus"],
                 ["check", "--species", "Pi", "--max-n", "x"],
                 ["hasse", "--species", "Pi", "--output", "md"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv
        assert ": error: " in capsys.readouterr().err.splitlines()[-1], argv


def test_commands_declare_exactly_the_options_they_read(capsys):
    import argparse
    import inspect
    import re
    from species_forge.cli import COMMANDS, OPTIONS, build_parser

    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(COMMANDS)
    settable = 0
    for command, (fn, _, options) in COMMANDS.items():
        declared = [a.option_strings[0] for a in subparsers.choices[command]._actions
                    if a.dest != "help"]
        assert declared == ["--species", "--max-n", *options], command
        settable += len(declared)
        read = set(re.findall(r"\bargs\.(\w+)", inspect.getsource(fn)))
        assert read == {flag[2:].replace("-", "_") for flag in declared}, command
        for flag in OPTIONS.keys() - set(declared):
            spec = OPTIONS[flag]
            value = [] if "action" in spec else [str(spec.get("choices", [1])[0])]
            with pytest.raises(SystemExit) as exc:
                main([command, "--species", "Pi", "--max-n", "1", flag, *value])
            assert exc.value.code == 1, (command, flag)
            assert "unrecognized arguments" in capsys.readouterr().err
    assert settable == 29
    with pytest.raises(SystemExit) as exc:
        main(["check", "--help"])
    assert exc.value.code == 0


def test_deeply_nested_spec_is_one_error_line(capsys):
    spec = "S(" * 2000 + "E" + ")" * 2000
    code, out, err = run_cli(capsys, "table", "--species", spec, "--max-n", "2")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "valid specs" in err and "Traceback" not in err


def test_ceiling_enforced(capsys):
    code, out, err = run_cli(capsys, "check", "--species", "Pi", "--max-n", "9")
    assert code == 1
    assert "ceiling" in err


def test_bad_ceiling_variable_is_one_error_line(capsys, monkeypatch):
    monkeypatch.setenv("SPECIES_FORGE_CEILING", "abc")
    code, out, err = run_cli(capsys, "check", "--species", "Pi", "--max-n", "2")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "SPECIES_FORGE_CEILING" in err


def test_negative_ceiling_variable_is_one_error_line(capsys, monkeypatch):
    monkeypatch.setenv("SPECIES_FORGE_CEILING", "-3")
    code, out, err = run_cli(capsys, "check", "--species", "Pi", "--max-n", "2")
    assert code == 1 and out == ""
    assert err == "error: SPECIES_FORGE_CEILING must be a nonnegative integer, got '-3'\n"


@pytest.mark.parametrize("max_n, warned", [(4, False), (5, True), (6, True)])
def test_large_n_warns_once_on_stderr(capsys, monkeypatch, max_n, warned):
    monkeypatch.setenv("SPECIES_FORGE_CEILING", "6")
    code, out, err = run_cli(capsys, "table", "--species", "E", "--max-n", str(max_n))
    assert code == 0 and "warning" not in out
    lines = [ln for ln in err.splitlines() if ln.startswith("warning:")]
    assert lines == ([f"warning: n = {max_n} components are large; expect a long run"]
                     if warned else [])


def test_check_axioms_json_shape(capsys):
    code, out, _ = run_cli(capsys, "check", "--species", "Pi",
                           "--suite", "axioms", "--max-n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["species"] == "Pi"
    names = {c["check"] for c in payload["checks"]}
    assert {"associative", "hopf_compatible", "delta_nabla_identity"} <= names
    for c in payload["checks"]:
        assert c["elapsed_ms"] == 0   # timings zeroed by default
        assert set(c) <= {"check", "species", "n", "status", "witness",
                          "expected", "elapsed_ms"}


def test_check_L_expected_failures_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "check", "--species", "L",
                           "--suite", "axioms", "--max-n", "2")
    assert code == 0
    payload = json.loads(out)
    comm = [c for c in payload["checks"] if c["check"] == "commutative"][0]
    assert comm["status"] == "fail" and comm["expected"] is True
    assert payload["summary"]["fail_unexpected"] == 0


def test_check_determinism(capsys):
    code1, out1, _ = run_cli(capsys, "check", "--species", "Pi",
                             "--suite", "axioms", "--max-n", "2")
    code2, out2, _ = run_cli(capsys, "check", "--species", "Pi",
                             "--suite", "axioms", "--max-n", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_check_md_output(capsys):
    code, out, _ = run_cli(capsys, "check", "--species", "Pi",
                           "--suite", "axioms", "--max-n", "2", "--output", "md")
    assert code == 0
    assert "| associative | pass |" in out


def test_md_rows_name_their_variant(capsys):
    code, out, _ = run_cli(capsys, "check", "--species", "Pi",
                           "--suite", "full", "--max-n", "2", "--output", "md")
    assert code == 0
    assert "| check | status | expected | species |" in out
    fsd = [line for line in out.splitlines() if line.startswith("| fsd |")]
    assert len(fsd) == 2
    species = [line.split("|")[-2].strip() for line in fsd]
    assert species[0] != species[1]
    assert set(species) == {"Pi[nabla^mu,Delta^mu]", "Pi[nabla^mu,Delta^pi]"}


@pytest.mark.parametrize("spec,skipped", [
    ("Pi", ["lsd_primitive_profile"]),
    ("L", ["primitives_match", "lsd_primitive_profile", "nabla_x_decomposition"]),
    ("S(E_C:2)", ["dual_tables", "preorder_rectangle"]),
], ids=["Pi", "L", "S(E_C:2)"])
def test_checks_left_out_are_skip_rows(capsys, spec, skipped):
    code, out, _ = run_cli(capsys, "check", "--species", spec,
                           "--suite", "full", "--max-n", "2")
    assert code == 0
    rows = {c["check"]: c for c in json.loads(out)["checks"]}
    for name in skipped:
        assert rows[name]["status"] == "skip" and rows[name]["witness"]["reason"]


def test_x_species_has_no_systems(capsys):
    code, out, err = run_cli(capsys, "check", "--species", "X_C:2", "--max-n", "2")
    assert code == 1
    assert "no systems" in err


def test_table_dims(capsys):
    code, out, _ = run_cli(capsys, "table", "--species", "Pi", "--max-n", "4")
    payload = json.loads(out)
    assert [row["dim"] for row in payload["dims"]] == [1, 1, 2, 5, 15]
    # coinvariant dimensions count orbits, i.e. integer partitions for Pi
    assert [row["orbits"] for row in payload["dims"]] == [1, 1, 2, 3, 5]
    assert code == 0


@pytest.mark.parametrize("spec", ["E_C:2", "L", "Perm", "Pi", "S(X_C:2)", "S(E_C:2)"])
def test_orbit_count_matches_every_sigma(spec):
    # the orbits are read off the adjacent transpositions alone; here every
    # sigma transports every element
    from species_forge.catalog import parse_species
    from species_forge.cli import _orbit_count
    from species_forge.core import Bijection, GroundSet
    entry = parse_species(spec)
    for n in range(5):
        I = GroundSet.first(n)
        orbits = {frozenset(entry.species.transport(s, x) for s in Bijection.all_endo(I))
                  for x in entry.species.elements(I)}
        assert _orbit_count(entry, I) == len(orbits), (spec, n)


def test_table_perm_dims(capsys):
    code, out, _ = run_cli(capsys, "table", "--species", "Perm", "--max-n", "4")
    payload = json.loads(out)
    assert [row["dim"] for row in payload["dims"]] == [1, 1, 2, 6, 24]


def test_table_constants(capsys):
    # the ({1}, {2}) block in full: the b entries are sorted by sort_key, which
    # for Pi is not the element order ({1,2} comes before {1|2} in P[{1,2}])
    blocks = {"Pi": ["a[{1},{2};{1|2}] = 1", "b[{1},{2};{1|2}] = 1", "b[{1},{2};{1,2}] = 1"],
              "L": ["a[(1),(2);(1,2)] = 1", "b[(1),(2);(1,2)] = 1", "b[(1),(2);(2,1)] = 1"]}
    for spec, entries in blocks.items():
        code, out, _ = run_cli(capsys, "table", "--species", spec, "--max-n", "2",
                               "--constants")
        payload = json.loads(out)
        assert code == 0 and payload["variant"] == "nabla^mu,Delta^pi"
        got = {(b["S"], b["T"]): b["entries"] for b in payload["constants"]}
        assert got["{1}", "{2}"] == entries, spec


def test_hasse_requires_commutative(capsys):
    code, out, err = run_cli(capsys, "hasse", "--species", "L", "--max-n", "2")
    assert code == 1
    assert "not commutative" in err


def test_hasse_pi3(capsys):
    code, out, _ = run_cli(capsys, "hasse", "--species", "Pi", "--max-n", "3")
    assert code == 0
    assert out.startswith('digraph "Pi_3"')
    assert out.count("->") == 6


def test_hasse_derived_pi_for_S_X2(capsys):
    code, out, _ = run_cli(capsys, "hasse", "--species", "S(X_C:2)", "--max-n", "2")
    assert code == 0
    assert out.count("->") == 0  # isomorphic to maps-to-colors: no relations


def test_derived_pi_reaches_every_suite_step(capsys):
    # the Runner derives pi once, so lsd and the full extras run for S(X_C:2)
    code, out, _ = run_cli(capsys, "check", "--species", "S(X_C:2)", "--suite", "full",
                           "--max-n", "3")
    assert code == 0
    payload = json.loads(out)
    status = {c["check"]: c["status"] for c in payload["checks"]}
    for name in ("pi_bijective", "fpi_intertwines", "lsd_primitive_profile",
                 "dual_tables", "preorder_rectangle"):
        assert status.get(name) == "pass", name
    assert "lsd" not in status and payload["summary"]["skip"] == 0
    axiom_rows = [c for c in payload["checks"] if c["check"] == "coassociative"]
    assert [c["species"] for c in axiom_rows] == ["S(X_C:2)[nabla^mu,Delta^pi]"]
    # one self-compatibility row, reporting both modes
    assert [c for c in status if c.startswith("self_compatible")] == ["self_compatible[both]"]


def test_antipode_command(capsys):
    code, out, _ = run_cli(capsys, "antipode", "--species", "Pi", "--max-n", "2",
                           "--variant", "mu-mu")
    payload = json.loads(out)
    assert code == 0
    n2 = payload["tables"][2]["entries"]
    assert "S({1|2}) = {1|2}" in n2
    assert "S({1,2}) = -1*{1,2}" in n2


def test_primitives_command(capsys):
    code, out, _ = run_cli(capsys, "primitives", "--species", "Perm", "--max-n", "3")
    payload = json.loads(out)
    assert [c["dim"] for c in payload["components"]] == [1, 1, 2]


@pytest.mark.parametrize("argv, maps", [
    (("fmu", "--species", "Pi"),
     [["{} -> {}"], ["{1:{1}} -> {1}"], ["{1:{1}|2:{2}} -> {1|2}", "{1,2:{1,2}} -> {1,2}"]]),
    (("fpi", "--species", "E_C:2"),
     [["[] -> []"], ["[1:0] -> [1:0]", "[1:1] -> [1:1]"],
      ["[1:0,2:0] -> [1:0,2:0]", "[1:0,2:1] -> [1:0,2:1]",
       "[1:1,2:0] -> [1:1,2:0]", "[1:1,2:1] -> [1:1,2:1]"]]),
], ids=["fmu", "fpi"])
def test_iso_maps_are_pinned(capsys, argv, maps):
    code, out, _ = run_cli(capsys, *argv, "--max-n", "2")
    assert code == 0
    assert json.loads(out)["maps"] == [{"n": n, "entries": e} for n, e in enumerate(maps)]


def test_fmu_command(capsys):
    code, out, _ = run_cli(capsys, "fmu", "--species", "Pi", "--max-n", "3")
    payload = json.loads(out)
    assert code == 0
    assert payload["intertwines"]["status"] == "pass"


def test_fpi_command(capsys):
    code, out, _ = run_cli(capsys, "fpi", "--species", "E_C:2", "--max-n", "2")
    payload = json.loads(out)
    assert code == 0
    assert payload["colors"] == ["[1:0]", "[1:1]"]


def test_fpi_rejects_Pi(capsys):
    code, out, err = run_cli(capsys, "fpi", "--species", "Pi", "--max-n", "2")
    assert code == 1
    assert "preconditions" in err or "bijective" in err


def test_reconstruct_pi_command(capsys):
    code, out, _ = run_cli(capsys, "reconstruct-pi", "--species", "Pi", "--max-n", "3")
    payload = json.loads(out)
    assert code == 0
    assert payload["roundtrip"]["status"] == "pass"


def test_reconstruct_pi_needs_a_commutative_product(capsys):
    # the order, hence the reconstruction, is undefined for L, as for hasse
    for command in ("reconstruct-pi", "hasse"):
        code, out, err = run_cli(capsys, command, "--species", "L", "--max-n", "2")
        assert (code, out, err) == (1, "", "order undefined for L: product is not commutative\n")


def test_escaped_fatal_inconsistency_is_one_line_and_exit_2(capsys, monkeypatch):
    from species_forge import order
    from species_forge.engine import FatalInconsistency

    def contradicted(entry, max_n):
        raise FatalInconsistency("order closure mismatch for Pi over {1,2}")

    monkeypatch.setattr(order, "check_reconstruct_roundtrip", contradicted)
    code, out, err = run_cli(capsys, "reconstruct-pi", "--species", "Pi", "--max-n", "2")
    assert (code, out, err) == (2, "", "fatal: order closure mismatch for Pi over {1,2}\n")


def test_exit_codes_from_report_counts():
    from species_forge.catalog import make_Pi
    from species_forge.cli import Runner
    from species_forge.core import CheckReport

    r = Runner(make_Pi(), 2, 0, False)
    r.reports.append(CheckReport("a", "Pi", 2, "pass"))
    assert r.exit_code() == 0
    bad = CheckReport("b", "Pi", 2, "fail")
    bad.expected = True
    r.reports.append(bad)
    assert r.exit_code() == 0          # declared negative control
    worse = CheckReport("c", "Pi", 2, "fail")
    worse.expected = False
    r.reports.append(worse)
    assert r.exit_code() == 1          # unexpected failure
    r.reports.append(CheckReport("d", "Pi", 2, "fatal", {"message": "boom"}))
    assert r.exit_code() == 2          # theorem contradiction wins


def test_fail_fast_stops_after_unexpected():
    from species_forge.catalog import make_Pi
    from species_forge.cli import Row, Runner
    from species_forge.core import CheckReport

    r = Runner(make_Pi(), 2, 0, True)
    r.run(Row("x", lambda r, _: CheckReport("x", "Pi", 2, "fail")))
    assert r.stopped
    assert r.run(Row("y", lambda r, _: CheckReport("y", "Pi", 2, "pass"))) is None


def test_runner_refuses_a_bad_max_n():
    # the refusal comes before pi is derived, so it is not taken for an
    # underivable coproduct and no suite writes rows on it
    from species_forge.catalog import parse_species
    from species_forge.cli import Runner
    from species_forge.core import hard_ceiling

    for max_n in (-1, hard_ceiling() + 1):
        with pytest.raises(ValueError, match="max_n"):
            Runner(parse_species("S(X_C:2)"), max_n, 0, False)


def test_failing_transport_row_stops_fail_fast():
    from species_forge.catalog import CatalogEntry, MultSystem
    from species_forge.cli import Runner
    from species_forge.controls import label_dropping_species
    from species_forge.core import LabeledPartitionElt

    sp = label_dropping_species()
    mu = MultSystem(sp, lambda S, T, x, y: LabeledPartitionElt(S.union(T), x.blocks + y.blocks))
    entry = CatalogEntry("broken", sp, mu, None)
    r = Runner(entry, 2, 0, True)
    r.run_suite("axioms")
    assert [(rep.check, rep.species, rep.n, rep.status) for rep in r.reports] == [
        ("transport", "broken", 0, "pass"), ("transport", "broken", 1, "fail")]
    assert r.stopped and r.exit_code() == 1
    r = Runner(entry, 2, 0, False)
    r.run_suite("axioms")
    assert len(r.reports) > 2          # without fail-fast the suite goes on


def _drops_second_factor():
    from species_forge.catalog import CatalogEntry, MultSystem, make_Pi
    pi = make_Pi()
    return CatalogEntry("Pi", pi.species, MultSystem(pi.species, lambda S, T, x, y: x), pi.pi)


def test_raising_check_is_a_fail_row_and_the_suite_goes_on():
    from species_forge.cli import Runner

    r = Runner(_drops_second_factor(), 2, 0, False)
    r.run_suite("axioms")
    rows = [(rep.check, rep.n, rep.status) for rep in r.reports]
    assert rows[:4] == [("transport", 0, "pass"), ("transport", 1, "pass"),
                        ("transport", 2, "pass"), ("naturality", 2, "fail")]
    assert r.reports[3].expected is False
    assert r.reports[3].witness == {"error": "ValueError",
                                    "message": "rule result {} lives over {}, not {1}"}
    assert ("coassociative", 2, "pass") in rows   # later checks still ran
    assert len(rows) == 4 + len(AXIOMS) + 1
    assert set(r.summary()) == {"pass", "fail_expected", "fail_unexpected", "fatal", "skip"}
    assert r.exit_code() == 1
    r = Runner(_drops_second_factor(), 2, 0, True)
    r.run_suite("axioms")
    assert len(r.reports) == 4 and r.stopped       # --fail-fast still stops


def test_lsd_without_a_product_leaves_an_fsd_skip_row():
    from species_forge.catalog import CatalogEntry, make_Pi
    from species_forge.cli import Runner

    pi = make_Pi()
    r = Runner(CatalogEntry("Pi", pi.species, None, pi.pi), 2, 0, False)
    r.run_suite("lsd")
    rows = {rep.check: rep for rep in r.reports}
    assert list(rows) == ["pi_bijective", "cocommutative", "fsd", "fpi_intertwines",
                          "lsd_primitive_profile"]
    assert (rows["fsd"].species, rows["fsd"].status, rows["fsd"].witness) == (
        "Pi", "skip", {"reason": "needs both systems"})


def test_fail_fast_writes_no_skip_row_after_the_stop():
    # Pi's coproduct is not bijective: declared bijective, pi_bijective fails
    # unexpectedly, and --fail-fast writes no row after it, skip rows included
    from species_forge.catalog import CatalogEntry, make_Pi
    from species_forge.cli import Runner

    pi = make_Pi()
    entry = CatalogEntry("Pi", pi.species, None, pi.pi, pi_flags=frozenset({"bijective"}))
    r = Runner(entry, 2, 0, True)
    r.run_suite("lsd")
    assert [(rep.check, rep.status) for rep in r.reports] == [("pi_bijective", "fail")]
    assert r.stopped and r.exit_code() == 1
    r = Runner(entry, 2, 0, False)     # without --fail-fast every row is written
    r.run_suite("lsd")
    assert [(rep.check, rep.status) for rep in r.reports] == [
        ("pi_bijective", "fail"), ("cocommutative", "pass"), ("fsd", "skip"),
        ("fpi_intertwines", "fail"), ("lsd_primitive_profile", "fail")]


def test_transport_stop_leaves_skip_rows():
    from species_forge.catalog import CatalogEntry, MultSystem
    from species_forge.cli import Runner
    from species_forge.controls import label_dropping_species
    from species_forge.core import LabeledPartitionElt

    sp = label_dropping_species()
    mu = MultSystem(sp, lambda S, T, x, y: LabeledPartitionElt(S.union(T), x.blocks + y.blocks))
    r = Runner(CatalogEntry("broken", sp, mu, None), 3, 0, False)
    r.run_suite("axioms")
    rows = [(rep.check, rep.n, rep.status) for rep in r.reports]
    assert rows[:5] == [("transport", 0, "pass"), ("transport", 1, "fail"),
                        ("transport", 2, "skip"), ("transport", 3, "skip"),
                        ("naturality", 3, "pass")]
    assert r.reports[2].witness == r.reports[3].witness == {
        "reason": "transport did not pass at n=1"}


def test_error_rows_are_named_after_the_check():
    from species_forge.cli import Runner

    r = Runner(_drops_second_factor(), 2, 0, False)
    r.run_suite("axioms")
    errors = [(rep.check, rep.species) for rep in r.reports
              if rep.status == "fail" and "error" in rep.witness]
    variant = "Pi[nabla^mu,Delta^pi]"
    assert errors == [("naturality", "Pi"), ("associative", variant), ("commutative", variant),
                      ("unital", variant), ("hopf_compatible", variant),
                      ("delta_nabla_identity", variant)]


def _raises(r, arg):
    raise RuntimeError("boom")


def test_every_row_of_full_is_named_by_the_table():
    # each call reports under its row's name; the row that a raising call
    # writes instead carries that name and the species the check reports on
    from species_forge import cli
    from species_forge.catalog import parse_species

    seen = []

    class Recording(cli.Runner):
        def run(self, row, arg=None):
            rep = super().run(row, arg)
            raised = super().run(row._replace(call=_raises), arg)
            seen.append((row.name, rep.check, rep.species, raised.check, raised.species))
            assert raised.witness == {"error": "RuntimeError", "message": "boom"}
            if rep.status == "pass":    # a pass carries the n its check ran at
                assert raised.n == rep.n, row.name
            return rep

    for spec in ("Pi", "E_C:2", "L", "S(X_C:2)"):
        Recording(parse_species(spec), 2, 0, False).run_suite("full")
    names = {name for name, *_ in seen}
    assert names == {row.name for suite in cli.SUITE_TABLE.values() for row in suite.rows}
    assert len(names) >= 25
    for name, check, species, raised_check, raised_species in seen:
        assert check == raised_check == name
        assert raised_species == species, name


def test_a_raising_row_records_the_n_it_ran_at():
    # a per_n row at the size of its ground set, a row that stops at three
    # points at min(max_n, 3), the controls at 3 always, any other at max_n
    from species_forge import cli
    from species_forge.catalog import parse_species
    from species_forge.core import grounds

    rows = {row.name: row for suite in cli.SUITE_TABLE.values() for row in suite.rows}
    capped = ("fpi_intertwines", "lsd_primitive_profile", "basis_change",
              "antipode_convolution", "nabla_x_decomposition")
    for max_n in (2, 4):
        r = cli.Runner(parse_species("Pi"), max_n, 0, False)

        def raised(name, arg=None):
            return r.run(rows[name]._replace(call=_raises), arg)

        for I in grounds(max_n):
            rep = raised("transport", I)
            assert (rep.check, rep.n, rep.status) == ("transport", len(I), "fail")
        for name in capped:
            assert raised(name).n == min(max_n, 3), name
        assert raised("selfcompat_controls").n == 3
        assert raised("naturality").n == raised("preorder_rectangle").n == max_n


def test_timings_rows_carry_a_peak_that_never_decreases(capsys):
    argv = ("check", "--species", "Pi", "--suite", "full", "--max-n", "2")
    _, out, _ = run_cli(capsys, *argv)
    assert not any("peak_rss_kb" in c for c in json.loads(out)["checks"])
    _, out, _ = run_cli(capsys, *argv, "--timings")
    peaks = [c["peak_rss_kb"] for c in json.loads(out)["checks"]]
    assert len(peaks) >= 25 and peaks[0] > 0
    assert peaks == sorted(peaks)


def test_E_C0_is_degenerate_but_valid(capsys):
    code, out, _ = run_cli(capsys, "table", "--species", "E_C:0", "--max-n", "3")
    payload = json.loads(out)
    assert [row["dim"] for row in payload["dims"]] == [1, 0, 0, 0]
    assert code == 0


def test_check_seed_changes_controls_only(capsys):
    code1, out1, _ = run_cli(capsys, "check", "--species", "E", "--suite", "ssd",
                             "--max-n", "2", "--seed", "0")
    code2, out2, _ = run_cli(capsys, "check", "--species", "E", "--suite", "ssd",
                             "--max-n", "2", "--seed", "3")
    assert code1 == code2 == 0
    p1, p2 = json.loads(out1), json.loads(out2)
    assert p1["seed"] == 0 and p2["seed"] == 3
    c1 = [c for c in p1["checks"] if c["check"] == "selfcompat_controls"][0]
    c2 = [c for c in p2["checks"] if c["check"] == "selfcompat_controls"][0]
    assert c1["status"] == c2["status"] == "pass"
    assert c1["witness"]["systems"] >= 50 and c2["witness"]["systems"] >= 50


def _stdout_under_hash_seeds(*argv) -> list[str]:
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "species_forge.cli", *argv],
            env=env, capture_output=True, text=True, check=True)
        outs.append(proc.stdout)
    return outs


def test_ssd_output_stable_across_hash_seeds():
    # the failing direct witness for L prints a multiset of pairs
    outs = _stdout_under_hash_seeds("check", "--species", "L", "--suite", "ssd",
                                    "--max-n", "3")
    assert outs[0] == outs[1]
    assert '"mode": "direct"' in outs[0]


def test_axioms_output_stable_across_hash_seeds():
    # transport and naturality tabulate through dicts keyed by elements
    outs = _stdout_under_hash_seeds("check", "--species", "Perm", "--suite", "axioms",
                                    "--max-n", "4")
    assert outs[0] == outs[1]
    assert '"check": "naturality"' in outs[0]


@pytest.mark.parametrize("argv", [
    ("primitives", "--species", "Perm", "--max-n", "4"),
    ("check", "--species", "Pi", "--suite", "order", "--max-n", "4"),
], ids=lambda argv: argv[0])
def test_structure_output_stable_across_hash_seeds(argv):
    # elimination and the order's closure iterate dicts and sets
    outs = _stdout_under_hash_seeds(*argv)
    assert outs[0] == outs[1]


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # in a fresh interpreter: pytest itself has imported both here; together
    # they cost about 20 ms of every CLI process's start
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = ("import json, sys; before = set(sys.modules); import species_forge.cli; "
             "print(json.dumps(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    loaded = json.loads(proc.stdout)
    assert "species_forge.cli" in loaded
    assert not {"dataclasses", "inspect"} & set(loaded), loaded


@pytest.mark.parametrize("read,argv", [
    # about 240 kB of JSON, far more than a pipe holds: the CLI is still
    # writing when the reader goes away
    (16, ("table", "--species", "Perm", "--max-n", "5", "--constants")),
    # a few hundred bytes, which a buffered stdout writes only when main
    # flushes it, after the reader is gone
    (0, ("table", "--species", "E", "--max-n", "2")),
], ids=["while-writing", "at-flush"])
def test_reader_closing_stdout_early_is_exit_1_without_traceback(read, argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "species_forge.cli", *argv],
        env=dict(env, PYTHONPATH=src), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(read)) == read
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in stderr and "Exception ignored" not in stderr, stderr


def _cyclic_garbage(run):
    """How many objects the collector finds after ``run()``, run with the
    collector off."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


def test_runs_leave_no_cyclic_garbage(capsys):
    # an object in a reference cycle (say, a closure that refers to itself)
    # outlives its run until the collector finds it: no run may leave more
    # than the argument parsing of an n = 0 run; the CI step "No cyclic
    # garbage" sweeps every suite and command
    for n in range(6):
        assert _cyclic_garbage(lambda: set_partitions(GroundSet.first(n))) == 0, n
    base = _cyclic_garbage(lambda: main(["check", "--species", "Pi", "--suite", "order",
                                         "--max-n", "0"]))
    for argv in (["check", "--species", "Pi", "--suite", "order", "--max-n", "5"],
                 ["check", "--species", "Pi", "--suite", "full", "--max-n", "3"]):
        assert _cyclic_garbage(lambda: main(argv)) <= base, argv
    capsys.readouterr()


def test_full_run_decides_each_check_once(monkeypatch, capsys):
    # every caller reads check_axiom, check_fsd and check_self_compatible
    # through engine.memo: no (check, triple or species, arguments) runs twice
    from species_forge import classify, cli, engine, order

    n0 = engine.DEFAULT_MAX_N
    keys = {
        "check_axiom": lambda h, axiom, max_n=n0: (h.name, axiom, max_n),
        "check_fsd": lambda h, max_n=n0: (h.name, max_n),
        "check_self_compatible": lambda mu, mode="both", max_n=n0, species_key=None:
            (species_key or mu.species.name, mode, max_n),
    }
    calls = []
    for name, key in keys.items():
        real = getattr(engine, name)

        def spy(*a, name=name, key=key, real=real, **k):
            calls.append((name, *key(*a, **k)))
            return real(*a, **k)

        for module in (engine, classify, order, cli):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, spy)
    assert main(["check", "--species", "Pi", "--suite", "full", "--max-n", "3"]) == 0
    capsys.readouterr()
    assert {call[0] for call in calls} == set(keys)  # every spy was reached
    assert len(set(calls)) == len(calls), sorted(c for c in set(calls) if calls.count(c) > 1)


def test_a_report_handed_to_two_rows_is_not_rewritten():
    # engine.memo hands the report it keeps to every caller; the runner sets
    # expected, elapsed_ms and peak_rss_kb on a copy of its own
    from species_forge.catalog import make_Pi
    from species_forge.cli import Row, Runner
    from species_forge.core import CheckReport

    kept = CheckReport("fsd", "Pi", 3, "fail", {"reason": "kept"})
    r = Runner(make_Pi(), 3, 0, False)
    first = r.run(Row("fsd", lambda r, _: kept, declared=lambda e: False))
    second = r.run(Row("fsd", lambda r, _: kept))
    assert (first.expected, second.expected) == (True, False)
    assert first is not kept and second is not kept
    assert kept == CheckReport("fsd", "Pi", 3, "fail", {"reason": "kept"})
