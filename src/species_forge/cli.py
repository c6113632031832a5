"""Batch front end.

Select a species, run certification suites, and emit reports, dimension
tables, structure-constant dumps, antipode tables, and Hasse diagrams.
Output on stdout is byte-stable for a fixed (command, config, seed):
timings are zeroed unless explicitly requested, and every enumeration is
deterministic.

Exit codes: 0 when everything passed or failed only where the species
declares it should; 1 on an unexpected failure, a check that raises included,
on a usage error, or when the reader closes stdout before the output ends;
2 on a fatal inconsistency (a theorem contradicted, with a serialized
witness).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from typing import Callable, NamedTuple

from . import classify, controls, engine, order as order_mod
from .catalog import CatalogEntry, parse_species, with_derived_pi
from .core import (CheckReport, GroundSet, Bijection, _swap, decompositions, grounds,
                   transport_check)
from .engine import FatalInconsistency

SUITES = ("axioms", "ssd", "lsd", "order", "bases", "full")
VARIANTS = ("mu-pi", "mu-mu", "pi-mu", "pi-pi")


# ---------------------------------------------------------------------------
# suite machinery

class Row(NamedTuple):
    """One row of a suite's report: ``call(runner, arg)`` returns it, where
    ``arg`` is the (nabla^p, Delta^c) triple named by ``triple`` (a pair, or a
    function of the entry), or None; a row ``per_n`` is called once per {1..m},
    on that ground set, and a row that runs at another n than max_n gives it
    as ``n(max_n)``. Where ``runs(entry)`` is false it is a skip row with
    ``reason``; where ``declared(entry)`` is false its failure is expected. A
    call that raises writes a row named ``name``, on its triple's species, at
    the n the call ran at."""
    name: str
    call: Callable
    triple: tuple[str, str] | Callable | None = None
    runs: Callable[[CatalogEntry], bool] | None = None
    reason: str = ""
    declared: Callable[[CatalogEntry], bool] | None = None
    per_n: bool = False
    n: Callable[[int], int] | None = None


class Suite(NamedTuple):
    """Rows that run where ``runs(entry)`` holds; elsewhere one skip row,
    ``skip_row`` with ``reason``."""
    rows: tuple[Row, ...]
    runs: Callable[[CatalogEntry], bool] | None = None
    skip_row: str = ""
    reason: str = ""


class Runner:
    def __init__(self, entry: CatalogEntry, max_n: int, seed: int, fail_fast: bool):
        grounds(max_n)  # refused here, not swallowed by the derivation of pi
        self.entry = _maybe_derive_pi(entry, max_n)
        self.max_n = max_n
        self.seed = seed
        self.fail_fast = fail_fast
        self.reports: list[CheckReport] = []
        self.stopped = False

    def run_suite(self, name: str) -> None:
        """The rows of suite ``name``; ``full`` runs every suite of the table."""
        for key in SUITE_TABLE if name == "full" else (name,):
            suite = SUITE_TABLE[key]
            if suite.runs is not None and not suite.runs(self.entry):
                self.skip(suite.skip_row, suite.reason)
                continue
            triples: dict = {}  # each built once, and freed with its readers after the suite
            for row in suite.rows:
                if self.stopped:
                    return
                if row.runs is not None and not row.runs(self.entry):
                    self.skip(row.name, row.reason)
                elif row.per_n:
                    sets = grounds(self.max_n)
                    for I in sets:
                        if self.run(row, I).status != "pass":
                            for J in sets[len(I) + 1:]:
                                self.skip(row.name, f"{row.name} did not pass at n={len(I)}", len(J))
                            break
                else:
                    pc = row.triple(self.entry) if callable(row.triple) else row.triple
                    if pc is not None and pc not in triples:
                        triples[pc] = engine.hopf_from(self.entry, *pc)
                    self.run(row, triples.get(pc))

    def run(self, row: Row, arg=None) -> CheckReport | None:
        """Write the report of ``row.call(self, arg)``; None once the run has stopped."""
        if self.stopped:
            return None
        t0 = time.perf_counter()
        try:
            rep = row.call(self, arg)
        except Exception as exc:  # a check that raises ends its own row, not the suite
            fatal = isinstance(exc, FatalInconsistency)
            n = len(arg) if row.per_n else row.n(self.max_n) if row.n else self.max_n
            rep = CheckReport(row.name, arg.name if isinstance(arg, engine.LinearizedHopf)
                              else self.entry.key, n, "fatal" if fatal else "fail",
                              {"message": str(exc), "witness": exc.witness} if fatal
                              else {"error": type(exc).__name__, "message": str(exc)})
            expected = False
        else:
            expected = row.declared is not None and not row.declared(self.entry)
        # the row's own report, since engine.memo may hand the same one to other rows
        rep = CheckReport(rep.check, rep.species, rep.n, rep.status, rep.witness,
                          int((time.perf_counter() - t0) * 1000),
                          expected if rep.status == "fail" else None)
        self._append(rep)
        if self.fail_fast and (rep.status == "fatal"
                               or (rep.status == "fail" and not rep.expected)):
            self.stopped = True
        return rep

    def skip(self, name: str, reason: str, n: int | None = None) -> None:
        """A skip row for check ``name`` at n (max_n by default); none once
        the run has stopped, as ``run`` writes no row then."""
        if not self.stopped:
            self._append(CheckReport(name, self.entry.key, self.max_n if n is None else n,
                                     "skip", {"reason": reason}))

    def _append(self, rep: CheckReport) -> None:
        """Write a row, with the peak resident set of the process after it."""
        rep.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.reports.append(rep)

    def summary(self) -> dict:
        counts = dict.fromkeys(("pass", "fail_expected", "fail_unexpected", "fatal", "skip"), 0)
        for r in self.reports:
            if r.status == "fail":
                counts["fail_expected" if r.expected else "fail_unexpected"] += 1
            else:
                counts[r.status] += 1
        return counts

    def exit_code(self) -> int:
        counts = self.summary()
        return 2 if counts["fatal"] else 1 if counts["fail_unexpected"] else 0


def _up_to_3(max_n: int) -> int:
    """The n of the rows that run on at most three points."""
    return min(max_n, 3)


def _canonical_variant(entry: CatalogEntry) -> tuple[str, str]:
    p = "mu" if entry.mu is not None else "pi"
    return p, "pi" if entry.pi is not None else p


def _maybe_derive_pi(entry: CatalogEntry, max_n: int) -> CatalogEntry:
    if entry.pi is not None or entry.mu is None:
        return entry
    try:
        return with_derived_pi(entry, max_n)
    except ValueError:
        return entry


def _commutative(entry: CatalogEntry) -> bool:
    return "commutative" in entry.mu_flags


def _bijective(entry: CatalogEntry) -> bool:
    return "bijective" in entry.pi_flags


def _orderable(entry: CatalogEntry) -> bool:
    return entry.mu is not None and entry.pi is not None and _commutative(entry)


def _selfcompat_controls(entry: CatalogEntry, seed: int) -> CheckReport:
    """Both self-compatibility modes agree on every seeded perturbed system."""
    systems = controls.perturbed_systems(seed=seed, count=50)
    detected: dict[str, int] = {}
    for i, ps in enumerate(systems):
        systems[i] = None  # a checked system's cached tables and fibers can go
        rep = engine.memo("check_self_compatible", ps.mu, "both", 3, ps.key)
        if rep.status != "fail":
            return CheckReport("selfcompat_controls", entry.key, 3, "fail",
                               {"system": ps.key, "status": rep.status,
                                "witness": rep.witness})
        detected[ps.breaks] = detected.get(ps.breaks, 0) + 1
    return CheckReport("selfcompat_controls", entry.key, 3, "pass",
                       {"systems": len(systems), "broken_condition_counts": detected})


def _fsd_coco_consequence(entry: CatalogEntry, max_n: int) -> CheckReport:
    """Every available triple that passes the self-duality check is also
    commutative and cocommutative."""
    checked = []
    for p, c in (("mu", "mu"), ("pi", "pi"), ("mu", "pi"), ("pi", "mu")):
        if getattr(entry, p) is None or getattr(entry, c) is None:
            continue
        h = engine.hopf_from(entry, p, c)
        if engine.memo("check_fsd", h, max_n).ok:
            for axiom in ("commutative", "cocommutative"):
                rep = engine.memo("check_axiom", h, axiom, max_n)
                if not rep.ok:
                    return CheckReport("fsd_coco_consequence", entry.key, max_n, "fail",
                                       {"variant": f"{p},{c}", "axiom": axiom,
                                        "witness": rep.witness})
            checked.append(f"{p},{c}")
    return CheckReport("fsd_coco_consequence", entry.key, max_n, "pass",
                       {"fsd_variants": checked})


def _pi_bijective(entry: CatalogEntry, max_n: int) -> CheckReport:
    split = classify.first_non_bijective(entry.pi, max_n)
    if split is None:
        return CheckReport("pi_bijective", entry.key, max_n, "pass")
    S, T = split
    return CheckReport("pi_bijective", entry.key, len(S) + len(T), "fail",
                       {"S": list(S), "T": list(T)})


def _fpi_intertwines(entry: CatalogEntry, max_n: int) -> CheckReport:
    fp = classify.f_pi(entry.pi, max_n, species_key=entry.key)
    return classify.check_fpi_intertwines(fp, max_n)


def _lsd_primitive_profile(entry: CatalogEntry, max_n: int) -> CheckReport:
    """A linearly self-dual structure concentrates its primitives in degree one."""
    dims = classify.primitive_dims(engine.hopf_from(entry, "pi", "pi"), max_n)
    return CheckReport("lsd_primitive_profile", entry.key, max_n,
                       "fail" if any(dims[1:]) else "pass", {"dims": dims})


def _order_valid(so: order_mod.SpeciesOrder, max_n: int) -> CheckReport:
    return CheckReport("order_valid", so.key, max_n, "pass",
                       {"strict_pairs": [len(so.slice(I).strict) for I in grounds(max_n)]})


def _nabla_x_decomposition(entry: CatalogEntry, max_n: int) -> CheckReport:
    h = engine.hopf_from(entry, "mu", "mu")
    return CheckReport("nabla_x_decomposition", entry.key, max_n, "pass", {"total_dims": [
        classify.nabla_X_decompose(h, I).total_dim for I in grounds(max_n)]})


# Each suite's rows in report order; full runs every suite, the extras last.
# A call names each check through its module at call time, so a check rebound
# in its module (as perfbench/tracer.py does) is the one that runs.
SUITE_TABLE = {
    "axioms": Suite((
        Row("transport", lambda r, I: transport_check(r.entry.species, I), per_n=True),
        Row("naturality", lambda r, _: engine.check_naturality(r.entry, r.max_n)),
        *(Row(axiom, lambda r, h, axiom=axiom: engine.memo("check_axiom", h, axiom, r.max_n),
              _canonical_variant, declared=_commutative if axiom == "commutative" else None)
          for axiom in engine.AXIOMS),
        Row("delta_nabla_identity", lambda r, h: engine.check_delta_nabla_identity(h, r.max_n),
            _canonical_variant),
    )),
    "ssd": Suite((
        Row("self_compatible[both]", lambda r, _: engine.memo("check_self_compatible",
            r.entry.mu, "both", r.max_n, r.entry.key), declared=_commutative),
        Row("selfcompat_controls", lambda r, _: _selfcompat_controls(r.entry, r.seed),
            n=lambda max_n: 3),
        Row("fsd", lambda r, h: engine.memo("check_fsd", h, r.max_n), ("mu", "mu"),
            declared=_commutative),
        Row("fsd_coco_consequence", lambda r, _: _fsd_coco_consequence(r.entry, r.max_n)),
        Row("ssd_conditions", lambda r, h: engine.check_ssd_conditions(h, r.max_n), ("mu", "mu"),
            _commutative, "characterizes Hopf triples only"),
        Row("takeuchi_closed_form", lambda r, _: classify.check_takeuchi_closed_form(
            r.entry, r.max_n), runs=_commutative, reason="product not commutative"),
        Row("primitives_match", lambda r, _: classify.check_primitives_match(r.entry, r.max_n),
            runs=_commutative, reason="product not commutative"),
        Row("fmu_intertwines", lambda r, _: classify.check_fmu_intertwines(classify.fmu_of(
            r.entry, r.max_n), r.max_n), runs=_commutative, reason="product not commutative"),
    ), lambda e: e.mu is not None, "self_compatible", "no multiplicative system"),
    "lsd": Suite((
        Row("pi_bijective", lambda r, _: _pi_bijective(r.entry, r.max_n), declared=_bijective),
        Row("cocommutative", lambda r, h: engine.memo("check_axiom", h, "cocommutative", r.max_n),
            ("pi", "pi")),
        Row("fsd", lambda r, h: engine.memo("check_fsd", h, r.max_n), ("mu", "pi"),
            lambda e: e.mu is not None, "needs both systems", _bijective),
        Row("fpi_intertwines", lambda r, _: _fpi_intertwines(r.entry, _up_to_3(r.max_n)),
            runs=_bijective, reason="coproduct not bijective", n=_up_to_3),
        Row("lsd_primitive_profile", lambda r, _: _lsd_primitive_profile(
            r.entry, _up_to_3(r.max_n)), runs=_bijective, reason="coproduct not bijective",
            n=_up_to_3),
    ), lambda e: e.pi is not None, "lsd", "no comultiplicative system"),
    "order": Suite((
        Row("order_valid", lambda r, _: _order_valid(order_mod.order_of(r.entry), r.max_n)),
        Row("order_transport", lambda r, _: order_mod.check_order_transport(
            order_mod.order_of(r.entry), r.max_n)),
        Row("lower_lattice", lambda r, _: order_mod.check_all_lower_lattices(r.entry, r.max_n)),
        Row("property_AB", lambda r, _: order_mod.check_AB(
            order_mod.order_of(r.entry), r.entry.mu, r.max_n)),
        Row("reconstruct_roundtrip", lambda r, _: order_mod.check_reconstruct_roundtrip(
            r.entry, r.max_n)),
    ), _orderable, "order", "order needs a commutative product and a coproduct"),
    "bases": Suite((
        Row("pq_unitriangular", lambda r, _: order_mod.check_pq_unitriangular(
            order_mod.order_of(r.entry), r.max_n)),
        Row("basis_identities", lambda r, _: order_mod.check_basis_theorem(r.entry, r.max_n)),
        Row("basis_change", lambda r, _: order_mod.check_basis_change_matrices(
            r.entry, _up_to_3(r.max_n)), n=_up_to_3),
    ), _orderable, "bases", "bases need a commutative product and a coproduct"),
    "extras": Suite((
        Row("antipode_convolution", lambda r, h: engine.check_antipode_convolution(
            h, _up_to_3(r.max_n)), _canonical_variant, n=_up_to_3),
        Row("dual_tables", lambda r, h: engine.check_dual_tables(h, r.max_n), ("mu", "pi"),
            lambda e: e.mu is not None and e.pi is not None, "needs both systems"),
        # skips itself without both systems
        Row("preorder_rectangle", lambda r, _: engine.check_preorder_rectangle(r.entry, r.max_n)),
        Row("nabla_x_decomposition", lambda r, _: _nabla_x_decomposition(
            r.entry, _up_to_3(r.max_n)), runs=lambda e: e.mu is not None and _commutative(e),
            reason="needs a commutative product", n=_up_to_3),
    )),
}


# ---------------------------------------------------------------------------
# commands

def cmd_check(args) -> int:
    entry = parse_species(args.species)
    if entry.mu is None and entry.pi is None:
        print(f"species {entry.key} carries no systems to check", file=sys.stderr)
        return 1
    runner = Runner(entry, args.max_n, args.seed, args.fail_fast)
    runner.run_suite(args.suite)
    payload = {
        "command": "check",
        "species": entry.key,
        "suite": args.suite,
        "max_n": args.max_n,
        "seed": args.seed,
        "checks": [rep.to_json(args.timings) for rep in runner.reports],
        "summary": runner.summary(),
        "exit_code": runner.exit_code(),
    }
    if args.output == "md":
        _print_check_md(payload)
    else:
        print(json.dumps(payload, indent=2, default=str))
    return runner.exit_code()


def _print_check_md(payload: dict) -> None:
    print(f"# {payload['species']} / suite {payload['suite']} / n <= {payload['max_n']}")
    print()
    print("| check | status | expected | species |")
    print("|---|---|---|---|")
    for c in payload["checks"]:
        exp = "" if "expected" not in c else ("yes" if c["expected"] else "NO")
        print(f"| {c['check']} | {c['status']} | {exp} | {c['species']} |")
    print()
    s = payload["summary"]
    print(f"pass {s['pass']}, expected failures {s['fail_expected']}, "
          f"unexpected failures {s['fail_unexpected']}, fatal {s['fatal']}, "
          f"skipped {s['skip']}; exit {payload['exit_code']}")


def cmd_table(args) -> int:
    entry = parse_species(args.species)
    rows = []
    for I in grounds(args.max_n):
        dim = entry.species.dim(I)
        rows.append({"n": len(I), "dim": dim, "orbits": _orbit_count(entry, I)})
    payload = {"command": "table", "species": entry.key, "max_n": args.max_n,
               "dims": rows}
    if args.constants:
        if entry.mu is None and entry.pi is None:
            print(f"species {entry.key} has no systems; no constants", file=sys.stderr)
            return 1
        p, c = _canonical_variant(entry)
        h = engine.hopf_from(entry, p, c)
        payload["variant"] = f"nabla^{p},Delta^{c}"
        payload["constants"] = _constants_dump(entry, h, args.max_n)
    if args.output == "md":
        print(f"# dimensions of {entry.key}")
        print()
        print("| n | dim p[n] | orbits |")
        print("|---|---|---|")
        for row in rows:
            print(f"| {row['n']} | {row['dim']} | {row['orbits']} |")
        _print_blocks(payload.get("constants", []), lambda b: f"({b['S']}, {b['T']})")
    else:
        print(json.dumps(payload, indent=2, default=str))
    return 0


def _print_blocks(blocks: list[dict], heading) -> None:
    """Markdown for blocks of entries: a heading(block) section per block."""
    for block in blocks:
        print()
        print(f"## {heading(block)}")
        for line in block["entries"]:
            print(f"- {line}")


def _orbit_count(entry: CatalogEntry, I: GroundSet) -> int:
    """The S_n-orbits on P[I]: the components of the moves by the adjacent
    transpositions (which generate S_n; transport is a functor), read off
    their transport tables."""
    sp = entry.species
    moves = [sp.transport_table(Bijection(I, I, _swap(I.labels, i))) for i in range(len(I) - 1)]
    seen, orbits = set(), 0
    for k in range(sp.dim(I)):
        if k in seen:
            continue
        orbits += 1
        todo = {k}
        while todo:
            seen |= todo
            todo = {move[j] for move in moves for j in todo} - seen
    return orbits


def _constants_dump(entry: CatalogEntry, h, max_n: int) -> list[dict]:
    out = []
    for I in grounds(max_n):
        for S, T in decompositions(I, 2):
            entries = []
            for tag, table in (("a", engine.product_table(h, S, T)),
                               ("b", engine.coproduct_table(h, S, T))):
                for x, y, z in sorted(table, key=engine.constant_sort_key):
                    entries.append(f"{tag}[{x},{y};{z}] = {table[x, y, z]}")
            out.append({"S": str(S), "T": str(T), "entries": entries})
    return out


def _order_undefined(entry: CatalogEntry, max_n: int) -> bool:
    """Whether the order of entry is undefined, and if so why, on stderr: it
    needs both systems and a commutative product."""
    if entry.mu is None or entry.pi is None:
        reason = "needs both systems"
    elif not engine.memo("check_axiom", engine.hopf_from(entry, "mu", "mu"),
                         "commutative", min(max_n, 2)).ok:
        reason = "product is not commutative"
    else:
        return False
    print(f"order undefined for {entry.key}: {reason}", file=sys.stderr)
    return True


def cmd_hasse(args) -> int:
    entry = _maybe_derive_pi(parse_species(args.species), args.max_n)
    if _order_undefined(entry, args.max_n):
        return 1
    so = order_mod.SpeciesOrder(entry.mu, entry.pi, entry.key)
    sys.stdout.write(order_mod.hasse_dot(so, GroundSet.first(args.max_n)))
    return 0


def cmd_antipode(args) -> int:
    entry = parse_species(args.species)
    p, c = (args.variant.split("-") if args.variant
            else _canonical_variant(entry))
    h = engine.hopf_from(entry, p, c)
    payload = {"command": "antipode", "species": entry.key,
               "variant": f"nabla^{p},Delta^{c}", "tables": []}
    for I in grounds(args.max_n):
        table = engine.antipode_table(h, I)
        payload["tables"].append({
            "n": len(I),
            "entries": [f"S({z}) = {v}" for z, v in sorted(
                table.items(), key=lambda kv: kv[0].sort_key())],
        })
    if args.output == "md":
        print(f"# Takeuchi antipode of {entry.key} ({payload['variant']})")
        _print_blocks(payload["tables"], lambda b: f"n = {b['n']}")
    else:
        print(json.dumps(payload, indent=2, default=str))
    return 0


def cmd_primitives(args) -> int:
    entry = parse_species(args.species)
    p = c = "pi" if entry.mu is None else "mu"
    h = engine.hopf_from(entry, p, c)
    payload = {"command": "primitives", "species": entry.key,
               "variant": f"nabla^{p},Delta^{c}", "components": []}
    for I in grounds(args.max_n)[1:]:
        basis = classify.primitives(h, I)
        payload["components"].append(
            {"n": len(I), "dim": len(basis), "basis": [str(v) for v in basis]})
    if args.output == "md":
        print(f"# primitives of {entry.key}")
        for block in payload["components"]:
            print(f"- n={block['n']}: dim {block['dim']}: " + "; ".join(block["basis"]))
    else:
        print(json.dumps(payload, indent=2, default=str))
    return 0


def cmd_fmu(args) -> int:
    entry = parse_species(args.species)
    if entry.mu is None:
        print(f"species {entry.key} has no product", file=sys.stderr)
        return 1
    fm = classify.f_mu(entry.mu, args.max_n, species_key=entry.key)
    rep = classify.check_fmu_intertwines(fm, args.max_n)
    payload = {"command": "fmu", "species": entry.key, "max_n": args.max_n,
               "intertwines": rep.to_json(args.timings), "maps": _maps(fm, args.max_n)}
    print(json.dumps(payload, indent=2, default=str))
    return 0 if rep.ok else 1


def cmd_fpi(args) -> int:
    entry = _maybe_derive_pi(parse_species(args.species), args.max_n)
    if entry.pi is None:
        print(f"species {entry.key} has no coproduct (and none derivable)",
              file=sys.stderr)
        return 1
    fp = classify.f_pi(entry.pi, args.max_n, species_key=entry.key)
    rep = classify.check_fpi_intertwines(fp, args.max_n)
    payload = {"command": "fpi", "species": entry.key, "max_n": args.max_n,
               "colors": [str(c) for c in fp.colors],
               "intertwines": rep.to_json(args.timings), "maps": _maps(fp, args.max_n)}
    print(json.dumps(payload, indent=2, default=str))
    return 0 if rep.ok else 1


def _maps(iso, max_n: int) -> list[dict]:
    """The tables of an isomorphism onto P for n <= max_n, in the order of
    its source elements."""
    return [{"n": len(I), "entries": [f"{x} -> {el}" for x, el in sorted(
                iso.table(I).items(), key=lambda kv: kv[0].sort_key())]}
            for I in grounds(max_n)]


def cmd_reconstruct_pi(args) -> int:
    entry = _maybe_derive_pi(parse_species(args.species), args.max_n)
    if _order_undefined(entry, args.max_n):
        return 1
    rep = order_mod.check_reconstruct_roundtrip(entry, args.max_n)
    payload = {"command": "reconstruct-pi", "species": entry.key,
               "max_n": args.max_n, "roundtrip": rep.to_json(args.timings)}
    print(json.dumps(payload, indent=2, default=str))
    return 0 if rep.ok else 1


# ---------------------------------------------------------------------------
# argument parsing

# every flag, declared once, with its argparse keywords
OPTIONS = {
    "--species": {"required": True, "help": "species spec, e.g. Pi or S(E_C:2)"},
    "--max-n": {"type": int, "default": 4},
    "--suite": {"choices": SUITES, "default": "full"},
    "--output": {"choices": ("json", "md"), "default": "json"},
    "--seed": {"type": int, "default": 0},
    "--fail-fast": {"action": "store_true"},
    "--timings": {"action": "store_true",
                  "help": "include wall-clock times (breaks byte-stable output)"},
    "--constants": {"action": "store_true"},
    "--variant": {"choices": VARIANTS, "default": None},
}

# each command: its function, its help, and the options it reads besides
# --species and --max-n
COMMANDS = {
    "check": (cmd_check, "run a certification suite",
              ("--suite", "--output", "--seed", "--fail-fast", "--timings")),
    "table": (cmd_table, "graded dimensions and structure constants",
              ("--output", "--constants")),
    "hasse": (cmd_hasse, "DOT Hasse diagram of the order at n = max-n", ()),
    "antipode": (cmd_antipode, "Takeuchi antipode tables", ("--output", "--variant")),
    "primitives": (cmd_primitives, "primitive space bases and dimensions", ("--output",)),
    "fmu": (cmd_fmu, "the labeled-partition isomorphism", ("--timings",)),
    "fpi": (cmd_fpi, "the maps-to-colors isomorphism", ("--timings",)),
    "reconstruct-pi": (cmd_reconstruct_pi, "rebuild the coproduct from the order",
                       ("--timings",)),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Usage errors exit 1: exit 2 is kept for a contradicted theorem."""
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="species-forge",
        description="exact desk-scale certification of Hopf structures on species")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in ("--species", "--max-n") + options:
            p.add_argument(flag, **OPTIONS[flag])
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        grounds(args.max_n)  # a negative or over-ceiling --max-n is one error line
        if args.max_n >= 5:
            print(f"warning: n = {args.max_n} components are large; expect a long run",
                  file=sys.stderr)
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: what is still buffered goes to the null
        # device, so the interpreter's flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FatalInconsistency as exc:
        print(f"fatal: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
