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
import sys
import time

from . import classify, controls, engine, order as order_mod
from .catalog import CatalogEntry, parse_species, with_derived_pi
from .core import (CheckReport, GroundSet, Bijection, _swap, decompositions, grounds,
                   transport_check)
from .engine import FatalInconsistency

SUITES = ("axioms", "ssd", "lsd", "order", "bases", "full")
VARIANTS = ("mu-pi", "mu-mu", "pi-mu", "pi-pi")


# ---------------------------------------------------------------------------
# suite machinery

class Runner:
    def __init__(self, entry: CatalogEntry, max_n: int, seed: int, fail_fast: bool):
        self.entry = _maybe_derive_pi(entry, max_n)
        self.max_n = max_n
        self.seed = seed
        self.fail_fast = fail_fast
        self.reports: list[CheckReport] = []
        self.stopped = False

    def run(self, expected_fail: bool, fn, *args, **kwargs) -> CheckReport | None:
        if self.stopped:
            return None
        t0 = time.perf_counter()
        try:
            rep = fn(*args, **kwargs)
        except Exception as exc:  # a check that raises ends its own row, not the suite
            fatal = isinstance(exc, FatalInconsistency)
            variant = args[0] if args and isinstance(args[0], engine.LinearizedHopf) else None
            rep = CheckReport(_row_name(fn, args), variant.name if variant else self.entry.key,
                              self.max_n, "fatal" if fatal else "fail",
                              {"message": str(exc), "witness": exc.witness} if fatal
                              else {"error": type(exc).__name__, "message": str(exc)})
            expected_fail = False
        rep.elapsed_ms = int((time.perf_counter() - t0) * 1000)
        if rep.status == "fail":
            rep.expected = expected_fail
        self.reports.append(rep)
        if self.fail_fast and (rep.status == "fatal"
                               or (rep.status == "fail" and not rep.expected)):
            self.stopped = True
        return rep

    def skip(self, name: str, reason: str, n: int | None = None) -> None:
        """A skip row for check ``name`` at n (max_n by default); none once
        the run has stopped, as ``run`` writes no row then."""
        if not self.stopped:
            self.reports.append(CheckReport(name, self.entry.key,
                                            self.max_n if n is None else n, "skip",
                                            {"reason": reason}))

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
        if counts["fatal"]:
            return 2
        if counts["fail_unexpected"]:
            return 1
        return 0


# the checks whose row is not named after their function without "check_"
_ROW_NAMES = {"check_AB": "property_AB", "check_all_lower_lattices": "lower_lattice",
              "check_basis_change_matrices": "basis_change",
              "check_basis_theorem": "basis_identities", "transport_check": "transport"}


def _row_name(fn, args) -> str:
    """The name of the row fn(*args) writes, for the row of a check that raises."""
    if fn is engine.check_axiom:
        return args[1]
    if fn is engine.check_self_compatible:
        return f"self_compatible[{args[1]}]"
    name = getattr(fn, "__name__", "check")
    return _ROW_NAMES.get(name, name.lstrip("_").removeprefix("check_"))


def _canonical_variant(entry: CatalogEntry) -> tuple[str, str]:
    if entry.mu is not None and entry.pi is not None:
        return "mu", "pi"
    if entry.mu is not None:
        return "mu", "mu"
    return "pi", "pi"


def _maybe_derive_pi(entry: CatalogEntry, max_n: int) -> CatalogEntry:
    if entry.pi is not None or entry.mu is None:
        return entry
    try:
        return with_derived_pi(entry, max_n)
    except ValueError:
        return entry


def _expect(entry: CatalogEntry, flag: str, side: str = "mu") -> bool:
    flags = entry.mu_flags if side == "mu" else entry.pi_flags
    return flag in flags


def _run_axioms(r: Runner) -> None:
    entry, n = r.entry, r.max_n
    for I in grounds(n):
        rep = r.run(False, transport_check, entry.species, I)
        if rep.status != "pass":
            for later in range(len(I) + 1, n + 1):
                r.skip("transport", f"transport did not pass at n={len(I)}", later)
            break
    r.run(False, engine.check_naturality, entry, n)
    p, c = _canonical_variant(entry)
    h = engine.hopf_from(entry, p, c)
    for axiom in engine.AXIOMS:
        expected_fail = False
        if axiom == "commutative":
            expected_fail = not _expect(entry, "commutative")
        r.run(expected_fail, engine.check_axiom, h, axiom, n)
    r.run(False, engine.check_delta_nabla_identity, h, n)


def _run_ssd(r: Runner) -> None:
    entry, n = r.entry, r.max_n
    if entry.mu is None:
        r.skip("self_compatible", "no multiplicative system")
        return
    exp = not _expect(entry, "commutative")
    r.run(exp, engine.check_self_compatible, entry.mu, "both", n, species_key=entry.key)
    r.run(False, _selfcompat_controls, entry, r.seed)
    h_ssd = engine.hopf_from(entry, "mu", "mu")
    r.run(exp, engine.check_fsd, h_ssd, n)
    r.run(False, _fsd_coco_consequence, entry, n)
    if _expect(entry, "commutative"):
        r.run(False, engine.check_ssd_conditions, h_ssd, n)
        r.run(False, classify.check_takeuchi_closed_form, entry, n)
        r.run(False, classify.check_primitives_match, entry, n)
        r.run(False, _fmu_intertwines, entry, n)
    else:
        r.skip("ssd_conditions", "characterizes Hopf triples only")
        for name in ("takeuchi_closed_form", "primitives_match", "fmu_intertwines"):
            r.skip(name, "product not commutative")


def _selfcompat_controls(entry: CatalogEntry, seed: int) -> CheckReport:
    """Both self-compatibility modes agree on every seeded perturbed system."""
    systems = controls.perturbed_systems(seed=seed, count=50)
    detected: dict[str, int] = {}
    for i, ps in enumerate(systems):
        systems[i] = None  # a checked system's cached tables and fibers can go
        rep = engine.check_self_compatible(ps.mu, "both", 3, species_key=ps.key)
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
    variants = []
    if entry.mu is not None:
        variants.append(("mu", "mu"))
    if entry.pi is not None:
        variants.append(("pi", "pi"))
    if entry.mu is not None and entry.pi is not None:
        variants += [("mu", "pi"), ("pi", "mu")]
    checked = []
    for p, c in variants:
        h = engine.hopf_from(entry, p, c)
        if engine.check_fsd(h, max_n).ok:
            for axiom in ("commutative", "cocommutative"):
                rep = engine.check_axiom(h, axiom, max_n)
                if not rep.ok:
                    return CheckReport("fsd_coco_consequence", entry.key, max_n, "fail",
                                       {"variant": f"{p},{c}", "axiom": axiom,
                                        "witness": rep.witness})
            checked.append(f"{p},{c}")
    return CheckReport("fsd_coco_consequence", entry.key, max_n, "pass",
                       {"fsd_variants": checked})


def _fmu_intertwines(entry: CatalogEntry, max_n: int) -> CheckReport:
    fm = classify.f_mu(entry.mu, max_n, species_key=entry.key)
    return classify.check_fmu_intertwines(fm, max_n)


def _run_lsd(r: Runner) -> None:
    entry, n = r.entry, r.max_n
    if entry.pi is None:
        r.skip("lsd", "no comultiplicative system")
        return
    exp_bij = not _expect(entry, "bijective", "pi")
    r.run(exp_bij, _pi_bijective, entry, n)
    h = engine.hopf_from(entry, "pi", "pi")
    r.run(False, engine.check_axiom, h, "cocommutative", n)
    if entry.mu is not None:
        r.run(exp_bij, engine.check_fsd, engine.hopf_from(entry, "mu", "pi"), n)
    else:
        r.skip("fsd", "needs both systems")
    if not exp_bij:
        r.run(False, _fpi_intertwines, entry, min(n, 3))
        r.run(False, _lsd_primitive_profile, entry, min(n, 3))
    else:
        for name in ("fpi_intertwines", "lsd_primitive_profile"):
            r.skip(name, "coproduct not bijective")


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
    h = engine.hopf_from(entry, "pi", "pi")
    dims = classify.primitive_dims(h, max_n)
    if any(d != 0 for d in dims[1:]):
        return CheckReport("lsd_primitive_profile", entry.key, max_n, "fail",
                           {"dims": dims})
    return CheckReport("lsd_primitive_profile", entry.key, max_n, "pass",
                       {"dims": dims})


def _run_order(r: Runner) -> None:
    entry, n = r.entry, r.max_n
    if entry.mu is None or entry.pi is None or not _expect(entry, "commutative"):
        r.skip("order", "order needs a commutative product and a coproduct")
        return
    so = order_mod.order_of(entry)
    r.run(False, _order_valid, so, n)
    r.run(False, order_mod.check_order_transport, so, n)
    r.run(False, order_mod.check_all_lower_lattices, entry, n)
    r.run(False, order_mod.check_AB, so, entry.mu, n)
    r.run(False, order_mod.check_reconstruct_roundtrip, entry, n)


def _order_valid(so: order_mod.SpeciesOrder, max_n: int) -> CheckReport:
    sizes = []
    for I in grounds(max_n):
        sl = so.slice(I)
        sizes.append(len(sl.strict))
    return CheckReport("order_valid", so.key, max_n, "pass", {"strict_pairs": sizes})


def _run_bases(r: Runner) -> None:
    entry, n = r.entry, r.max_n
    if entry.mu is None or entry.pi is None or not _expect(entry, "commutative"):
        r.skip("bases", "bases need a commutative product and a coproduct")
        return
    so = order_mod.order_of(entry)
    r.run(False, order_mod.check_pq_unitriangular, so, n)
    r.run(False, order_mod.check_basis_theorem, entry, n)
    r.run(False, order_mod.check_basis_change_matrices, entry, min(n, 3))


def _run_full_extras(r: Runner) -> None:
    entry, n = r.entry, r.max_n
    p, c = _canonical_variant(entry)
    h = engine.hopf_from(entry, p, c)
    r.run(False, engine.check_antipode_convolution, h, min(n, 3))
    if entry.mu is not None and entry.pi is not None:
        r.run(False, engine.check_dual_tables, engine.hopf_from(entry, "mu", "pi"), n)
    else:
        r.skip("dual_tables", "needs both systems")
    r.run(False, engine.check_preorder_rectangle, entry, n)  # skips itself without both
    if entry.mu is not None and _expect(entry, "commutative"):
        r.run(False, _nabla_x_decomposition, entry, min(n, 3))
    else:
        r.skip("nabla_x_decomposition", "needs a commutative product")


def _nabla_x_decomposition(entry: CatalogEntry, max_n: int) -> CheckReport:
    h = engine.hopf_from(entry, "mu", "mu")
    dims = []
    for I in grounds(max_n):
        dec = classify.nabla_X_decompose(h, I)
        dims.append(dec.total_dim)
    return CheckReport("nabla_x_decomposition", entry.key, max_n, "pass",
                       {"total_dims": dims})


_SUITE_STEPS = {
    "axioms": (_run_axioms,),
    "ssd": (_run_ssd,),
    "lsd": (_run_lsd,),
    "order": (_run_order,),
    "bases": (_run_bases,),
    "full": (_run_axioms, _run_ssd, _run_lsd, _run_order, _run_bases, _run_full_extras),
}


# ---------------------------------------------------------------------------
# commands

def cmd_check(args) -> int:
    entry = parse_species(args.species)
    if entry.mu is None and entry.pi is None:
        print(f"species {entry.key} carries no systems to check", file=sys.stderr)
        return 1
    runner = Runner(entry, args.max_n, args.seed, args.fail_fast)
    for step in _SUITE_STEPS[args.suite]:
        if runner.stopped:
            break
        step(runner)
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
    elif not engine.check_axiom(engine.hopf_from(entry, "mu", "mu"),
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
