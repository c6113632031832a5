"""Run one species-forge CLI invocation with per-module spans and counters.

Usage: python3 perfbench/tracer.py OUT.json -- <species-forge CLI arguments>

The wrappers live here, not in the program: after importing species_forge,
the tracer replaces the public functions and methods of each module with
wrappers and runs ``species_forge.cli.main``.  A function bound into other
modules with ``from .core import ...`` is replaced in every module that
holds it, so calls through any binding are seen.

Coarse calls (checks, enumerations, folds, elimination, order construction)
become spans: each records its duration and adds it to the span that called
it, so a span's self time is its duration minus its children's.  Spans are
aggregated in memory per name and per (caller, callee) edge and written to
OUT.json at exit.  Fine-grained methods (Vec and element construction, rule
calls, cache lookups) get counts only, because timing them would measure the
tracer.

Closed-form counts check that every binding was replaced: for example each
``check_axiom(h, "associative", n)`` must see exactly sum_{m<=n} 3^m triples
from ``decompositions(I, 3)``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

SPANS = {
    "core": {
        "transport_check": "core.transport_check",
        "decompositions": "core.enum",
        "set_partitions": "core.enum",
    },
    "engine": {
        "check_naturality": "engine.naturality",
        "check_axiom": None,   # named by its axiom, see _axiom_span
        "check_delta_nabla_identity": "engine.delta_nabla",
        "check_self_compatible": "engine.self_compatible",
        "check_fsd": "engine.fsd",
        "check_ssd_conditions": "engine.ssd_conditions",
        "check_preorder_rectangle": "engine.preorder_rectangle",
        "check_antipode_convolution": "engine.antipode",
        "antipode_table": "engine.antipode",
        "takeuchi_antipode": "engine.antipode",
        "check_dual_tables": "engine.dual_tables",
        "dual_transpose": "engine.dual_tables",
    },
    "classify": {
        "primitives": "classify.primitives",
        "primitive_dims": "classify.primitives",
        "check_primitives_match": "classify.primitives_match",
        "check_takeuchi_closed_form": "classify.takeuchi_closed_form",
        "f_mu": "classify.fmu",
        "check_fmu_intertwines": "classify.fmu",
        "nabla_X_decompose": "classify.nabla_x",
        "spans_on": "classify.nabla_x",
        "primitive_basis_elements": "classify.other",
        "primitive_basis_species": "classify.other",
        "f_pi": "classify.other",
        "check_fpi_intertwines": "classify.other",
    },
    "linalg": dict.fromkeys(
        ("echelon", "rank", "kernel_basis", "in_span", "spans_equal"), "linalg"),
    "order": {
        "compute_order": "order.compute",
        "check_order_transport": "order.checks",
        "check_lower_lattice": "order.checks",
        "check_all_lower_lattices": "order.checks",
        "check_AB": "order.checks",
        "reconstruct_pi": "order.checks",
        "check_reconstruct_roundtrip": "order.checks",
        "hasse_dot": "order.checks",
        "pq_tables": "order.bases",
        "check_pq_unitriangular": "order.bases",
        "check_basis_theorem": "order.bases",
        "check_basis_change_matrices": "order.bases",
    },
    "controls": {"perturbed_systems": "controls.build"},
}

AXIOM_SPANS = ("associative", "coassociative", "hopf_compatible")
REPEAT_KEYED = ("check_axiom", "check_fsd", "check_self_compatible")


def _bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


class Frame:
    """An open span: its name, the module binding it was called through,
    the time covered by its children, and tuples its enumerations returned."""

    __slots__ = ("name", "binding", "child", "enum")

    def __init__(self, name: str, binding: str = ""):
        self.name = name
        self.binding = binding
        self.child = 0.0
        self.enum: dict[str, int] = {}


class Tracer:
    def __init__(self):
        self.stack: list[Frame] = [Frame("cli")]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.edges: dict[str, list] = {}
        self.bindings: dict[str, list[str]] = {}
        self.closed_form = {"checked": 0, "failed": 0, "mismatches": []}
        self.seen_checks: set = set()
        self.control_mus: dict[int, object] = {}

    # -- wrapper factories --------------------------------------------------

    def span(self, fn, name, before=None, after=None, binding=""):
        stack, clock, self_s, calls = self.stack, time.perf_counter, self.self_s, self.calls
        edges = self.edges

        @functools.wraps(fn)
        def wrapper(*a, **k):
            span_name = name(a, k) if callable(name) else name
            frame = Frame(span_name, binding)
            parent = stack[-1]
            if before is not None:
                before(parent, a, k)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*a, **k)
            finally:
                dur = clock() - t0
                stack.pop()
                self_s[span_name] += dur - frame.child
                calls[span_name] += 1
                parent.child += dur
                edge = edges.get(parent.name + " > " + span_name)
                if edge is None:
                    edges[parent.name + " > " + span_name] = [1, dur]
                else:
                    edge[0] += 1
                    edge[1] += dur
            if after is not None:
                after(frame, parent, dur, a, k, result)
            return result
        return wrapper

    def count(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*a, **k):
            counts[key] += 1
            return fn(*a, **k)
        return wrapper

    def cached(self, fn, cache_attr, calls_key, miss_key):
        """Count calls, and calls after which the object's cache grew."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(obj, *a, **k):
            cache = getattr(obj, cache_attr, None)
            size = len(cache) if cache is not None else -1
            result = fn(obj, *a, **k)
            counts[calls_key] += 1
            if cache is None or len(cache) != size:
                counts[miss_key] += 1
            return result
        return wrapper

    # -- hooks --------------------------------------------------------------

    def _mismatch(self, what: str, got, want) -> None:
        self.closed_form["checked"] += 1
        if got != want:
            self.closed_form["failed"] += 1
            if len(self.closed_form["mismatches"]) < 20:
                self.closed_form["mismatches"].append(f"{what}: got {got}, expected {want}")

    def _enum_count(self, parent, key: str, n: int) -> None:
        self.counts["core.decompositions_yielded"] += n
        parent.enum[key] = parent.enum.get(key, 0) + n

    def _decompositions_after(self, frame, parent, dur, a, k, result):
        parts = a[1] if len(a) >= 2 else k["k"]
        nonempty = a[2] if len(a) >= 3 else k.get("nonempty", False)
        self._enum_count(parent, f"{frame.binding}:decompositions/{parts}"
                                 f"{'ne' if nonempty else ''}", len(result))

    def _partitions_after(self, frame, parent, dur, a, k, result):
        self._enum_count(parent, f"{frame.binding}:set_partitions", len(result))

    def _check_before(self, fn):
        """Count calls, and calls whose (function, system, axiom or mode,
        max_n) already ran in this process."""
        signature = inspect.signature(fn)

        def before(parent, a, k):
            args = signature.bind(*a, **k)
            args.apply_defaults()
            v = args.arguments
            if fn.__name__ == "check_self_compatible":
                key = (fn.__name__, v["species_key"] or v["mu"].species.name, v["mode"],
                       v["max_n"])
            else:
                key = (fn.__name__, v["h"].name, v.get("axiom"), v["max_n"])
            self.counts["engine.check_calls"] += 1
            if key in self.seen_checks:
                self.counts["engine.repeat_calls"] += 1
            self.seen_checks.add(key)
        return before

    def _axiom_after(self, frame, parent, dur, a, k, rep):
        axiom = a[1] if len(a) >= 2 else k["axiom"]
        if axiom in ("associative", "coassociative"):
            want = sum(3 ** m for m in range(rep.n + 1))
            self._mismatch(f"{axiom} triples at n<={rep.n}",
                           frame.enum.get("engine:decompositions/3", 0), want)

    def _transport_after(self, frame, parent, dur, a, k, rep):
        self.counts[f"{frame.binding}:transport_check"] += 1

    def _selfcompat_after(self, frame, parent, dur, a, k, rep):
        mu = a[0] if a else k["mu"]
        if id(mu) in self.control_mus:
            self.counts["controls.systems"] += 1
            self.inclusive_s["controls.checked"] += dur

    def _controls_after(self, frame, parent, dur, a, k, systems):
        self.counts["controls.lists"] += 1
        self.counts["controls.listed"] += len(systems)
        for ps in systems:
            self.control_mus[id(ps.mu)] = ps.mu

    def _linalg_before(self, parent, a, k):
        if parent.name == "linalg":
            return
        self.counts["linalg.calls"] += 1
        if len(a) >= 3 and isinstance(a[2], int):     # spans_equal(rows_a, rows_b, ncols)
            self.counts["linalg.cells"] += (len(a[0]) + len(a[1])) * a[2]
        elif len(a) >= 2:
            self.counts["linalg.cells"] += len(a[0]) * a[1]

    def _primitives_after(self, frame, parent, dur, a, k, result):
        n = len(a[1] if len(a) >= 2 else k["I"])
        self._mismatch(f"primitives pairs at n={n}",
                       frame.enum.get("classify:decompositions/2ne", 0), max(2 ** n - 2, 0))

    def _order_after(self, frame, parent, dur, a, k, sl):
        self.counts["order.strict_pairs"] += len(sl.strict)
        n = len(sl.I)
        self._mismatch(f"order partitions at n={n}",
                       frame.enum.get("order:set_partitions", 0), _bell(n))
        self._mismatch(f"order pairs at n={n}",
                       frame.enum.get("order:decompositions/2ne", 0), max(2 ** n - 2, 0))

    # -- installation ---------------------------------------------------------

    def _axiom_span(self, a, k):
        axiom = a[1] if len(a) >= 2 else k.get("axiom")
        return f"engine.{axiom}" if axiom in AXIOM_SPANS else "engine.other_axioms"

    def install(self) -> None:
        import species_forge.cli  # noqa: F401  (imports every module)
        from species_forge import catalog, core

        pkg = [m for name, m in sys.modules.items()
               if name == "species_forge" or name.startswith("species_forge.")]
        afters = {
            "decompositions": self._decompositions_after,
            "set_partitions": self._partitions_after,
            "transport_check": self._transport_after,
            "check_axiom": self._axiom_after,
            "check_self_compatible": self._selfcompat_after,
            "perturbed_systems": self._controls_after,
            "primitives": self._primitives_after,
            "compute_order": self._order_after,
        }
        for mod_name, table in SPANS.items():
            mod = sys.modules[f"species_forge.{mod_name}"]
            for attr, name in table.items():
                fn = getattr(mod, attr)
                after = afters.get(attr)
                before = None
                if attr in REPEAT_KEYED:
                    before = self._check_before(fn)
                elif mod_name == "linalg":
                    before = self._linalg_before
                # one wrapper per importing module, so hooks know the binding
                self.bindings[f"{mod_name}.{attr}"] = bound = []
                for m in pkg:
                    binding = m.__name__.rpartition(".")[2]
                    wrapped = self.span(fn, name or self._axiom_span, before, after, binding)
                    if _rebind(m, fn, wrapped):
                        bound.append(binding)

        for cls in (catalog.MultSystem, catalog.ComultSystem):
            cls.__call__ = self.count(cls.__call__, "catalog.rule_calls")
            cls.fold = self.span(cls.fold, "catalog.fold")
            cls.fiber_map = self.cached(cls.fiber_map, "_fibers",
                                        "catalog.fiber_calls", "catalog.fiber_builds")
        core.SetSpecies.elements = self.cached(core.SetSpecies.elements, "_cache",
                                               "core.elements_calls", "core.elements_misses")
        for cls in (core.Vec, core.TensorVec):
            cls.__init__ = self.count(cls.__init__, "core.vec_built")
        for cls in _subclasses(core.Element):
            if "__init__" in vars(cls):
                cls.__init__ = self.count(cls.__init__, "core.elements_built")

    def report(self, wall_s: float, exit_code, cli_args) -> dict:
        counts = self.counts
        if cli_args.command == "check" and cli_args.suite in ("axioms", "full"):
            self._mismatch("transport rows through the cli binding",
                           counts.get("cli:transport_check", 0), cli_args.max_n + 1)
        lists = counts.get("controls.lists", 0)
        if lists:
            self._mismatch("perturbed systems checked per controls check",
                           counts.get("controls.systems", 0), 50 * lists)
            self._mismatch("perturbed systems listed per controls check",
                           counts.get("controls.listed", 0), 50 * lists)
        return {"wall_s": wall_s, "exit_code": exit_code,
                "self_s": dict(self.self_s), "inclusive_s": dict(self.inclusive_s),
                "calls": dict(self.calls),
                "counts": dict(counts), "edges": self.edges,
                "bindings": self.bindings, "closed_form": self.closed_form}


def _rebind(module, old, new) -> bool:
    hit = False
    for attr, value in list(vars(module).items()):
        if value is old:
            setattr(module, attr, new)
            hit = True
    return hit


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    from species_forge import cli

    t0 = time.perf_counter()
    code = None
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(tracer.report(time.perf_counter() - t0, code,
                                    cli.build_parser().parse_args(cli_args)), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
