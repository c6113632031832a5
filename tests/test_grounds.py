"""Every check reads its ground sets {1..m}, m <= max_n, from ``core.grounds``,
which refuses a negative max_n or one above the ceiling."""

import ast
from pathlib import Path

import pytest

from species_forge import catalog, classify, engine, order
from species_forge.catalog import CatalogEntry, make_Pi, make_S, make_X_C, with_derived_pi
from species_forge.core import grounds, hard_ceiling

SRC = Path(__file__).resolve().parent.parent / "src" / "species_forge"


def test_grounds_lists_first_sets_up_to_max_n():
    assert [I.labels for I in grounds(2)] == [(), (1,), (1, 2)]
    assert len(grounds(hard_ceiling())) == hard_ceiling() + 1
    for bad in (-1, hard_ceiling() + 1):
        with pytest.raises(ValueError, match="max_n"):
            grounds(bad)


# ---------------------------------------------------------------------------
# a bad max_n raises before any rule or transport call

class _Systems:
    """Pi with both systems, Pi with one of them, and S(X_C:2) with its
    derived coproduct, with the objects the checks take built from them.
    Once ``armed`` is set, a call of any of their rules or transports fails
    the test."""

    def __init__(self):
        self.armed = False
        self.entry = make_Pi()
        self.lsd = with_derived_pi(make_S(make_X_C(2)), 2)
        e = self.entry
        self.no_pi = CatalogEntry(e.key, e.species, e.mu, None, e.mu_flags)
        self.no_mu = CatalogEntry(e.key, e.species, None, e.pi, pi_flags=e.pi_flags)
        self.h = engine.hopf_from(e, "mu", "pi")
        self.h_mu = engine.hopf_from(e, "mu", "mu")
        self.order = order.order_of(e)
        self.fm = classify.f_mu(e.mu, 2, species_key=e.key)
        self.fp = classify.f_pi(self.lsd.pi, 2, species_key=self.lsd.key)
        for entry in (self.entry, self.lsd):
            for system in (entry.mu, entry.pi):
                system.rule = self._tripped(system.rule)
            entry.species.transport_fn = self._tripped(entry.species.transport_fn)

    def _tripped(self, fn):
        def wrapper(*args):
            if self.armed:
                pytest.fail(f"{fn.__qualname__} called for a bad max_n")
            return fn(*args)
        return wrapper


_CALLS = {
    "engine.check_axiom": lambda s, n: engine.check_axiom(s.h, "associative", n),
    "engine.check_delta_nabla_identity":
        lambda s, n: engine.check_delta_nabla_identity(s.h, n),
    "engine.check_naturality": lambda s, n: engine.check_naturality(s.entry, n),
    "engine.check_self_compatible":
        lambda s, n: engine.check_self_compatible(s.entry.mu, "both", n),
    "engine.check_self_compatible[bad mode]":
        lambda s, n: engine.check_self_compatible(s.entry.mu, "neither", n),
    "engine.check_fsd": lambda s, n: engine.check_fsd(s.h_mu, n),
    "engine.check_ssd_conditions": lambda s, n: engine.check_ssd_conditions(s.h_mu, n),
    "engine.check_antipode_convolution":
        lambda s, n: engine.check_antipode_convolution(s.h, n),
    "engine.check_dual_tables": lambda s, n: engine.check_dual_tables(s.h, n),
    "engine.check_preorder_rectangle":
        lambda s, n: engine.check_preorder_rectangle(s.entry, n),
    "engine.check_preorder_rectangle[skip]":
        lambda s, n: engine.check_preorder_rectangle(s.no_pi, n),
    "classify.primitive_dims": lambda s, n: classify.primitive_dims(s.h_mu, n),
    "classify.check_primitives_match":
        lambda s, n: classify.check_primitives_match(s.entry, n),
    "classify.check_primitives_match[skip]":
        lambda s, n: classify.check_primitives_match(s.no_mu, n),
    "classify.f_mu": lambda s, n: classify.f_mu(s.entry.mu, n),
    "classify.fmu_of": lambda s, n: classify.fmu_of(s.entry, n),
    "classify.check_fmu_intertwines": lambda s, n: classify.check_fmu_intertwines(s.fm, n),
    "classify.first_non_bijective": lambda s, n: classify.first_non_bijective(s.entry.pi, n),
    "classify.f_pi": lambda s, n: classify.f_pi(s.lsd.pi, n),
    "classify.check_fpi_intertwines": lambda s, n: classify.check_fpi_intertwines(s.fp, n),
    "classify.check_takeuchi_closed_form":
        lambda s, n: classify.check_takeuchi_closed_form(s.entry, n),
    "classify.check_takeuchi_closed_form[skip]":
        lambda s, n: classify.check_takeuchi_closed_form(s.no_mu, n),
    "order.check_order_transport": lambda s, n: order.check_order_transport(s.order, n),
    "order.check_all_lower_lattices": lambda s, n: order.check_all_lower_lattices(s.entry, n),
    "order.check_all_lower_lattices[skip]":
        lambda s, n: order.check_all_lower_lattices(s.no_pi, n),
    "order.check_AB": lambda s, n: order.check_AB(s.order, s.entry.mu, n),
    "order.check_reconstruct_roundtrip":
        lambda s, n: order.check_reconstruct_roundtrip(s.entry, n),
    "order.check_reconstruct_roundtrip[skip]":
        lambda s, n: order.check_reconstruct_roundtrip(s.no_pi, n),
    "order.check_pq_unitriangular": lambda s, n: order.check_pq_unitriangular(s.order, n),
    "order.check_basis_theorem": lambda s, n: order.check_basis_theorem(s.entry, n),
    "order.check_basis_theorem[skip]": lambda s, n: order.check_basis_theorem(s.no_pi, n),
    "order.check_basis_change_matrices":
        lambda s, n: order.check_basis_change_matrices(s.entry, n),
    "order.check_basis_change_matrices[skip]":
        lambda s, n: order.check_basis_change_matrices(s.no_pi, n),
    "catalog.with_derived_pi": lambda s, n: catalog.with_derived_pi(s.no_pi, n),
}


def test_every_public_max_n_function_is_covered():
    # each public function of these modules with a max_n parameter is called above
    covered = {name.partition("[")[0] for name in _CALLS}
    for module in (catalog, engine, classify, order):
        for name, fn in vars(module).items():
            if (callable(fn) and not name.startswith("_")
                    and getattr(fn, "__module__", None) == module.__name__
                    and "max_n" in getattr(getattr(fn, "__code__", None), "co_varnames", ())):
                assert f"{module.__name__.rpartition('.')[2]}.{name}" in covered, name


@pytest.mark.parametrize("name", sorted(_CALLS))
@pytest.mark.parametrize("bad", ["negative", "above the ceiling"])
def test_bad_max_n_raises_before_any_rule_call(monkeypatch, name, bad):
    monkeypatch.delenv("SPECIES_FORGE_CEILING", raising=False)
    systems = _Systems()
    systems.armed = True
    max_n = -1 if bad == "negative" else hard_ceiling() + 1
    with pytest.raises(ValueError, match="max_n"):
        _CALLS[name](systems, max_n)


# ---------------------------------------------------------------------------
# one enumeration of {1..m}

def _is_max_n(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "max_n"
            or isinstance(node, ast.Attribute) and node.attr == "max_n")


def _is_first(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "first"
            and isinstance(node.value, ast.Name) and node.value.id == "GroundSet")


_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)


def test_ground_sets_are_enumerated_only_in_grounds():
    # the guard runs only in core.grounds, and no function builds {1..m}
    # for m up to max_n by hand: range(max_n + 1), range(1, max_n + 1) and
    # range(args.max_n + 1) are gone, and so is GroundSet.first under a loop
    # or passed to map
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if path.name == "core.py" and fn.name == "grounds":
                continue
            here = f"{path.name}:{fn.name}"
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    f = node.func
                    if getattr(f, "id", getattr(f, "attr", None)) == "guard_max_n":
                        found.append(f"{here} calls guard_max_n")
                    if (isinstance(f, ast.Name) and f.id == "range" and node.args
                            and isinstance(stop := node.args[-1], ast.BinOp)
                            and isinstance(stop.op, ast.Add) and _is_max_n(stop.left)):
                        found.append(f"{here} builds range(... max_n + ...)")
                    if isinstance(f, ast.Name) and f.id == "map" and any(
                            _is_first(a) for a in node.args):
                        found.append(f"{here} maps GroundSet.first")
                if isinstance(node, _LOOPS):
                    body = node.body if isinstance(node, (ast.For, ast.While)) else [node]
                    if any(_is_first(sub) for part in body for sub in ast.walk(part)):
                        found.append(f"{here} calls GroundSet.first in a loop")
    assert found == []
