"""Exact-arithmetic construction and desk-scale certification of connected
Hopf monoids in vector species."""

from .core import (
    EMPTY, Bijection, CheckReport, Element, GroundSet, LabeledPartitionElt,
    LinearOrderElt, MapTo, PermutationElt, SetPartitionElt, SetSpecies,
    TensorVec, UnitElement, Vec, decompositions, grounds, nonempty_compositions,
    set_partitions, transport_check,
)
from .catalog import (
    CatalogEntry, ComultSystem, MultSystem, inverse_pi, make_E, make_E_C,
    make_L, make_Perm, make_Pi, make_S, make_X_C, parse_species,
    with_derived_pi,
)
from .engine import (
    AXIOMS, FatalInconsistency, LinearizedHopf, check_axiom,
    check_antipode_convolution, check_delta_nabla_identity, check_dual_tables,
    check_fsd, check_naturality, check_preorder_rectangle, check_self_compatible,
    dual_transpose, hopf_from, iterate_delta, iterate_nabla, takeuchi_antipode,
)
from .classify import (
    FMu, FPi, NablaXDecomposition, check_fmu_intertwines,
    check_fpi_intertwines, check_primitives_match, check_takeuchi_closed_form,
    f_mu, f_pi, nabla_X_decompose, primitive_basis_species, primitive_dims,
    primitives,
)
from .order import (
    OrderSlice, PQTables, SpeciesOrder, check_AB, check_all_lower_lattices,
    check_basis_theorem, check_lower_lattice, check_order_transport,
    check_pq_unitriangular, check_reconstruct_roundtrip, compute_order,
    hasse_dot, pq_tables, reconstruct_pi,
)
