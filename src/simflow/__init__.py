"""Exact nowhere-zero flow counting and construction on simplicial
complexes, with the Tutte-Krushkal-Renardy polynomial family."""

from .complexes import (
    BoundaryMatrix,
    SimplicialComplex,
    boundary_matrix,
    build_complex,
    complete_complex,
    restrict_columns,
    subdivide_facet,
    suspension,
)
from .errors import (
    BadModulusError,
    BadParamsError,
    CapExceededError,
    EmptyInputError,
    FacetInBaseError,
    HasBridgeError,
    IndexOutOfRangeError,
    InfeasibleError,
    InternalError,
    LiftFailedError,
    NotABaseError,
    NotAFlowError,
    NotPureError,
    ParseError,
    RelationMismatchError,
    SettingError,
    SimflowError,
)
from .flows import (
    GroupFlow2r,
    ModularFlow,
    Quasipolynomial,
    count_nz_flows,
    count_nz_group_flows_2r,
    count_nz_tensions,
    count_proper_colorings,
    flow_quasipolynomial,
    jaeger_flow,
    lift_z2r_flow,
    min_flow_number,
)
from .homology import HomologySummary, homology_summary, subset_profile
from .io import parse_complex, serialize_complex
from .linalg import (
    IntMatrix,
    SNFResult,
    count_nowhere_zero_kernel_mod_q,
    enumerate_kernel_mod_q,
    kernel_count_mod_q,
    smith_normal_form,
)
from .matroid import (
    CoforestCover,
    RankOracle,
    coarboricity,
    coforest_cover,
    facet_connectivity,
    fundamental_circuit,
)
from .poly import BivariatePolynomial
from .tutte import (
    bott_r_polynomial,
    matroid_tutte,
    q_tkr_polynomial,
    tkr_polynomial,
)

__version__ = "0.1.0"
