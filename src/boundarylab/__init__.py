"""boundarylab: exact induced actions on coset spaces, symbolic free-group
boundaries, and replayable measure-contraction certificates."""

__version__ = "0.1.0"

from .words import (
    BudgetExceededError,
    FreeGroup,
    PermutationGroup,
    Word,
    ball,
    generator,
    identity,
    parse_word,
    permutation_of,
    word,
)
from .cosets import (
    CosetTable,
    InfiniteIndexError,
    SchreierBasis,
    SubgroupHandle,
    cocycle,
    enumerate_cosets,
    eval_in_ambient,
    rewrite_in_basis,
    schreier_basis,
    subgroup,
)
from .spaces import (
    EQUAL,
    BoundaryPoint,
    BoundarySpace,
    ExtensionMap,
    FiniteSpace,
    InducedSpace,
    boundary_point,
    common_prefix_depth,
    induced_extension,
    induced_space,
    parse_boundary_point,
    parse_induced_point,
    stabilizer_subgroup,
)
from .measures import (
    AtomicMeasure,
    CylinderFunction,
    atomic_measure,
    dirac,
    is_fiber_supported,
    isometry_defect,
    poisson_transform,
    pushforward_group,
    pushforward_map,
)
from .checks import (
    CheckReport,
    ContractionCertificate,
    amenable_size_check,
    check_contraction_lifting,
    check_finite_extension,
    check_minimal_finite,
    check_minimal_symbolic,
    check_sp_extension,
    contract_measure,
    decompose_fibers,
    finite_contractible,
    replay,
)
from .scenario import (
    Scenario,
    ScenarioError,
    load_bundled_scenario,
    load_scenario,
    run_scenario,
)
