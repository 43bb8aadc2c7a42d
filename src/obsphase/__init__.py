"""obsphase: geometric phases of cyclic Heisenberg evolutions.

Propagate a time-dependent Hamiltonian, detect when an observable's
Heisenberg evolution closes, split the eigenphases of the cycle into
dynamical and geometric parts, cross-check the geometric part against
the holonomy of the horizontal lift, and assemble geometric quantum
gates from cyclic loops.
"""

from .errors import (
    CrossCheckError,
    DegenerateSpectrumError,
    DimensionMismatchError,
    DynamicalResidualError,
    NotClosedError,
    NotCyclicError,
    NotHermitianError,
    NotUnitaryError,
    ObsphaseError,
    ScenarioError,
    ScheduleDomainError,
    ZeroFieldError,
    ZeroFrequencyError,
)
from .linalg import (
    is_hermitian,
    is_unitary,
    sigma_x,
    sigma_y,
    sigma_z,
)
from .hamiltonians import (
    HamiltonianSchedule,
    make_constant_z,
    make_quadratic_warp,
    make_rotating,
    make_tabulated,
    make_two_loop,
    make_warped,
)
from .propagation import (
    DEFAULT_STEPS,
    Propagator,
    solve,
)
from .obspace import (
    GaugeElement,
    OrthDecomposition,
    distance_DW,
    fiber_contains,
    from_observable,
    random_gauge,
    wrap_angle,
)
from .bundle import (
    HolonomyResult,
    LiftCurve,
    holonomy,
    horizontal_lift,
    lift_from_propagator,
)
from .phases import (
    CyclicityCheck,
    PhaseReport,
    circular_distance,
    detect_cyclic,
    dynamical_phase,
    geometric_phases,
    invariance_residuals,
    multiset_gap,
)
from .gates import (
    GateSpec,
    cnot_equivalence,
    two_loop_protocol,
    two_qubit_gate,
    u_phi_beta,
)

__version__ = "0.1.0"
