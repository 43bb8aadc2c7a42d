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
    NotGaugeError,
    NotHermitianError,
    NotUnitaryError,
    ObsphaseError,
    ScenarioError,
    ScheduleDomainError,
    ZeroFieldError,
    ZeroFrequencyError,
)
from .linalg import (
    EigenDecomposition,
    expm_skew,
    fix_phase,
    hermitian_eig,
    is_hermitian,
    is_unitary,
    normalize,
    operator_norm,
    sigma_x,
    sigma_y,
    sigma_z,
)
from .hamiltonians import (
    HamiltonianSchedule,
    make_block_two_qubit,
    make_constant_z,
    make_quadratic_warp,
    make_reversed,
    make_rotating,
    make_tabulated,
    make_two_loop,
    make_warped,
    make_zero,
)
from .propagation import (
    DEFAULT_STEPS,
    Propagator,
    closed_form_rotating,
    exact_constant_propagator,
    exact_rotating_propagator,
    heisenberg_evolve,
    inverse_at,
    solve,
)
from .obspace import (
    GaugeElement,
    OrthDecomposition,
    bloch_chart,
    decompositions_equal,
    distance_DW,
    fiber_contains,
    from_observable,
    gauge_from_unitary,
    random_gauge,
    wrap_angle,
)
from .bundle import (
    HolonomyResult,
    LiftCurve,
    connection_eval,
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
    commutes,
    two_loop_protocol,
    two_qubit_gate,
    u_phi_beta,
)

__version__ = "0.1.0"
