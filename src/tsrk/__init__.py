"""Second-order stabilized two-step Runge-Kutta methods.

Design method coefficients from shifted Chebyshev stability polynomials,
analyze their stability domains, and integrate mildly stiff ODE systems
with the resulting constant-step schemes.
"""
from .chebyshev import cheb_t_derivs
from .design import (
    DEFAULT_EPS,
    DampingSolution,
    DesignFailure,
    DesignInput,
    StabilityPair,
    TwoStepMethod,
    build_damped_pair,
    build_method,
    build_undamped_pair,
    design_method,
    error_constant,
    solve_damping,
    stability_length,
    stable_interval_length,
)
from .integrator import (
    BlowUpError,
    CapacityError,
    RunResult,
    StepState,
    estimate_spectral_radius,
    integrate,
    select_stages,
    starter_y1,
    step,
)
from .problems import (
    PROBLEMS,
    IvpProblem,
    ReferenceValue,
    burgers,
    heat1d,
    heat1d_exact_state,
    hires,
    rober,
    vdpol,
    window_start_info,
)
from .reference import (
    ImplicitSolveReport,
    ReferenceSolverError,
    reference_integrate,
    richardson_validate,
)
from .stability import (
    CharRoots,
    DomainSample,
    ScanResult,
    char_roots,
    domain_sample,
    max_abs_root,
    real_axis_scan,
)

__version__ = "0.1.0"
