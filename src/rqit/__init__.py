"""Relativistic quantum information toolkit.

Simulates a qubit carried by free scalar-field modes as seen by a uniformly
accelerated observer, and the quantities that characterize it: logarithmic
negativity, teleportation fidelity, Bures-angle distinguishability and the
deformed Bures geometry of the effective state space.
"""

from .channel import (
    AccelerationParam,
    FockCutoff,
    OrthogonalityParam,
    effective_qubit,
    entangled_state,
    minkowski_qubit,
    small_r_qubit,
    unruh_one_particle_amplitudes,
    unruh_vacuum_amplitudes,
)
from .distinguishability import AngleResult, angle_sweep, bures_angle
from .entanglement import NegativityResult, log_negativity, negativity_sweep
from .errors import (
    BoundaryError,
    ChartError,
    InvalidBlochError,
    NotPSDError,
    NumericError,
    RQITError,
    SizeError,
    TruncationError,
)
from .geometry import (
    CurvatureResult,
    MetricValue,
    curvature_comparison,
    fidelity,
    generalized_bures_distance,
    metric_cartesian,
    metric_polar,
    metric_polar_pullback,
    numeric_metric,
    root_fidelity,
    scalar_curvature_numeric,
    scalar_curvature_closed_form,
)
from .linalg import (
    DenseOperator,
    matrix_sqrt,
    partial_transpose,
    trace_norm,
)
from .teleportation import (
    FidelityEstimate,
    FidelityResult,
    ProtocolKit,
    SchmidtDecomposition,
    average_fidelity_exact,
    average_fidelity_mc,
    build_protocol,
    fidelity_bound,
    fidelity_sweep,
    haar_qubit_unitaries,
    run_protocol,
    schmidt_decompose,
)

__version__ = "0.1.0"
