"""Work statistics of driven finite spin chains.

Exact-diagonalization tooling for two-point-measurement work distributions,
characteristic functions of work, fluctuation-theorem checks, weak-coupling
expansions of ln chi(u), and Gibbs-preparation infidelity scans on the XXZ
chain.
"""

__version__ = "0.1.0"

from .spin_model import (
    OperatorMatrix,
    SpinChainSpec,
    assemble,
    build_hopping,
    build_zz,
    magnetization_sectors,
)
from .spectral_core import (
    DensityMatrix,
    SpectralDecomposition,
    eigendecompose,
    gibbs_state,
    infidelity,
    log_partition_function,
    thermal_expectation,
    uhlmann_fidelity,
)
from .drive_dynamics import (
    DriveProtocol,
    PropagatorResult,
    evolve_density,
    lambda_at,
    propagate,
    spectral_response,
)
from .work_statistics import (
    CfwSamples,
    WorkDistribution,
    average_work,
    cfw_from_distribution,
    cfw_trace,
    default_u_grid,
    delta_concentration,
    jarzynski_check,
    mean_energy_change,
    phase_linearity,
    tpm_distribution,
)
from .perturbative_cfw import (
    SpectralMeasure2,
    SpectralMeasure3,
    first_cumulant,
    lnchi_second_order,
    lnchi_second_order_quadrature,
    lnchi_third_order_adiabatic,
    three_point_measure,
    two_point_measure,
)
from .experiments import (
    RunConfig,
    ScanRecord,
    load_config,
    run_lambda_scaling,
    run_pert_compare,
    run_single,
    run_size_scan,
    run_velocity_scan,
)
