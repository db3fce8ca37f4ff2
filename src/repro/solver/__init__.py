"""ODE solver substrate: the from-scratch ODEPACK/LSODA replacement."""

from .adams import AdamsStepper, adams_adaptive
from .batch import BATCH_METHODS, BatchResult, solve_ivp_batch
from .bdf import BdfStepper, bdf_adaptive
from .common import SolverOptions, SolverResult, Stats, error_norm
from .driver import Stepper
from .ivp import METHODS, hermite_resample, solve_ivp
from .jacobian import (
    AnalyticJacobian,
    FiniteDifferenceJacobian,
    JacobianProvider,
)
from .lsoda import LsodaStepper, estimate_spectral_radius, lsoda_adaptive
from .sparsejac import (
    ColoredFiniteDifferenceJacobian,
    color_columns,
    jacobian_sparsity,
)
from .partitioned import (
    PartitionedResult,
    Signal,
    SubsystemRun,
    solve_partitioned,
)
from .recovery import GuardedRhs, RecoveryPolicy, RhsError, SolverFailure
from .rk import Rk45Stepper, rk4_fixed, rk45_adaptive

__all__ = [
    "AdamsStepper",
    "adams_adaptive",
    "BATCH_METHODS",
    "BatchResult",
    "solve_ivp_batch",
    "BdfStepper",
    "bdf_adaptive",
    "SolverOptions",
    "SolverResult",
    "Stats",
    "Stepper",
    "error_norm",
    "METHODS",
    "hermite_resample",
    "solve_ivp",
    "AnalyticJacobian",
    "FiniteDifferenceJacobian",
    "JacobianProvider",
    "ColoredFiniteDifferenceJacobian",
    "color_columns",
    "jacobian_sparsity",
    "estimate_spectral_radius",
    "LsodaStepper",
    "lsoda_adaptive",
    "PartitionedResult",
    "Signal",
    "SubsystemRun",
    "solve_partitioned",
    "GuardedRhs",
    "RecoveryPolicy",
    "RhsError",
    "SolverFailure",
    "rk4_fixed",
    "Rk45Stepper",
    "rk45_adaptive",
]
