"""fairband: distributed CPU-bandwidth allocation simulator and algorithms.

A resource manager adapts per-application virtual platforms toward a
weighted-fair allocation while each application adapts its own service
level; this package provides the recursions, a deterministic multi-rate
simulation kernel, reference oracles for the limiting dynamics, and
checkers for every derived guarantee.
"""

from .core import (ApplicationSpec, JobModel, PlatformSpec, fairness_vector,
                   make_state)
from .adaptation import RmUpdateResult, rm_step
from .simkernel import (Coefficients, Trajectory, compile_apps, kernel_step,
                        measure_job, run_scenario, service_step)
from .reference import (BalanceThresholds, StationaryPoint, TheoreticalBounds,
                        asymptotic_fair_share, balance_thresholds,
                        compute_bounds, equivalence_bound, integrate_ode,
                        solve_stationary_point, starvation_step_threshold)
from .analysis import (InvariantReport, convergence_report, interpolate,
                       sup_deviation_per_app, sweep_invariants)
from .scenario import (PRESETS, MembershipEvent, Scenario, emit,
                       parse_scenario, parse_scenario_text)
from .errors import (AdmissionError, ConfigurationError, ConvergenceError,
                     FairbandError, InvariantViolation)

__version__ = "1.0.0"
