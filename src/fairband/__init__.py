"""fairband: distributed CPU-bandwidth allocation simulator and algorithms.

A resource manager adapts per-application virtual platforms toward a
weighted-fair allocation while each application adapts its own service
level; this package provides the recursions, a deterministic multi-rate
simulation kernel, reference oracles for the limiting dynamics, and
checkers for every derived guarantee.

Each public name is imported from its submodule on first use, so `import
fairband` runs no submodule and a caller loads only the ones it reads.
"""

# the public names, by the submodule that defines them
_EXPORTS = {
    "core": ("ApplicationSpec", "JobModel", "PlatformSpec",
             "fairness_vector", "make_state"),
    "adaptation": ("RmUpdateResult", "rm_step"),
    "simkernel": ("Coefficients", "Trajectory", "compile_apps",
                  "kernel_step", "measure_job", "run_scenario"),
    "reference": ("BalanceThresholds", "StationaryPoint", "TheoreticalBounds",
                  "asymptotic_fair_share", "balance_thresholds",
                  "compute_bounds", "equivalence_bound", "integrate_ode",
                  "solve_stationary_point", "starvation_step_threshold"),
    "analysis": ("InvariantReport", "convergence_report", "interpolate",
                 "sup_deviation_per_app", "sweep_invariants"),
    "scenario": ("PRESETS", "MembershipEvent", "Scenario", "emit",
                 "parse_scenario", "parse_scenario_text"),
    "errors": ("AdmissionError", "ConfigurationError", "ConvergenceError",
               "FairbandError", "InvariantViolation"),
}
__all__ = [name for names in _EXPORTS.values() for name in names]
# each public name and each of those submodules, to the submodule it is
# read from
_SUBMODULE = {name: module for module, names in _EXPORTS.items()
              for name in (module, *names)}

__version__ = "1.0.0"


def __getattr__(name):
    """A public name on first use: its submodule is imported, and the name
    is bound here, so later reads do not come back."""
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own entry, which `python -X importtime` logs;
    # importlib.import_module would leave the submodule out of that log
    module = __import__(f"{__name__}.{_SUBMODULE[name]}", fromlist=[name])
    value = module if name in _EXPORTS else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SUBMODULE})
