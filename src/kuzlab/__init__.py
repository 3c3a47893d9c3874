"""Pseudospectral laboratory for quasilinear acoustic waves on periodic boxes.

The package simulates the Kuznetsov equation and its linear and Westervelt
reductions with spectral accuracy, evaluates the energy functionals, towers
and thresholds of the underlying well-posedness theory, and runs the
experiments (lifespan sweeps, stability envelopes, viscous decay, weighted
decay ratios, maximal regularity) that probe its qualitative claims.

Layering: fields (grids, spectral calculus) -> dynamics (models, steppers,
the run loop, monitors) -> jets/gamma (time-derivative cascade, symmetry
fields) -> energies (functionals, thresholds, envelopes) -> experiments
(drivers) -> io/config/cli (persistence, schema, entry points).
"""

from .config import (
    DecayOptions,
    EnergySelection,
    GaussianBump,
    KlainermanOptions,
    LinregOptions,
    MeanZeroPeriodic,
    Preset,
    RunConfig,
    SineMode,
    StabilityOptions,
    SweepOptions,
    ZeroVelocityGaussian,
    initial_data,
    materialize_preset,
    parse_config,
    serialize_config,
)
from .dynamics import (
    BreakdownCause,
    LinearForcedResult,
    ModelKind,
    PhysicalParams,
    Scheme,
    SimState,
    cfl_dt,
    effective_coefficients,
    hyperbolicity_factor,
    solve_linear_forced,
    step,
    support_radius,
)
from .energies import (
    AppendixDensities,
    EnergyReport,
    EnvelopeParams,
    InitialDataBoundReport,
    ThresholdRecord,
    appendix_b_coefficients,
    appendix_densities,
    energy_half_m,
    energy_m,
    energy_nonl,
    energy_wave,
    f_nu,
    gronwall_envelope,
    initial_data_bound_check,
    klainerman_record,
    lifespan_T0,
    make_report,
    nonlinear_energy_alpha,
    proposition_b,
    s_half_m,
    theorem_45_energy,
    thresholds,
)
from .errors import (
    ConfigError,
    GuardViolation,
    HyperbolicityBreakdown,
    KuzlabError,
    NonFiniteFieldError,
    StepRejected,
)
from .experiments import (
    BlowupVerdict,
    KlainermanResult,
    StabilityResult,
    SweepResult,
    SweepRow,
    ViscousDecayResult,
    klainerman_experiment,
    lifespan_sweep,
    run_until_breakdown,
    stability_experiment,
    viscous_decay_experiment,
)
from .fields import Field, Grid, linf_norm
from .gamma import GammaIndex, expand_gamma, gamma_words, generalized_derivatives
from .io import read_reports_csv, write_experiment_dir, write_reports_csv
from .jets import Jet, MultiIndex, apply_multi_derivative, build_jet

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
