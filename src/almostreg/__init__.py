"""Numerical toolkit for almost-regular mappings on sampled metric spaces.

Modules:
  extreal     nonnegative extended reals with the 0 * inf = 1 convention
  spaces      point clouds, quasi-premetrics, axiom checking
  ekeland     constructive variational traces and derived points
  regularity  openness / regularity / inverse-Lipschitz checks and moduli
  ioffe       pointwise descent criterion, conclusions, iterative solver
  perturb     Lipschitz perturbation stability checks
  linear      moduli of linear operators between normed spaces
  scenarios   JSON scenario runner with deterministic reports
"""
from __future__ import annotations

__version__ = "0.1.0"

from .extreal import INF, ZERO, ExtReal, as_ext
from .spaces import (
    AxiomReport,
    DirectionSet,
    PartialMetric,
    PartialMetricError,
    Point,
    PointCloud,
    QuasiPremetric,
    as_point,
    check_axioms,
    directional_gauge,
    directional_time,
    euclidean_premetric,
    induce_from_partial,
    premetric_ball,
)
from .ekeland import (
    EkelandCertificate,
    EkelandTrace,
    Objective,
    TraceVerification,
    TwoConstantResult,
    approx_point,
    generate_trace,
    two_constant_point,
    verify_trace,
    weak_point,
)
from .regularity import (
    INF_KINDS,
    MODULUS_KINDS,
    SUP_KINDS,
    CheckReport,
    Metric,
    ModulusReport,
    ModulusSearchConfig,
    RegularityInstance,
    SampledMap,
    check_inverse_lipschitz,
    check_modulus_property,
    check_openness,
    check_regularity_estimate,
    closed_ball_openness,
    equivalence_suite,
    estimate_modulus,
    graph_max_metric,
    sequence_characterization,
    verify_product_laws,
)
from .ioffe import (
    CriterionReport,
    DescentReport,
    PairRegion,
    check_criterion,
    check_semilocal_openness,
    check_unconditional_estimate,
    conclude_openness,
    default_lambda,
    descent_solve,
    grid_scan_oracle,
    milyutin_gamma,
    newton_oracle,
    none_oracle,
    scalar_map,
    semilocal_region,
    setvalued_criterion,
    shrink_beta,
)
from .perturb import (
    BetaInterval,
    GravesReport,
    InequalityReport,
    LipschitzEstimate,
    PerturbationInstance,
    admissible_beta_interval,
    estimate_lip,
    global_rate_view,
    graves_check,
    lg_setvalued_check,
    lg_single_check,
    lg_sumstable_check,
    minkowski_sum_map,
    perturbed_map,
    sum_stability_check,
)
from .linear import (
    DenseMatrix,
    LinearVerdict,
    NormSpec,
    euclidean_space,
    harte_check,
    injectivity_bound,
    jacobi_column_norms,
    open_set_check,
    opnorm,
    singular_values,
    sur_lipschitz_check,
    sur_modulus,
)
from .scenarios import (
    RunReport,
    Scenario,
    ScenarioError,
    all_expectations_met,
    emit_report,
    load_scenario,
    run_suite,
)
