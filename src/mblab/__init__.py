"""Solver laboratory for a two-phase flow model with dynamic capillarity.

The governing equation is a pseudo-parabolic regularization of the
Buckley-Leverett equation,

    u_t + f(u)_x = eps u_xx + eps^2 tau u_xxt,

solved on finite intervals by staggered central schemes (second order)
and a semi-discrete CWENO scheme (third order), with closed-form
truncation bounds quantifying the finite-domain error.
"""
__version__ = "0.1.0"

from .errors import ManifestError, NumericalError
from .flux import FluxModel, flux
from .operators import (
    Field,
    GridSpec,
    HALF_GRID,
    INTEGER_GRID,
    MBLParams,
    helmholtz_apply,
    helmholtz_solve,
    weighted_h1_norm,
)
from .bounds import (
    BoundParams,
    BoundReport,
    bound_constants,
    compare_domains,
    lemma_audit,
)
from .experiments import (
    ProfileReport,
    RunManifest,
    bifurcation_sweep,
    classify_profile,
    desk_manifest,
    domain_study,
    epsilon_sweep,
    export,
    load_manifest,
    order_table,
    run_manifest,
    smooth_ramp_ic,
)

__all__ = [
    "__version__",
    "ManifestError",
    "NumericalError",
    "FluxModel",
    "flux",
    "Field",
    "GridSpec",
    "HALF_GRID",
    "INTEGER_GRID",
    "MBLParams",
    "helmholtz_apply",
    "helmholtz_solve",
    "weighted_h1_norm",
    "BoundParams",
    "BoundReport",
    "bound_constants",
    "compare_domains",
    "lemma_audit",
    "ProfileReport",
    "RunManifest",
    "bifurcation_sweep",
    "classify_profile",
    "desk_manifest",
    "domain_study",
    "epsilon_sweep",
    "export",
    "load_manifest",
    "order_table",
    "run_manifest",
    "smooth_ramp_ic",
]
