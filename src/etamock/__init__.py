"""Eta-theta mock modular forms: evaluation, completion, and verification.

The package is organized around a catalogue of 59 mock theta functions
built from Appell-Lerch specializations of odd eta-theta functions.  The
modules are:

    core       working precision, series summation, the reduction to the
               fundamental domain; its quadrature only for tests and benchmark
    qseries    Dedekind eta, exact multipliers, formal q-expansions
    theta      Jacobi theta, eta-theta lists, unary theta g_{a,b}
    mu         Appell-Lerch mu, Mordell integral, completions, shadows
    vmn        the catalogue rows, modular transformation machinery
    quantum    rational-point arithmetic and finite hypergeometric sums
    eichler    period integrals: ray integrals against the 1/sqrt kernel
    verify     the checks of the paper's claims, and the verify suites
    cli        the command line

Each module imports only from those above it in this list.  Importing
the package leaves mpmath's working precision as the caller set it.
"""

from .core import DEFAULT_DPS, ConvergenceError
from .qseries import (
    FormalQSeries,
    RootOfUnity,
    SL2Matrix,
    dedekind_sum,
    e2pi,
    eta,
    eta_multiplier,
    eta_quotient_qexp,
    kronecker,
    qpoch,
)
from .theta import (
    E_from_g,
    e_from_theta,
    eta_theta_eval,
    eta_theta_qexp,
    g_ab,
    jacobi_theta,
    partial_theta,
    radial_limit,
    unary_theta_combination,
)
from .mu import (
    MabSpec,
    M_hat,
    R_correction,
    g2_universal,
    g_complement,
    kang_pair,
    mordell_h,
    mu,
    mu_hat,
    xi_shadow,
)
from .vmn import (
    MultiplierData,
    VmnSpec,
    all_rows,
    catalogue_json,
    fmn_product_form,
    fmn_theta_quotient,
    group_sample,
    in_A_group,
    is_admissible,
    shift_data,
    transformation_root,
    verify_thm11,
    vmn_completed,
    vmn_eval_mu,
    vmn_eval_series,
    vmn_spec,
)
from .quantum import (
    F_hk,
    companion_sum,
    companion_sum_composite,
    group_generators,
    in_quantum_set,
    quantum_set_label,
    vm1_at_rational,
    vmn_any,
    vmn_at_rational,
)
from .eichler import (
    integral_identity_lhs,
    ray_integral,
    shadow_ray_integral,
    unary_ray_integral,
)
from .verify import (
    corollary_check,
    verify_table2,
    verify_thm12_i,
    verify_thm12_ii,
    verify_thm12_iii,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
