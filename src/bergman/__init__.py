"""Numerical toolkit for Bergman kernels and the Berezin transform.

Closed-form kernels and graded quadrature on model domains in C^n, the
Berezin transform with its adjoint and the absolute Bergman projection,
discrete L^p operator-norm estimation, a kernel-ratio divergence scanner,
and the complete Hartogs-triangle blow-up computation.
"""

from .domains import (
    DomainSpec,
    ReinhardtProfile,
    ball,
    boas_profile,
    disc,
    domain_by_name,
    hartogs_triangle,
    kernel,
    kernel_diag,
    kernel_ratio,
    monomial_l2_norm2,
    normalized_kernel,
    polydisc,
    punctured_disc,
    sample_interior,
    upper_half_plane,
    volume,
)
from .quadrature import (
    QuadratureRule,
    build_rule,
    disc_patch_rule,
    integrate,
    load_rule,
    save_rule,
    tail_exponent_classify,
)
from .transforms import (
    absolute_projection,
    berezin,
    berezin_adjoint,
    bergman_project,
    pointwise_domination,
    unit_mass,
)
from .opnorm import (
    BRScanReport,
    NormEstimate,
    OperatorMatrix,
    br_scan,
    discretize_absolute_radial,
    discretize_berezin,
    discretize_berezin_radial,
    estimate_norm,
    product_norm_check,
    witness_lower_bound,
)
from . import errors, hartogs, reproduce

__version__ = "0.1.0"
