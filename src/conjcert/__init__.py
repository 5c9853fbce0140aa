"""conjcert: exact-arithmetic certificates for real and rational conjugacy
in semidirect-product groups."""

from .fields import GF, QQ, QQI, FpElement, GaussianRational
from .linalg import (
    Matrix,
    Vector,
    has_fixed_point,
    kernel_basis,
    solve_linear,
)
from .groups import (
    Certificate,
    FiniteGroup,
    Inverse,
    OrderResult,
    Power,
    element_order,
    generate_closure,
    is_rational_bruteforce,
    is_real_bruteforce,
)
from .semidirect import (
    AffineElement,
    CentralSeriesPresentation,
    SemidirectProduct,
    lift_central_series,
    make_power_witness,
    make_real_witness,
    real_witness_via_lift,
)
from .sl2 import SL2Element, classify_rational_sl2v, classify_real, rho
from .affine import classify_affine_rational, rationality_certificates_linear
from .heisenberg import (
    GSpElement,
    HeisenbergElement,
    complex_heisenberg_reality,
    gsp_act,
    heisenberg_presentation,
)

__version__ = "0.1.0"
