"""Chern forms, Schur forms, Chern-number bounds and Riemann-Roch from
explicit curvature data.

The package has three layers:

* pointwise linear algebra -- exterior forms at a point, sparse or as
  (p,p) coefficient blocks (``forms``),
  factor tensors, the curvature matrices they build, and frame changes
  (``curvature``);
* characteristic forms -- Chern forms of a factor tensor or a curvature matrix
  (``chern``), Schur
  polynomials and the sampled nonnegativity / inequality-chain engines
  (``schur``), over one exact sparse-polynomial class (``polynomials``);
* closed-form models -- products of projective spaces and tori with exact
  Chern numbers, Todd classes, and Euler characteristics (``models``).

``chernforms.cli`` exposes the same capabilities as a command line tool.
"""

from .errors import ConsistencyError, InputError
from .scalars import EXACT, FLOAT, GaussianRational
from .forms import (
    DEFAULT_TOL,
    MAX_DIM,
    Form,
    PPForm,
    TupleBatch,
    VerdictReport,
    conjugate,
    evaluate,
    nonnegative_sampled,
)
from .curvature import (
    CurvatureMatrix,
    CurvatureTensor,
    bott_chern_curvature,
    change_frame,
    factor_from_tensor,
    griffiths_value,
    random_exact_factor,
    random_tensor,
    random_unitary,
)
from .chern import ChernFormSet, chern_forms, chern_product, top_coefficient
from .polynomials import Polynomial
from .schur import (
    ChainReport,
    Partition,
    SchurReport,
    bounds_chain_check,
    evaluate_on_forms,
    nonnegative_psd,
    partitions,
    schur_polynomial,
    verify_schur_nonnegativity,
)
from .models import (
    CATALOG,
    ModelBoundsReport,
    ModelManifold,
    chern_number,
    complex_torus,
    euler_characteristic,
    kodaira_leading,
    line_class,
    parse_model,
    product,
    projective_space,
    rr_polynomial,
    todd_class,
    todd_polynomials,
    todd_series,
    verify_number_bounds,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
