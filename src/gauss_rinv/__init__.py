"""Bounded right inverse of lap + a on Gaussian-weighted L2, made concrete.

Exact polynomial calculus, scaled Hermite bases, the formal-adjoint
commutator identities behind the coercivity bound, a minimal-norm solver
realizing the 1/(8n) estimate, and the bounded-domain / embedding /
counterexample pipelines built on top of it.
"""

from .polynomials import DimensionMismatchError, MultiIndex, Polynomial
from .hermite import (
    GaussianScalar,
    HermiteExpansion,
    UnitMismatchError,
    WeightSpec,
    inner_product,
    integrate_gaussian,
    monomial_to_hermite,
    norm_sq,
)
from .adjoint import (
    CheckReport,
    check_adjoint_norm_split,
    check_adjointness,
    check_coercivity,
    check_commutator_pairing,
    check_duality,
    commutator,
    formal_adjoint,
    run_identity_battery,
)
from .rightinverse import (
    GramConditionError,
    KernelFunction,
    SolveReport,
    apply_right_inverse,
    enrich,
    kernel_basis,
    operator_norm,
    shifted_laplacian,
    solve_min_norm,
)
from .domains import (
    BoxDomain,
    BoundedSolveReport,
    EmbeddingReport,
    CounterexampleReport,
    QuadratureError,
    SampledFunction,
    counterexample_report,
    embedding_check,
    solve_bounded,
)

__version__ = "0.1.0"
