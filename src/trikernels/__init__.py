"""Matrix-valued translation- and rotation-invariant kernels.

Construction and evaluation of TRI kernels and their spatial
derivatives, spectral (Fourier-side) analysis with sampled
positive-definiteness certificates, Hodge decomposition into curl-free
and divergence-free parts, minimal-norm vector-field interpolation on
landmarks, and Hamiltonian geodesic shooting with diffeomorphic flow
transport of ambient grids.
"""

from .specfun import (
    HankelConvergenceError,
    bessel_j,
    bessel_k,
    hankel_integral,
    lower_gamma,
    radial_moment,
    upper_gamma,
)
from .kernels import (
    ScalarProfile,
    TriKernel,
    bessel_kernel,
    bessel_profile,
    cauchy_kernel,
    cauchy_profile,
    curl_free_residual,
    div_free_residual,
    eval_matrix,
    family_example1,
    family_example2,
    field_jacobian,
    gaussian_hodge_pair,
    gaussian_kernel,
    gaussian_profile,
    in_D1,
    in_D2,
    ktilde,
    make_curl_free,
    make_div_free,
    scalar_kernel,
    sobolev_green_constant,
)
from .spectral import (
    HeavyTailWarning,
    PdVerdict,
    Spectrum,
    cauchy_spectrum,
    certify_pd,
    example1_spectrum,
    example2_spectrum,
    forward_map,
    gaussian_spectrum,
    hodge_orthogonality,
    hodge_split,
    inverse_map,
    mixed_gaussian_spectrum,
    spectrum_matrix,
)
from .fields import (
    InterpolationResult,
    LandmarkConfig,
    MomentaSet,
    NearSingularMatrixError,
    assemble_block_matrix,
    curl_magnitude_at,
    divergence_at,
    field_apply,
    field_zero,
    interpolate,
    snapshot_field,
)
from .dynamics import (
    CoalescenceError,
    FanResult,
    FlowGrid,
    GridSpec,
    IntegratorConfig,
    PhaseState,
    Trajectory,
    exp_map_fan,
    flow_grid,
    hamilton_rhs,
    hamiltonian,
    path_energy,
    shoot,
    theta_momenta,
)

__version__ = "0.1.0"
