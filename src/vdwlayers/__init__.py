"""Ground-state van der Waals potentials of an atom in planar magnetodielectric multilayers.

Reduced units hbar = c = eps0 = mu0 = 1 throughout: frequencies against a
reference frequency, lengths in c/omega_ref, energies in hbar*omega_ref.
"""

from .materials import (
    CONDUCTING_MIRROR,
    PERMEABLE_MIRROR,
    VACUUM,
    AtomModel,
    MaterialModel,
    PerfectMirror,
    Resonance,
    StaticSummary,
    Transition,
    static_summary,
)
from .quadrature import (
    DEFAULT_SPEC,
    IntegralBatch,
    IntegralResult,
    NodeTable,
    QuadratureSpec,
    integrate_finite,
    integrate_nested,
    integrate_semi_infinite,
)
from .stack import Layer, LayerStack, ReflectionSet, axial_wavenumber, duality_swap, \
    reflection_coefficients
from .potential import (
    PotentialResult,
    potential_halfspace,
    potential_mirror,
    potential_multilayer,
    potential_plate,
    potential_thin_plate,
    potential_two_plates,
)
from .asymptotics import (
    BorderPoint,
    C4Limits,
    NoWallError,
    ThickCoeffs,
    ThinCoeffs,
    WallEstimate,
    border_curve,
    locate_wall,
    plate_coefficients,
    strong_limit_impedance_root,
    thick_c4_limits,
    thick_coefficients,
    thin_border_mu,
    thin_coefficients,
    thin_wall_height_bound,
    wall_estimate,
)
from .perturbation import (
    AdditivityReport,
    ExpansionTerm,
    PairReflection,
    additivity_check,
    expansion_order1,
    expansion_order2,
    thin_pair_reflection,
)

__version__ = "0.1.0"
