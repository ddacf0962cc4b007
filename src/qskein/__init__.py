"""qskein: exact quantum-torus computations for skein algebras of
triangulated surfaces.

The package computes, over the ring Z[q^(1/8), q^(-1/8)]:

* quantum tori with Weyl-normalized monomial bases (qtorus),
* face and vertex matrices of triangulated marked surfaces and their
  duality PH^T = -4 id (surface),
* normal curves, admissible states and the phase exponent u(s) (curves),
* the shear-to-skein map y^k -> x^(kH) and balancedness (shear),
* state-sum quantum traces of simple curves with an independent
  resolution oracle (trace),
* flip coordinate changes on both coordinate systems, composed along
  flip sequences as formal skew-field words (coordinate_change),
* punctured surfaces via the associated marked surface (puncture),
* root-of-unity representations over F_p certifying skew-field
  identities (repcheck).
"""

from .qscalar import Laurent, RootOfUnity
from .qtorus import (
    TorusSpec,
    TorusElement,
    canonical_projection,
    mlh_apply,
)
from .surface import (
    FlipData,
    SurfaceError,
    Triangulation,
    annulus,
    polygon,
    sphere_three_marked,
    torus_one_marked,
)
from .curves import (
    CurveError,
    NormalCurve,
    classify,
    crossing_pattern,
    enumerate_states,
    epsilon_vector,
    state_exponents,
    transport_curve,
    u_of_state,
)
from .shear import (
    ShearSkein,
    even_image_check,
    is_balanced,
)
from .trace import (
    TraceResult,
    oracle_resolution,
    psi_image_of_knot_monomial,
    trace_once_edge,
    trace_simple,
)
from .coordinate_change import (
    Expr,
    GeneratorImageMap,
    compose_flips,
    knot_monomial_transfer,
    phi_flip,
    theta_element,
    theta_flip,
)
from .repcheck import RootRep, Verdict, verify_generator_map_identity, verify_identity
from .puncture import BarBundle, LiftData, bar_trace, curve_lift, lift

__version__ = "0.1.0"
