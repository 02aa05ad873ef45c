"""Numerical toolkit for the non-conformal degree-two maps r^{2a} e^{2it} + c.

Submodules: maps (evaluation, derivatives, metrics), render (escape-time and
attractor rasters), fixed_points (the parameter map, bifurcation curves and
cusps), jets (degree-3 jet algebra and Hopf numbers), orbits (critical and
periodic orbits, leaf pullbacks), cli (batch command-line front end).
"""

from .fixed_points import (
    DELTA,
    GAMMA_MINUS,
    GAMMA_PLUS,
    FixedPointRecord,
    Polyline,
    delta_circle,
    detect_cusps,
    find_fixed_points,
    gamma_minus,
    gamma_plus,
    injectivity_probe,
    param_for_fixed_point,
    trace_curve,
    trace_curve_image,
)
from .jets import (
    Jet3,
    compose_jets,
    coord_change1,
    hopf_number,
    hopf_sweep,
    jet_of_map,
    normal_form3,
)
from .maps import (
    MapParams,
    WirtingerPair,
    apply_map,
    inverse_branches,
    jacobian,
    lambda_min,
    q_alpha,
    rho_expansion_ratio,
    scaling_identity_check,
    tip_parameter,
)
from .orbits import (
    OrbitTrace,
    PeriodicOrbit,
    critical_orbit,
    find_periodic_orbit,
    pullback_leaf,
    smoothness_exponent,
)
from .render import (
    ATTRACTOR_DETECT,
    ESCAPE_ONLY,
    CellResult,
    GridSpec,
    PointClass,
    Raster,
    classify_point,
    escape_radius,
    render_julia,
    render_locus,
    write_cells_csv,
    write_pgm,
)

__version__ = "0.1.0"
