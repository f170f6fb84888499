"""circledual: the truncated oscillator / rotating-particle correspondence, executable.

An N-level harmonic oscillator is unitarily equivalent, through a DFT-type
basis change, to a particle hopping around N circle sites; probabilities
over the sites evolve by rigid classical rotation.  This package builds the
basis change and the operator representations on both sides, evaluates the
analytic function family that carries the circle-side matrix elements, and
verifies every piece of the correspondence numerically.  A CLI emits the
verification reports and figure data as deterministic CSV/JSON artifacts.
"""

__version__ = "0.1.0"

from .auxfun import (
    KERNEL_GUARD,
    SeriesResult,
    ZeroSet,
    angle_kernel,
    li_three_halves,
    li_three_halves_circle,
    li_three_halves_sheet2,
    map_to_y,
    reduce_angle,
    sqrt_series,
    sqrt_series_disk,
    sqrt_series_sheet2,
    sqrt_series_zeros,
)
from .dynamics import (
    AngleDistribution,
    EvolveReport,
    born_distribution,
    duality_deviations,
    evolve_quantum,
    evolve_report,
    sampled_duality_deviations,
    transport_steps,
)
from .errors import (
    BasisError,
    CircleDualError,
    ConvergenceError,
    DimensionError,
    DomainError,
    NearSingularityError,
    NormalizationError,
    PoleError,
    ZeroFindingError,
)
from .figdata import (
    FigureData,
    emit_domain_map,
    emit_f_curve,
    emit_spectrum,
    write_csv,
    write_json,
)
from .hilbert import (
    Basis,
    StateVector,
    energy_state,
    ontological_state,
    random_state,
    random_states,
    to_energy,
)
from .operators import compare_matrix_elements
