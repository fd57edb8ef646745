"""sturmtrace: spectra of substitution Jacobi operators via trace maps."""

from .substitution import (
    FIBONACCI,
    ResourceLimitError,
    Substitution,
    SubstitutionError,
    UnsupportedSubstitutionError,
    check_invertible,
    check_primitive,
    fixed_point_prefix,
    parse_substitution,
    periodic_word,
)
from .rotation import RotationParams, rotation_number, rotation_sample, scan_beta
from .tracemap import (
    OrbitVerdict,
    TraceMapRecipe,
    classify,
    fricke_vogt,
    recipe_from_substitution,
    step,
    surface_section,
)
from .jacobi import (
    JacobiParams,
    TridiagonalSpec,
    dirichlet_restriction,
    eigen_count_below,
    initial_conditions_grid,
    initial_invariant,
    invariant_slope,
    transfer_unimodular,
    word_transfer,
)
from .spectrum import (
    BandSet,
    Gap,
    band_measure,
    band_sum,
    dynamical_spectrum_probe,
    floquet_bands,
    gaps_with_labels,
    hausdorff_distance,
)
from .dos import IdsTable, dos_dimension_summary, ids, ids_counter, ids_scaling_exponent
from .fractal import (
    DimensionEstimate,
    ThicknessEstimate,
    box_dimension,
    gap_opening_rate,
    large_coupling_check,
    local_dimension_profile,
    p_to_zero_scan,
    thickness,
)

__version__ = "0.1.0"
