"""rydant: dressed-level, spectrum, cell and pattern tools for a
Rydberg-atom RF antenna with polarization-independent response."""

from .angular import AngularMomentum, clebsch_gordan, decompose_polarizations
from .cellfield import (
    CellGeometry,
    FieldProfile,
    angle_sweep_deviation,
    path_average,
    transfer_matrix_field,
)
from .hamiltonian import RfDrive, TransitionSystem
from .metrology import (
    FieldEstimate,
    GainSample,
    field_from_splitting,
    gram_splittings,
    isotropic_deviation,
    normalized_gain,
)
from .patterns import (
    GainPattern,
    PatternComparison,
    SweepPlan,
    compare_patterns,
    dipole_reference,
    run_sweep,
)
from .spectra import (
    LadderConfig,
    SpectrumTrace,
    SplittingResult,
    SteadyStateError,
    UnresolvedSplittingError,
    extract_splitting,
    scan_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "AngularMomentum",
    "CellGeometry",
    "FieldEstimate",
    "FieldProfile",
    "GainPattern",
    "GainSample",
    "LadderConfig",
    "PatternComparison",
    "RfDrive",
    "SpectrumTrace",
    "SplittingResult",
    "SteadyStateError",
    "SweepPlan",
    "TransitionSystem",
    "UnresolvedSplittingError",
    "angle_sweep_deviation",
    "clebsch_gordan",
    "compare_patterns",
    "decompose_polarizations",
    "dipole_reference",
    "extract_splitting",
    "field_from_splitting",
    "gram_splittings",
    "isotropic_deviation",
    "normalized_gain",
    "path_average",
    "run_sweep",
    "scan_spectrum",
    "transfer_matrix_field",
]
