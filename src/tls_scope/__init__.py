"""Swap-spectroscopy simulation and analysis for tunneling two-level systems.

The package covers the full loop: standard-tunneling-model defect
physics, two-defect interaction spectra, synthetic swap-spectroscopy
datasets, trace extraction and hyperbola fitting, location
classification, and the derived material quantities (dipole moments,
volume density, loss tangent, relaxation budget).
"""

from .classify import LocationVerdict, classify_location, spectral_density
from .coupled import (
    CoupledPair,
    complete_hamiltonian_eigenbasis,
    crossing_geometry,
    full_hamiltonian_localized,
    pair_spectrum,
    single_tls_hamiltonian,
    transform_coupling_to_eigenbasis,
    transitions_truncated,
    truncated_hamiltonian_eigenbasis,
)
from .ensemble import (
    ControlChain,
    Ensemble,
    EnsembleConfig,
    apply_control_chain,
    generate_ensemble,
)
from .errors import (
    AmbiguousSigns,
    BiasLimitExceeded,
    DegenerateTrace,
    InvalidBand,
    NoConvergence,
    NoCrossingInRange,
    NonHermitianInput,
    SchemaError,
    TlsScopeError,
)
from .hyperbola import TraceFit, fit_hyperbola
from .linalg import Spectrum, eigensolve_hermitian
from .metrics import (
    MaterialReport,
    detectable_dipole_min,
    loss_tangent,
    material_report,
    participation_ratio,
    relaxation_budget,
    volume_density,
)
from .pairfit import CrossingPanel, PairFitResult, fit_coupled_pair
from .pipeline import AnalysisOptions, AnalysisResult, TlsRecord, analyze_dataset
from .spectro import (
    SegmentSpec,
    SpectroscopyDataset,
    coupled_pair_t1_map,
    default_sweep_plan,
    t1_map,
)
from .stm import (
    BiasPoint,
    Location,
    SensorDesign,
    TlsParams,
    TlsTable,
    asymmetry,
    coupling_strength,
    design_thickness,
    matrix_element,
    sample_capacitance,
    transition_energy,
    vacuum_voltage,
)
from .traces import Trace, extract_traces, link_tracks

__version__ = "0.1.0"
