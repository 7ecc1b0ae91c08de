"""Swap-spectroscopy simulation and analysis for tunneling two-level systems.

The package covers the full loop: standard-tunneling-model defect
physics, two-defect interaction spectra, synthetic swap-spectroscopy
datasets, trace extraction and hyperbola fitting, location
classification, and the derived material quantities (dipole moments,
volume density, loss tangent, relaxation budget).
"""

from .classify import classify_location, spectral_density
from .coupled import (
    CoupledPair,
    crossing_geometry,
    pair_transitions,
    transitions_truncated,
)
from .ensemble import Ensemble, EnsembleConfig, generate_ensemble
from .errors import (
    AmbiguousSigns,
    ConfigError,
    DegenerateTrace,
    NoConvergence,
    NoCrossingInRange,
    NoTracesFound,
    SchemaError,
    TlsScopeError,
)
from .hyperbola import TraceFit, fit_hyperbola
from .metrics import (
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
    design_thickness,
    energies,
    sample_capacitance,
    vacuum_voltage,
)
from .traces import Trace, extract_traces, link_tracks

__version__ = "0.1.0"
