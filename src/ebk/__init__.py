"""Semiclassical spectra of 1D Hamiltonian symbols from phase-space geometry."""

__version__ = "0.1.0"

from .symbols import (
    Box,
    EnergyWindow,
    PotentialSpec,
    SymbolSpec,
    anisotropic_symbol,
    compact_preimage_box,
    double_well_potential,
    eval_symbol,
    harmonic_potential,
    kerr_symbol,
    morse_potential,
    polynomial_potential,
    quartic_potential,
    regularity_report,
    schrodinger_symbol,
    symbol_from_config,
)
from .portrait import (
    ComponentFamily,
    LevelComponent,
    build_families,
    trace_component,
)
from .action import (
    ActionTable,
    build_action_table,
    green_area,
    invert_action,
    maslov_index,
)
from .solver import (
    BsSpectrum,
    DoubletCluster,
    SpectrumEntry,
    WeylCount,
    branch_energy,
    doublet_scan,
    exact_weyl_count,
    exit_hbar,
    merged_spectrum,
    quantize_family,
    safe_endpoints,
)
from .oracle import (
    BasisRun,
    EigenResult,
    OracleRun,
    TridiagonalOperator,
    count_below,
    discretize,
    domain_auto,
    eigenvalues_in,
    eigenvector,
    node_count,
    nodes_resolved,
    solve_basis,
    solve_window,
)
from .compare import (
    ConvergenceReport,
    MatchReport,
    convergence_study,
    match_spectra,
)
