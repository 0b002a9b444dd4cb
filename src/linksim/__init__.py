"""Simulator for coherent spatial superposition of noisy quantum links.

Separable inputs sent through a coherent superposition of vacuum-extended
channels can come out maximally entangled, even when each individual
channel is entanglement breaking; this package simulates that mechanism
for Bell, GHZ and W targets and cross-checks it against closed-form
fidelity expressions.
"""

from .channels import (
    VacuumExtendedChannel,
    depolarizing_correlated,
    memoryless_bitflip,
    pauli_channel_correlated,
    pauli_string,
    unitary_channel,
)
from .linalg import (
    DensityMatrix,
    LinksimError,
    eig_hermitian,
    partial_trace,
    partial_traces,
    sqrt_psd,
)
from .metrics import (
    VacuumConfig,
    avg_one_vs_rest_concurrence,
    avg_pairwise_concurrence,
    bell_state,
    concurrence,
    fid_closed_bitphase,
    fid_closed_depolarizing,
    fid_closed_w3,
    fidelity_pure,
    fidelity_up_to_phase,
    w_state,
)
from .scenarios import (
    ScenarioSpec,
    SweepRecord,
    builtin,
    builtin_names,
    build_scenario,
    evaluate_point,
    optimize_amplitudes,
    sweep,
    verify_propositions,
)
from .superposition import (
    ControlState,
    MeasurementOutcome,
    SuperpositionScenario,
    apply,
    fourier_basis,
    global_kraus,
    measure_control,
    plus_control,
    pm_basis,
    run,
    uniform_control,
)

__version__ = "0.1.0"
