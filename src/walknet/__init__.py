"""Qudit quantum-walk entanglement toolkit.

State-vector simulation of d-level systems, walk-based entanglement swapping
and GHZ merging with exhaustive outcome verification, Steiner-tree planning
and execution of GHZ distribution over resource networks, Sierpinski-gasket
quantum networks with closed-form analytics, a multiparty secret-sharing
protocol, and per-qubit readout-error correction.
"""

from .qudit import (
    Basis,
    Branches,
    OperatorMatrix,
    QuditState,
    SizeCapError,
    apply,
    basis_state,
    canonical_bell,
    canonical_ghz,
    fidelity,
    fourier_op,
    identity_op,
    label_shift_op,
    measure_all_branches,
    pauli_ops,
    pauli_x,
    pauli_z,
    shift_op,
    tensor,
)
from .protocols import (
    BranchResult,
    CorrectionOp,
    ProtocolKind,
    ProtocolResult,
    ProtocolSpec,
    correction_for,
    derive_ghz_correction,
    run_protocol,
    walk_step,
)
from .tables import TableReport, verify_all_tables, verify_table
from .network import (
    DistributionResult,
    Resource,
    ResourceNetwork,
    SteinerTree,
    SwapSchedule,
    bundled_network_path,
    distribute,
    execute_schedule,
    load_network,
    plan_distribution,
    steiner_tree,
)
from .fractal import (
    FractalNetwork,
    SierpinskiGasket,
    analytics,
    build_gasket,
    build_quantum_network,
    clustering_formula,
    execute_merge_schedule,
    merge_schedule,
)
from .mqss import (
    MqssConfig,
    MqssTranscript,
    channel_check,
    encode_public,
    generate_shared_ghz,
    intercept_resend_error_rate,
    reconstruct,
    run_mqss,
)
from .readout import (
    CountVector,
    DeviceRecord,
    TransferMatrix,
    bundled_device_path,
    correct_counts,
    load_device_records,
    protocol_fidelity_under_noise,
    synthesize_counts,
    transfer_matrix,
)

__version__ = "0.1.0"
