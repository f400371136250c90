"""Interpretable reduced-order models of multi-phase robot jumps.

Learns a shared-weight linear latent embedding of jump recordings and
sparse symbolic dynamics per contact phase, then evaluates the learned
models by ODE rollout against the recordings and an actuated-SLIP
baseline.
"""

from .__about__ import __version__
from .autoencoder import (
    AutoencoderParams,
    decode,
    encode,
    finetune_decoder,
    input_map,
    recon_loss,
    reconstruct,
    train_autoencoder,
)
from .pipeline import (
    MultiPhaseModel,
    SelectionReport,
    TrainingConfig,
    fine_tune,
    load_model,
    model_selection_scan,
    run_pipeline,
    save_model,
)
from .rollout import (
    RolloutConfig,
    RolloutResult,
    integrate,
    rollout_full,
    rollout_jumps,
    rollout_with_reset,
)
from .sindy import (
    FunctionLibrarySpec,
    PhaseModel,
    SparseCoefficients,
    build_library_row,
    count_active,
    fit_phase_model,
    print_symbolic,
    stlsq,
)
from .trajectory_data import (
    Dataset,
    Phase,
    Trajectory,
    add_noise,
    assemble_input,
    compute_com_wrench,
    differentiate_velocity,
    load_dataset,
    process_dataset,
    save_dataset,
    segment_phases,
    split_dataset,
)

__all__ = [name for name in dir() if not name.startswith("_")]
