"""Sigmoid-gated multi-head attention for graph transformers.

A GPS-style stack (gated local message passing + global softmax attention)
where each head's output can be modulated by a learned sigmoid gate, plus
the instruments to study what the gate does: stable-rank experiments,
over-smoothing (MAD) and attention-entropy profiles, gate statistics,
exact gradients with a finite-difference oracle, and a toy trainer.
"""

from .attention import (
    GateConfig,
    HeadTrace,
    HeadTraces,
    MhsaParams,
    gate_param_count,
    gated_head_forward,
    init_mhsa_params,
    siggate_mhsa,
)
from .diagnostics import (
    DepthProfile,
    GateStats,
    attention_entropy,
    depth_profile,
    gate_stats,
    mad,
    rank_bound_holds,
    stable_rank,
)
from .gps import (
    GraphInstance,
    GpsLayerParams,
    LayerTrace,
    ModelParams,
    MpnnParams,
    gps_layer_forward,
    init_model,
    layer_norm,
    model_forward,
    mpnn_forward,
    read_graph,
    write_graph,
)
from .numeric import (
    SeededRng,
    ShapeError,
    gaussian_matrix,
    matmul,
    row_softmax,
    top_singular_value,
)
from .synthexp import (
    CalibratedGate,
    RankExpConfig,
    RankExpResult,
    SyntheticTask,
    calibrate_gate,
    make_toy_task,
    run_rank_experiment,
    run_robustness_sweep,
)
from .training import (
    FdReport,
    OptimizerState,
    ParamSet,
    TrainConfig,
    TrainHistory,
    adamw_step,
    cosine_lr,
    finite_difference_check,
    load_model,
    loss_and_gradients,
    save_model,
    train_toy,
)

__version__ = "0.1.0"
