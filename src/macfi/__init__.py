"""macfi: an int8 CNN accelerator emulator with per-multiplier fault injection.

The emulated datapath is a units x lanes grid of signed 8x8-bit multipliers
(8x8 by default) whose 18-bit output lanes can be overridden by stuck-at,
constant, or pulsed faults; campaigns measure the resulting accuracy drop.
"""

from .campaign import (
    CampaignResult,
    RunRecord,
    SweepSpec,
    run_fault_sweep,
    run_heatmap,
    summarize_boxplot,
)
from .errors import MacfiError
from .faultctl import (
    FaultMap,
    FaultMode,
    FiRegisterFile,
    LaneFault,
    SplitMix64,
    derive_seed,
    materialize,
    parse_fault_spec,
    sample_random_fault_map,
)
from .macarray import (
    Emulator,
    ExecResult,
    classify_argmax,
    mac_dot,
    mult_lane,
)
from .model import (
    Dataset,
    LayerSpec,
    ModelGraph,
    load_dataset,
    load_model,
    reference_forward,
    save_dataset,
    save_model,
)
from .planner import ArrayConfig, ExecutionPlan, plan_model, plan_stats
from .qtensor import QTensor, dequantize, quantize, requantize

__version__ = "0.1.0"

__all__ = [
    "ArrayConfig",
    "CampaignResult",
    "Dataset",
    "Emulator",
    "ExecResult",
    "ExecutionPlan",
    "FaultMap",
    "FaultMode",
    "FiRegisterFile",
    "LaneFault",
    "LayerSpec",
    "MacfiError",
    "ModelGraph",
    "QTensor",
    "RunRecord",
    "SplitMix64",
    "SweepSpec",
    "classify_argmax",
    "dequantize",
    "derive_seed",
    "load_dataset",
    "load_model",
    "mac_dot",
    "materialize",
    "mult_lane",
    "parse_fault_spec",
    "plan_model",
    "plan_stats",
    "quantize",
    "reference_forward",
    "requantize",
    "run_fault_sweep",
    "run_heatmap",
    "sample_random_fault_map",
    "save_dataset",
    "save_model",
    "summarize_boxplot",
]
