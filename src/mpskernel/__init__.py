"""Quantum kernel machine learning via matrix product state circuit simulation."""

from .ansatz import (
    Circuit,
    FeatureMapConfig,
    Gate,
    build_circuit,
    encode_circuit,
    interaction_graph,
    route_linear,
)
from .kernel import (
    RunReport,
    TileSchedule,
    compute_gram,
    make_schedule,
    run_distributed,
    simulate_dataset,
)
from .learn import (
    Dataset,
    Metrics,
    SvmModel,
    decision_scores,
    evaluate,
    gaussian_gram,
    rescale,
    svm_train,
)
from .mps import (
    MpsState,
    apply_gate,
    canonicalize,
    init_state,
    inner_product,
    simulate_circuit,
    to_statevector,
)
from .tensor import SvdResult, svd_truncated

__version__ = "0.1.0"
