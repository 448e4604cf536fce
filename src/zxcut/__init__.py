"""zxcut: strong Clifford+T simulation by cutting, partitioning and
regrouping scalar ZX-diagrams."""

from .circuits import Circuit, CircuitParseError, parse_circuit
from .costmodel import CostModel
from .cutting import cut_cost, cut_spider, instantiate
from .decompose import (Decomposition, DecomposeStats, decompose_to_scalar,
                        derive_one_t_coefficients, derive_two_t_coefficients,
                        measure_alpha)
from .diagram import (EdgeKind, Phase, Spider, SpiderKind, ZxDiagram,
                      diagram_from_circuit, plug, validate)
from .engine import (Report, ResourceCapError, ResourceCaps, simulate_amplitude,
                     split_segments)
from .generators import (CircuitSpec, CompoundSpec, gen_clifford_t,
                         gen_compound, sample_span, span_weights)
from .oracle import naive_global_sum, statevector_amplitude
from .partition import (PartitionHypergraph, PartitionPlan, choose_k,
                        partition_k, to_partition_hypergraph)
from .regroup import (Segment, SegmentHypergraph, local_index, min_pair,
                      plan_schedule, precompute_segment, regroup_all)
from .scalars import ScalarC
from .simplify import Trace, clifford_simplify, param_safe_simplify
from .tensor import TensorSizeError, tensor_of

__all__ = [
    "Circuit", "CircuitParseError", "parse_circuit",
    "CostModel",
    "cut_cost", "cut_spider", "instantiate",
    "Decomposition", "DecomposeStats", "decompose_to_scalar",
    "derive_one_t_coefficients", "derive_two_t_coefficients", "measure_alpha",
    "EdgeKind", "Phase", "Spider", "SpiderKind", "ZxDiagram",
    "diagram_from_circuit", "plug", "validate",
    "Report", "ResourceCapError", "ResourceCaps", "simulate_amplitude",
    "split_segments",
    "CircuitSpec", "CompoundSpec", "gen_clifford_t", "gen_compound",
    "sample_span", "span_weights",
    "naive_global_sum", "statevector_amplitude",
    "PartitionHypergraph", "PartitionPlan", "choose_k", "partition_k",
    "to_partition_hypergraph",
    "Segment", "SegmentHypergraph", "local_index", "min_pair", "plan_schedule",
    "precompute_segment", "regroup_all",
    "ScalarC",
    "Trace", "clifford_simplify", "param_safe_simplify",
    "TensorSizeError", "tensor_of",
]
