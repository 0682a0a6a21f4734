from .problems import LocalProblem, centralized_solution, total_objective
from .topology import Topology, build_topology, rechain
from .compression import QuantizerConfig, QuantizedMessage, CensorSchedule, quantize, dequantize, censor_decision
from .energy import CommEnergyModel, message_energy
from .runner import TrainingTrace, run, primal_update, dual_update

__all__ = [
    "LocalProblem",
    "centralized_solution",
    "total_objective",
    "Topology",
    "build_topology",
    "rechain",
    "QuantizerConfig",
    "QuantizedMessage",
    "CensorSchedule",
    "quantize",
    "dequantize",
    "censor_decision",
    "CommEnergyModel",
    "message_energy",
    "TrainingTrace",
    "run",
    "primal_update",
    "dual_update",
]
