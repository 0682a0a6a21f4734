from .problems import LocalProblem, centralized_solution
from .topology import Topology, build_topology, rechain
from .compression import QuantizerConfig, CensorSchedule
from .energy import CommEnergyModel, message_energy
from .runner import TRAITS, Setting, TrainingTrace, run, run_points

__all__ = [
    "LocalProblem",
    "centralized_solution",
    "Topology",
    "build_topology",
    "rechain",
    "QuantizerConfig",
    "CensorSchedule",
    "CommEnergyModel",
    "message_energy",
    "TRAITS",
    "TrainingTrace",
    "run",
    "run_points",
    "Setting",
]
