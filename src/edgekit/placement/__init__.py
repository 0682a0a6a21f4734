from .model import (
    AppComponent,
    AppGraph,
    Assignment,
    Infeasible,
    NetGraph,
    NetNode,
    TimeBudgetExceeded,
    evaluate_assignment,
)
from .generators import InvalidShape, generate_application, generate_network
from .solvers import solve_heuristic, solve_optimal
from .io import instance_from_dict, load_instance

__all__ = [
    "AppComponent",
    "AppGraph",
    "Assignment",
    "Infeasible",
    "NetGraph",
    "NetNode",
    "TimeBudgetExceeded",
    "evaluate_assignment",
    "InvalidShape",
    "generate_application",
    "generate_network",
    "solve_heuristic",
    "solve_optimal",
    "instance_from_dict",
    "load_instance",
]
