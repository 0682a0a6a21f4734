"""Exact and heuristic placement solvers.

Both `solve_optimal` and `solve_heuristic` run one depth-first
branch-and-bound over positional cost tables.  The node-side tables (nodes
in id order, their speeds and compute energies, the path-energy matrix in
that order, the mean link energies) are built once per network and kept on
the NetGraph, so a placement row's heuristic and exact solves share them;
the component order and the unit-cost table are built once per solve.
Components are assigned in decreasing resource-demand order; nodes are
tried in id order, so ties break toward the smallest node id.  Placing
component i on node k costs a unit term unit[i][k] plus, for each edge to an
earlier-placed component j emitting O, the pair term O * D[k_j][k] over the
dense path-energy matrix.  A branch is cut when (cost so far) + (sum of the
cheapest remaining unit costs) reaches the incumbent, which a greedy pass
seeds; the pair terms of unassigned components are bounded below by zero.

The exact solver's unit cost is the device energy C*S/P and it keeps every
pair term.  The heuristic replaces the pair terms with each node's mean
incident link energy, O_t * mean_link_energy(n), folded into the unit cost:
the same search with no pair terms solves the resulting separable
generalized assignment problem exactly, and its energies are re-computed
with the true quadratic objective.
"""
from __future__ import annotations

import math
import time

from ..core import sequential_sum
from .model import AppGraph, Assignment, Infeasible, NetGraph, TimeBudgetExceeded, evaluate_assignment


def _feasibility_precheck(app: AppGraph, net: NetGraph) -> None:
    total_demand = sequential_sum(c.resources for c in app.components)
    total_supply = sequential_sum(n.resources for n in net.nodes)
    if total_demand > total_supply:
        raise Infeasible(
            f"total component demand {total_demand} exceeds total node resources {total_supply}"
        )


class _BranchAndBound:
    """Depth-first B&B over a T x M unit-cost table, per-component
    predecessor lists (j, O) and a dense M x M path-energy table D."""

    def __init__(self, comps, nodes, unit, pred, D, deadline: float | None):
        self.comps = comps
        self.nodes = nodes
        self.unit = unit
        self.pred = pred
        self.D = D
        self.deadline = deadline
        self.best_cost = math.inf
        self.best_map: list[int] | None = None
        self.timed_out = False
        self.tail_bound = [0.0] * (len(comps) + 1)
        for i in range(len(comps) - 1, -1, -1):
            self.tail_bound[i] = self.tail_bound[i + 1] + min(unit[i])

    def _steps(self, i: int, chosen: list[int], free: list[float]) -> list[tuple[float, int]]:
        """(step cost, node) for every node with room for component i: its
        unit term plus, in predecessor order, each edge to a placed one."""
        need = self.comps[i].resources
        unit, pred, D = self.unit[i], self.pred[i], self.D
        steps = []
        for k in range(len(free)):
            if free[k] >= need:
                step = unit[k]
                for j, output in pred:
                    step += output * D[chosen[j]][k]
                steps.append((step, k))
        return steps

    def _greedy_incumbent(self) -> None:
        """Cheapest-feasible-node greedy, used only to seed the pruning bound."""
        free = [n.resources for n in self.nodes]
        chosen: list[int] = []
        cost = 0.0
        for i, comp in enumerate(self.comps):
            options = self._steps(i, chosen, free)
            if not options:
                return
            step, k = min(options)
            cost += step
            free[k] -= comp.resources
            chosen.append(k)
        self.best_cost = cost
        self.best_map = chosen

    def solve(self) -> dict[int, int]:
        """The best map found: optimal unless `timed_out`."""
        self._greedy_incumbent()
        self._dfs(0, 0.0, [], [n.resources for n in self.nodes])
        if self.best_map is None and self.timed_out:
            raise TimeBudgetExceeded("time budget exhausted before any feasible incumbent")
        if self.best_map is None:
            raise Infeasible("no feasible assignment exists")
        return {c.id: self.nodes[k].id for c, k in zip(self.comps, self.best_map)}

    def _dfs(self, i: int, cost: float, chosen: list[int], free: list[float]):
        if self.timed_out:
            return
        if self.deadline is not None and time.monotonic() > self.deadline:
            self.timed_out = True
            return
        if i == len(self.comps):
            if cost < self.best_cost:
                self.best_cost = cost
                self.best_map = list(chosen)
            return
        need = self.comps[i].resources
        bound = self.tail_bound[i + 1]
        for step, k in self._steps(i, chosen, free):
            c = cost + step
            if c + bound >= self.best_cost:
                continue
            free[k] -= need
            chosen.append(k)
            self._dfs(i + 1, c, chosen, free)
            chosen.pop()
            free[k] += need


def _device_table(app: AppGraph, net: NetGraph):
    """Components by decreasing demand (id tie-break, keeping the search
    deterministic), the network's node table (nodes by id, `NetGraph._by_id`)
    and the device energy C*S/P of every component on every node."""
    comps = sorted(app.components, key=lambda c: (-c.resources, c.id))
    table = net._by_id
    device = [[e * (c.compute / p) for e, p in zip(table.compute_energy, table.speed)] for c in comps]
    return comps, table, device


def solve_optimal(app: AppGraph, net: NetGraph, time_budget: float | None = None) -> Assignment:
    """Minimum-E_t assignment via branch-and-bound.

    With a `time_budget` (seconds) the incumbent is returned when time runs
    out, with `status` = "time_budget_exceeded" and `gap` = incumbent cost
    minus the weak lower bound; raises TimeBudgetExceeded if no incumbent
    exists yet.
    """
    _feasibility_precheck(app, net)
    deadline = None if time_budget is None else time.monotonic() + time_budget
    comps, table, device = _device_table(app, net)
    # each edge is priced when its later-assigned endpoint is placed
    position = {c.id: i for i, c in enumerate(comps)}
    output = {c.id: c.output for c in comps}
    pred: list[list[tuple[int, float]]] = [[] for _ in comps]
    for t1, t2 in app.edges:
        i1, i2 = position[t1], position[t2]
        pred[max(i1, i2)].append((min(i1, i2), output[t1]))
    bnb = _BranchAndBound(comps, table.nodes, device, pred, table.D, deadline)
    mapping = bnb.solve()
    if not bnb.timed_out:
        return evaluate_assignment(app, net, mapping, status="optimal")
    gap = max(0.0, bnb.best_cost - bnb.tail_bound[0])
    return evaluate_assignment(app, net, mapping, status="time_budget_exceeded", gap=gap)


def solve_heuristic(app: AppGraph, net: NetGraph) -> Assignment:
    """Linear heuristic: per-node mean link energy replaces the pairwise term."""
    _feasibility_precheck(app, net)
    comps, table, device = _device_table(app, net)
    t_hat = [net.mean_link_energy(n.id) for n in table.nodes]
    unit = [[d + c.output * t for d, t in zip(row, t_hat)] for c, row in zip(comps, device)]
    bnb = _BranchAndBound(comps, table.nodes, unit, [[] for _ in comps], None, None)
    return evaluate_assignment(app, net, bnb.solve(), status="heuristic")
