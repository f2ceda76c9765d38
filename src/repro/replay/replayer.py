"""The replayer: topological simulation of a TIR data-flow graph (Algorithm 2).

Given a DFG whose nodes carry durations (predicted or measured), the replayer
maintains one priority queue per device slot, repeatedly dequeues the ready
node with the smallest ready time, advances that slot's clock and releases
the node's successors.  The iteration time is the largest device clock when
the queues drain.  Multiple slots model devices that execute several kernels
concurrently (e.g. the three GEMM engines of HL-100, or multiple CUDA
streams).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.errors import ReplayError
from repro.graph.dfg import ReplayPlan, TIRDataFlowGraph


@dataclass
class ScheduledNode:
    """Replay outcome of one DFG node."""

    name: str
    start_s: float
    end_s: float
    device_slot: int


@dataclass
class ReplayResult:
    """Outcome of one replay."""

    iteration_time_s: float
    timeline: Dict[str, ScheduledNode] = field(default_factory=dict)
    durations: Dict[str, float] = field(default_factory=dict)


class Replayer:
    """Simulates the execution order of a TIR DFG (Algorithm 2)."""

    def __init__(self, num_device_slots: int = 1, gap_s: float = 0.0):
        if num_device_slots <= 0:
            raise ReplayError("num_device_slots must be positive")
        self.num_device_slots = int(num_device_slots)
        self.gap_s = float(gap_s)

    def replay(self, dfg: TIRDataFlowGraph) -> ReplayResult:
        """Simulate ``dfg`` and return the iteration time and per-node timeline."""
        if len(dfg) == 0:
            raise ReplayError("cannot replay an empty DFG")
        nodes = list(dfg.nodes.values())
        result = simulate(
            dfg.replay_plan(self.num_device_slots),
            [node.duration_s for node in nodes],
            [node.gap_s or self.gap_s for node in nodes],
        )
        result.durations = {node.task_key: node.duration_s for node in nodes}
        return result


def simulate(plan: ReplayPlan, durations: Sequence[float], gaps: Sequence[float]) -> ReplayResult:
    """Algorithm 2 over a compiled plan; the result's ``durations`` are left empty.

    ``durations[i]`` and ``gaps[i]`` are the run time of plan node ``i`` and
    the idle time its slot spends after it.
    """
    num_slots = plan.num_slots
    names, slots, successors = plan.names, plan.slots, plan.successors
    indegree = list(plan.indegree)
    ready_time = [0.0] * len(names)
    device_time = [0.0] * num_slots
    # Per-slot priority queues keyed by (readyTime, insertion order); roots
    # enter in counter order, which is already heap order.
    queues: List[List[Tuple[float, int, int]]] = [[] for _ in range(num_slots)]
    for counter, index in enumerate(plan.roots):
        queues[slots[index]].append((0.0, counter, index))
    counter = len(plan.roots)

    timeline: Dict[str, ScheduledNode] = {}
    for _ in range(len(names)):
        # select(D): the device slot with the smallest deviceTime among
        # those with a non-empty queue.
        slot = min(
            (s for s in range(num_slots) if queues[s]), key=device_time.__getitem__, default=None
        )
        if slot is None:
            raise ReplayError("replay deadlocked: no ready nodes but DFG not fully scheduled")
        _, _, index = heapq.heappop(queues[slot])

        start = max(device_time[slot], ready_time[index])
        end = start + durations[index]
        device_time[slot] = end + gaps[index]
        timeline[names[index]] = ScheduledNode(names[index], start, end, slot)

        for succ in successors[index]:
            indegree[succ] -= 1
            ready_time[succ] = max(ready_time[succ], device_time[slot])
            if indegree[succ] == 0:
                heapq.heappush(queues[slots[succ]], (ready_time[succ], counter, succ))
                counter += 1
    return ReplayResult(float(max(device_time)), timeline)
