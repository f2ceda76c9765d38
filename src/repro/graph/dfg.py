"""TIR-based data-flow graphs: the input of the end-to-end replayer.

A :class:`TIRDataFlowGraph` has one node per tensor program (one per operator
node of the source model) and edges for data dependencies.  Each node carries
the latency assigned to it -- either measured on the simulator (ground truth)
or predicted by a cost model -- plus an optional gap modelling framework
overhead between kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.errors import ReplayError
from repro.graph.model import ModelGraph
from repro.tir.lower import lower
from repro.tir.program import TensorProgram
from repro.tir.schedule import Schedule, random_schedule
from repro.utils.rng import new_rng, spawn_rng
from repro.utils.topo import topological_order


@dataclass
class DFGNode:
    """One tensor program instance in the data-flow graph; once added, only
    ``duration_s`` and ``gap_s`` may change (replay plans are compiled from the rest)."""

    name: str
    program: TensorProgram
    inputs: List[str] = field(default_factory=list)
    duration_s: float = 0.0
    gap_s: float = 0.0
    device_slot: int = 0

    @property
    def task_key(self) -> str:
        """Workload key of the node's task."""
        return self.program.task.workload_key


@dataclass(frozen=True)
class ReplayPlan:
    """A DFG's topology resolved to indices for one slot configuration.

    Plan node ``i`` is ``names[i]``: it runs kernel ``kernel_keys[kernels[i]]``
    on device slot ``slots[i]`` for 1/``divisors[i]`` of that kernel's time,
    waits for ``indegree[i]`` predecessors and releases ``successors[i]``.
    ``roots`` are the nodes ready at time zero, in plan order.
    """

    num_slots: int
    kernel_keys: Tuple[str, ...]
    names: Tuple[str, ...]
    kernels: Tuple[int, ...]
    divisors: Tuple[int, ...]
    slots: Tuple[int, ...]
    successors: Tuple[Tuple[int, ...], ...]
    indegree: Tuple[int, ...]
    roots: Tuple[int, ...]


class TIRDataFlowGraph:
    """A DAG of tensor programs with per-node durations.

    Its unique-kernel map and replay plans are memoized until the next
    :meth:`add_node`, so replaying a cached graph touches only durations.
    """

    def __init__(self, name: str):
        self.name = name
        self._nodes: Dict[str, DFGNode] = {}
        self._unique: Optional[Dict[str, TensorProgram]] = None
        self._plans: Dict[tuple, ReplayPlan] = {}

    def add_node(self, node: DFGNode) -> None:
        """Insert a node; dependencies must already be present."""
        if node.name in self._nodes:
            raise ReplayError(f"duplicate DFG node {node.name!r}")
        for dep in node.inputs:
            if dep not in self._nodes:
                raise ReplayError(f"DFG node {node.name!r} depends on unknown node {dep!r}")
        self._nodes[node.name] = node
        self._unique = None
        self._plans = {}

    @property
    def nodes(self) -> Dict[str, DFGNode]:
        """All nodes keyed by name."""
        return dict(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def topo_order(self) -> List[str]:
        """Node names in topological order."""
        succ: Dict[str, List[str]] = {name: [] for name in self._nodes}
        for node in self._nodes.values():
            for dep in node.inputs:
                succ[dep].append(node.name)
        return list(topological_order(self._nodes.keys(), succ))

    def unique_programs(self) -> Dict[str, TensorProgram]:
        """Deduplicated tensor programs keyed by workload key.

        The replayer queries the cost model once per unique program and
        shares the prediction across all nodes with the same workload.
        """
        if self._unique is None:
            unique: Dict[str, TensorProgram] = {}
            for node in self._nodes.values():
                unique.setdefault(node.task_key, node.program)
            self._unique = unique
        return dict(self._unique)

    def replay_plan(
        self, num_slots: int = 1, split_ops: FrozenSet[str] = frozenset(), serial: bool = False
    ) -> ReplayPlan:
        """The memoized :class:`ReplayPlan` of one slot configuration.

        By default: the nodes in insertion order, each on slot
        ``device_slot % num_slots``.  ``split_ops``: topological order, nodes
        of those operators split into ``num_slots`` sub-nodes
        ``name#engine{i}`` on slot ``i``, the rest on slot 0.  ``serial``: one
        chain in topological order on slot 0.
        """
        key = (num_slots, split_ops, serial)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._compile_plan(num_slots, split_ops, serial)
        return plan

    def _compile_plan(self, num_slots: int, split_ops: FrozenSet[str], serial: bool) -> ReplayPlan:
        kernel_keys = tuple(self.unique_programs())
        kernel_of = {key: index for index, key in enumerate(kernel_keys)}
        reorder = serial or bool(split_ops)
        rows: List[tuple] = []  # (name, kernel, divisor, slot, predecessor indices)
        expanded: Dict[str, range] = {}
        for name in self.topo_order() if reorder else self._nodes:
            node = self._nodes[name]
            if serial:
                deps = [len(rows) - 1] if rows else []
            else:
                deps = [index for dep in node.inputs for index in expanded[dep]]
            kernel = kernel_of[node.task_key]
            if node.program.task.op_type in split_ops:
                parts = [(f"{name}#engine{e}", kernel, num_slots, e, deps) for e in range(num_slots)]
            else:
                parts = [(name, kernel, 1, 0 if reorder else node.device_slot % num_slots, deps)]
            expanded[name] = range(len(rows), len(rows) + len(parts))
            rows.extend(parts)
        successors: List[List[int]] = [[] for _ in rows]
        for index, row in enumerate(rows):
            for dep in row[4]:
                successors[dep].append(index)
        names, kernels, divisors, slots, inputs = zip(*rows) if rows else ((),) * 5
        return ReplayPlan(
            num_slots, kernel_keys, names, kernels, divisors, slots,
            successors=tuple(map(tuple, successors)),
            indegree=tuple(map(len, inputs)),
            roots=tuple(index for index, deps in enumerate(inputs) if not deps),
        )

    def assign_durations(self, durations: Dict[str, float], gap_s: float = 0.0) -> None:
        """Assign per-node durations from a mapping of workload key -> seconds."""
        missing = [n.name for n in self._nodes.values() if n.task_key not in durations]
        if missing:
            raise ReplayError(f"missing durations for nodes {missing[:5]} (and possibly more)")
        for node in self._nodes.values():
            node.duration_s = float(durations[node.task_key])
            node.gap_s = float(gap_s)

    def total_duration(self) -> float:
        """Sum of node durations (serial lower bound, ignores gaps)."""
        return float(sum(node.duration_s for node in self._nodes.values()))


def build_dfg(
    model: ModelGraph,
    schedule_chooser: Optional[Callable[[object, np.random.Generator], Schedule]] = None,
    target_kind: str = "gpu",
    seed: int | str | None = 0,
) -> TIRDataFlowGraph:
    """Build the TIR data-flow graph of a model.

    Each operator node is lowered with a schedule chosen by
    ``schedule_chooser`` (default: one random schedule per unique workload,
    mirroring the paper's "randomly sample a schedule for each task" protocol
    in the end-to-end experiments).  Nodes sharing a workload share the same
    schedule, as a compiled model reuses one kernel per workload.
    """
    rng = new_rng(seed)
    dfg = TIRDataFlowGraph(model.name)
    program_cache: Dict[str, TensorProgram] = {}

    for name in model.topo_order():
        op_node = model.node(name)
        key = op_node.task.workload_key
        if key not in program_cache:
            task_rng = spawn_rng(rng, "dfg", key)
            if schedule_chooser is not None:
                schedule = schedule_chooser(op_node.task, task_rng)
            else:
                schedule = random_schedule(op_node.task, task_rng, target_kind=target_kind)
            program_cache[key] = lower(op_node.task, schedule)
        dfg.add_node(
            DFGNode(name=name, program=program_cache[key], inputs=list(op_node.inputs))
        )
    return dfg
