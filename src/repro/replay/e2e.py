"""End-to-end model latency: ground truth and cost-model-driven prediction.

``predict_end_to_end`` takes per-program latencies from an arbitrary cost
function, querying it once per unique tensor program as in Section 5.5, and
replays the DFG; ``measure_end_to_end`` is the same with the device
simulator (standing in for real profiling) as the cost function.

Both are thin wrappers around :func:`compose_latencies`, the reusable step
that turns (DFG, per-kernel durations) into one end-to-end number.  The
serving layer's :class:`repro.serving.fleet.FleetService` calls it directly,
with durations coming from its batched prediction path; that is how a
trained cost model is served.  Two composition modes exist:

* ``"replay"`` — critical-path simulation of the execution order
  (Algorithm 2, the paper's method);
* ``"serial"`` — the serial-sum fallback: every kernel runs back to back on
  one queue, so the estimate is the sum of durations plus inter-kernel gaps.
  An upper bound on the replayed time, and exact on single-queue devices
  with linear graphs.

Device-specific replay behaviour: on accelerators with multiple GEMM engines
(HL-100 has 3) contraction nodes are split into ``gemm_engines`` parallel
sub-operators, each carrying 1/``gemm_engines`` of the predicted time.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Union

from repro.devices.simulator import DeviceSimulator
from repro.devices.spec import ACCEL, DeviceSpec, get_device
from repro.errors import ReplayError
from repro.graph.dfg import TIRDataFlowGraph, build_dfg
from repro.graph.model import ModelGraph
from repro.replay.replayer import ReplayResult, simulate
from repro.tir.program import TensorProgram

# Operator families that run on GEMM/convolution engines (used for splitting
# nodes on multi-engine accelerators, Section 5.5).
_SPLITTABLE_OPS = frozenset(
    {"conv2d", "dense", "batch_matmul", "attention_scores", "attention_context"}
)

COMPOSE_MODES = ("replay", "serial")

CostFn = Callable[[List[TensorProgram]], Dict[str, float]]


def compose_latencies(
    dfg: TIRDataFlowGraph,
    durations: Dict[str, float],
    device: Union[str, DeviceSpec],
    gap_s: float = 2e-6,
    mode: str = "replay",
) -> ReplayResult:
    """Compose per-kernel latencies into an end-to-end model estimate.

    ``durations`` maps workload keys to predicted (or measured) seconds, one
    entry per unique kernel of ``dfg``.  ``mode="replay"`` runs the
    critical-path simulation of Algorithm 2 (splitting contraction nodes
    across GEMM engines on accelerators); ``mode="serial"`` is the serial-sum
    fallback that never parallelizes.  The returned
    :class:`~repro.replay.replayer.ReplayResult` reports ``durations`` per
    unique workload, pre-splitting.
    """
    if mode not in COMPOSE_MODES:
        raise ReplayError(f"unknown composition mode {mode!r}; expected one of {COMPOSE_MODES}")
    if len(dfg) == 0:
        raise ReplayError(f"cannot compose latencies of empty DFG {dfg.name!r}")
    device = get_device(device) if isinstance(device, str) else device
    engines = int(device.gemm_engines) if device.taxonomy == ACCEL else 1
    if mode == "serial":
        plan = dfg.replay_plan(serial=True)
    else:
        plan = dfg.replay_plan(engines, _SPLITTABLE_OPS) if engines > 1 else dfg.replay_plan()
    missing = [key for key in plan.kernel_keys if key not in durations]
    if missing:
        raise ReplayError(f"missing durations for kernels {missing[:5]} (and possibly more)")
    per_kernel = [float(durations[key]) for key in plan.kernel_keys]
    result = simulate(
        plan,
        [per_kernel[kernel] / divisor for kernel, divisor in zip(plan.kernels, plan.divisors)],
        [float(gap_s)] * len(plan.names),
    )
    result.durations = dict(durations)
    return result


def predict_end_to_end(
    model: Union[str, ModelGraph],
    device: Union[str, DeviceSpec],
    cost_fn: CostFn,
    gap_s: float = 2e-6,
    seed: int | str | None = 0,
    compose: str = "replay",
) -> ReplayResult:
    """Predict the end-to-end latency of ``model`` on ``device`` using ``cost_fn``.

    ``cost_fn`` receives the unique tensor programs of the model's DFG and
    returns predicted latency (seconds) keyed by workload key; the cost model
    is therefore queried only once per unique TIR kernel, as in the paper.
    ``compose`` picks the composition mode (see :func:`compose_latencies`).
    Serving a :class:`repro.backends.CostModel` goes through
    :meth:`repro.serving.FleetService.predict_model` instead.
    """
    from repro.graph.zoo import build_model

    device = get_device(device) if isinstance(device, str) else device
    graph = model if isinstance(model, ModelGraph) else build_model(model)
    dfg = build_dfg(graph, target_kind=device.taxonomy, seed=seed)
    unique = dfg.unique_programs()
    durations = cost_fn(list(unique.values()))
    missing = set(unique) - set(durations)
    if missing:
        raise ReplayError(f"cost function did not return predictions for {sorted(missing)[:3]}")
    return compose_latencies(dfg, durations, device, gap_s, mode=compose)


def measure_end_to_end(
    model: Union[str, ModelGraph],
    device: Union[str, DeviceSpec],
    gap_s: float = 2e-6,
    seed: int | str | None = 0,
    compose: str = "replay",
) -> ReplayResult:
    """Ground-truth end-to-end latency using the device simulator as profiler."""
    device = get_device(device) if isinstance(device, str) else device
    simulator = DeviceSimulator(device, seed=seed)

    def cost_fn(programs: List[TensorProgram]) -> Dict[str, float]:
        return {program.task.workload_key: simulator.measure(program) for program in programs}

    return predict_end_to_end(model, device, cost_fn, gap_s=gap_s, seed=seed, compose=compose)
