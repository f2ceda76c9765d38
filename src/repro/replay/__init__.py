"""End-to-end replay: simulate a model's execution from per-program latencies."""

from repro.replay.replayer import ReplayResult, Replayer
from repro.replay.e2e import (
    COMPOSE_MODES,
    compose_latencies,
    measure_end_to_end,
    predict_end_to_end,
)

__all__ = [
    "COMPOSE_MODES",
    "Replayer",
    "ReplayResult",
    "compose_latencies",
    "predict_end_to_end",
    "measure_end_to_end",
]
