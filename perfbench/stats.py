"""Small statistics helpers shared by every workload.

Kept free of NumPy and of the ``repro`` package so the benchmark's own tests
can check them without building a model.
"""

from __future__ import annotations

import math
from statistics import median
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: A tail percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def nearest_rank(sorted_values: Sequence[float], percentile: float) -> float:
    """The nearest-rank ``percentile`` of already sorted values."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(percentile / 100.0 * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def supported_percentile(count: int, target: float = 99.0) -> Optional[int]:
    """Highest whole percentile <= ``target`` with >= 10 samples beyond it.

    With nearest rank, percentile ``q`` of ``count`` samples sits at rank
    ``ceil(q * count / 100)``, leaving ``count - rank`` samples above it.
    Returns None when even the median has fewer than 10 samples beyond it.
    """
    best = None
    for q in range(int(target), 49, -1):
        rank = max(1, math.ceil(q * count / 100.0))
        if count - rank >= MIN_SAMPLES_BEYOND:
            best = q
            break
    return best


def tail(values: Sequence[float], target: float = 99.0) -> Tuple[float, str]:
    """The tail latency of ``values`` and a label saying how it was taken.

    The highest percentile up to ``target`` that has at least ten samples
    beyond it; with too few samples for any such percentile, the maximum.
    """
    ordered = sorted(values)
    q = supported_percentile(len(ordered), target)
    if q is None:
        return ordered[-1], f"max of n={len(ordered)}"
    return nearest_rank(ordered, q), f"p{q} of n={len(ordered)}"


def mape_pct(predicted: Sequence[float], measured: Sequence[float]) -> float:
    """Mean absolute percentage error of ``predicted`` against ``measured``."""
    if len(predicted) != len(measured) or not predicted:
        raise ValueError("mape needs two equally long, non-empty sequences")
    return 100.0 * sum(abs(p - m) / m for p, m in zip(predicted, measured)) / len(predicted)


def reconcile_daemon_counters(
    daemon: Mapping[str, int], client: Mapping[str, int]
) -> List[str]:
    """Mismatches between the daemon's ``stats`` counters and the client's view.

    ``daemon`` is the ``daemon`` section of a ``stats`` response; ``client``
    counts the query requests the client ``sent`` and the replies it
    ``received``, split into ``ok``, ``shed`` (deadline_exceeded),
    ``rejected`` (overloaded or shutting_down) and ``internal``, plus the
    ``control`` requests (stats) it sent, the one being answered included.
    That last request is counted in the daemon's ``requests`` but its reply
    is not yet in ``responses``.  Returns an empty list when every counter
    reconciles, including requests = responses + shed + rejected + internal
    errors from the client's side.
    """
    problems = []
    control = client["control"]
    checks: Dict[str, Tuple[int, int]] = {
        "requests": (daemon["requests"] - control, client["sent"]),
        "responses": (daemon["responses"] - (control - 1), client["received"]),
        "shed": (daemon["shed_deadline"], client["shed"]),
        "rejected": (
            daemon["rejected_overloaded"] + daemon["rejected_shutting_down"],
            client["rejected"],
        ),
        "internal_errors": (daemon["internal_errors"], client["internal"]),
    }
    for name, (seen_by_daemon, seen_by_client) in checks.items():
        if seen_by_daemon != seen_by_client:
            problems.append(f"daemon {name}={seen_by_daemon} but client saw {seen_by_client}")
    answered = client["ok"] + client["shed"] + client["rejected"] + client["internal"]
    answered += client.get("other_errors", 0)
    if client["sent"] != answered:
        problems.append(
            f"client sent {client['sent']} requests but got {answered} answers "
            "(ok + shed + rejected + internal + other errors)"
        )
    return problems
