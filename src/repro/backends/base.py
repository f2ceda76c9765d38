"""The ``CostModel`` protocol: one interface for CDMPP and every baseline.

Every latency predictor in this repository — the CDMPP transformer behind
:class:`repro.core.trainer.Trainer` and the XGBoost/TLP/Habitat/Tiramisu
baselines — implements the same surface:

* ``fit(records, valid=None)`` trains on measured records and returns
  :class:`TrainStats` (wall time, samples/second — the Fig. 6 efficiency
  comparison treats every method identically);
* ``predict_programs(programs, device)`` predicts latency in seconds per
  program, where ``device`` is one target or a per-program sequence;
* ``evaluate(records)`` reports MAPE/RMSE/threshold accuracy against the
  records' measured latency;
* ``save(path)`` persists to a backend-tagged ``.npz`` checkpoint that
  :func:`repro.backends.registry.load_backend` can restore — no pickle
  anywhere;
* ``capabilities`` exposes the method's Table 1 row, so callers can refuse
  model-level queries to op-only predictors instead of silently mis-serving.

The serving stack (:class:`repro.serving.PredictionService`,
:class:`repro.serving.FleetService`), the model registry and the CLI are all
written against this protocol; :func:`as_cost_model` adapts the legacy entry
points (``Trainer``, the ``CDMPP`` facade, ``BaselineCostModel``) onto it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Sequence, Union

import numpy as np

from repro.core.metrics import error_report
from repro.devices.spec import DeviceSpec
from repro.errors import TrainingError
from repro.profiler.records import MeasureRecord
from repro.tir.program import TensorProgram

DeviceLike = Union[str, DeviceSpec, Sequence[Union[str, DeviceSpec]]]


@dataclass
class TrainStats:
    """Backend-agnostic outcome of one training run."""

    train_seconds: float = 0.0
    throughput_samples_per_s: float = 0.0
    samples_processed: int = 0
    best_valid_mape: float = float("inf")
    extra: Dict[str, float] = field(default_factory=dict)

    def summary(self) -> Dict[str, float]:
        """Plain-dict view (for reports and checkpoint metadata)."""
        out = {
            "train_seconds": float(self.train_seconds),
            "throughput_samples_per_s": float(self.throughput_samples_per_s),
            "samples_processed": int(self.samples_processed),
        }
        if np.isfinite(self.best_valid_mape):
            out["best_valid_mape"] = float(self.best_valid_mape)
        out.update(self.extra)
        return out


def per_program_devices(
    programs: Sequence[TensorProgram], device: DeviceLike
) -> List[str]:
    """Normalise a device argument to one device name per program."""
    if isinstance(device, (str, DeviceSpec)):
        name = device if isinstance(device, str) else device.name
        return [name] * len(programs)
    devices = [d if isinstance(d, str) else d.name for d in device]
    if len(devices) != len(programs):
        raise TrainingError(
            f"got {len(devices)} devices for {len(programs)} programs; "
            "pass one device, or exactly one per program"
        )
    return devices


class CostModel:
    """Common protocol of every latency-prediction backend.

    Subclasses implement :meth:`fit`, :meth:`predict_programs`,
    :meth:`predict_records`, :meth:`save` and the ``capabilities`` /
    ``cache_signature`` properties; ``evaluate`` and bookkeeping are shared.
    Concrete backends register themselves in
    :mod:`repro.backends.registry` so checkpoints and the CLI can construct
    them by name.
    """

    #: Canonical backend-registry name (class attribute of each subclass).
    backend = "abstract"

    def __init__(self) -> None:
        self._train_stats: Optional[TrainStats] = None

    # -- training -------------------------------------------------------
    def fit(
        self,
        records: Sequence[MeasureRecord],
        valid: Optional[Sequence[MeasureRecord]] = None,
    ) -> TrainStats:
        """Train on measured records (optionally validating on ``valid``)."""
        raise NotImplementedError

    @property
    def fitted(self) -> bool:
        """Whether the model is ready to answer queries."""
        raise NotImplementedError

    @property
    def train_stats(self) -> TrainStats:
        """Statistics of the last :meth:`fit` call (raises before training)."""
        if self._train_stats is None:
            raise TrainingError(f"{self.backend}: train_stats requested before fit()")
        return self._train_stats

    # -- inference ------------------------------------------------------
    def predict_programs(
        self, programs: Sequence[TensorProgram], device: DeviceLike
    ) -> np.ndarray:
        """Predicted latency in seconds per program, in input order.

        ``device`` is a single target (applied to every program) or a
        sequence with exactly one device per program, so a cross-device
        backend can answer a mixed-device batch in one call.
        """
        raise NotImplementedError

    def predict_records(self, records: Sequence[MeasureRecord]) -> np.ndarray:
        """Predicted latency per record (each record carries its own device)."""
        records = list(records)
        if not records:
            return np.zeros(0, dtype=np.float64)
        return self.predict_programs(
            [record.program for record in records],
            [record.device for record in records],
        )

    def evaluate(self, records: Sequence[MeasureRecord]) -> Dict[str, float]:
        """MAPE/RMSE/threshold accuracy against the records' measured latency."""
        records = list(records)
        predictions = self.predict_records(records)
        targets = np.asarray([record.latency_s for record in records])
        return error_report(predictions, targets)

    # -- persistence ----------------------------------------------------
    def save(self, path, extra_meta: Optional[Dict] = None):
        """Persist to a backend-tagged ``.npz`` checkpoint; returns the path."""
        raise NotImplementedError

    # -- metadata -------------------------------------------------------
    @property
    def capabilities(self) -> Dict[str, bool]:
        """The method's Table 1 capability row."""
        from repro.baselines.registry import baseline_capabilities

        return baseline_capabilities(self.backend)

    @property
    def cache_signature(self) -> Hashable:
        """Hashable feature-space tag folded into serving cache keys.

        Two backends whose featurizations differ must report different
        signatures, so their cached predictions never alias; by default the
        backend name is enough.
        """
        return (self.backend,)

    def wraps(self, obj: Any) -> bool:
        """Whether ``obj`` is this model or the raw object it adapts.

        The serving layer uses this to keep devices that were handed the
        same underlying model in one batch group after a hot swap.
        """
        return obj is self

    def __repr__(self) -> str:
        return f"{type(self).__name__}(backend={self.backend!r}, fitted={self.fitted})"


def ensure_model_level(model: Any, error_cls=TrainingError, device: Optional[str] = None) -> None:
    """Refuse model-level queries to op-level-only backends (Table 1).

    The one gate of the serving tiers, so no caller can silently compose
    whole-model numbers out of a backend whose Table 1 row says op-level
    only (e.g. Tiramisu).
    """
    capabilities = getattr(model, "capabilities", None) or {}
    if not capabilities.get("model_level", True):
        where = f" serving device {device!r}" if device else ""
        raise error_cls(
            f"backend {getattr(model, 'backend', type(model).__name__)!r}{where} is "
            "op-level only (Table 1); it cannot answer model-level latency queries"
        )


def as_cost_model(model: Any) -> CostModel:
    """Adapt any supported model object onto the :class:`CostModel` protocol.

    Accepts a :class:`CostModel` (returned as-is), a fitted
    :class:`repro.core.trainer.Trainer`, the :class:`repro.core.api.CDMPP`
    facade, or a fitted :class:`repro.baselines.BaselineCostModel`.
    """
    if isinstance(model, CostModel):
        return model

    from repro.core.trainer import Trainer

    if isinstance(model, Trainer):
        from repro.backends.cdmpp import CDMPPBackend

        return CDMPPBackend(trainer=model)

    from repro.baselines.base import BaselineCostModel

    if isinstance(model, BaselineCostModel):
        from repro.backends.baseline import BaselineBackend

        return BaselineBackend(model.name, model=model)

    backend = getattr(model, "backend", None)  # the CDMPP facade (lazy import cycle)
    if isinstance(backend, CostModel):
        return backend

    raise TrainingError(
        f"cannot adapt {type(model).__name__} to the CostModel protocol "
        "(expected CostModel, Trainer, CDMPP or BaselineCostModel)"
    )
