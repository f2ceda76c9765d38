"""Set-up of the models under test: train, register, load, warm up.

One tiny-scale CDMPP per served device, trained with model seed 0 exactly as
``cdmpp train <device> --scale tiny`` does, saved to a registry inside the
benchmark's work directory and loaded back the way a server loads it.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench.traffic import DEVICES

SCALE = "tiny"
MODEL_SEED = 0
#: Set-up runs this many times per benchmark run; ``setup_s`` is the median.
SETUP_REPEATS = 3
DAEMON_START_TIMEOUT_S = 120.0
DAEMON_STOP_TIMEOUT_S = 60.0
LAUNCHER = Path(__file__).resolve().parent / "daemon_launcher.py"


def train_and_register(root: Path):
    """Train one model per device and save it; returns (registry, names)."""
    from repro.backends import make_backend
    from repro.core.scale import get_scale
    from repro.dataset.splits import split_dataset
    from repro.dataset.tenset import DatasetConfig, generate_dataset
    from repro.serving.registry import ModelRegistry

    scale = get_scale(SCALE)
    registry = ModelRegistry(root)
    names: Dict[str, str] = {}
    for device in DEVICES:
        dataset = generate_dataset(
            DatasetConfig(devices=(device,), seed=MODEL_SEED, **scale.dataset_kwargs())
        )
        splits = split_dataset(dataset.records(device), seed=MODEL_SEED)
        model = make_backend(
            "cdmpp",
            predictor_config=scale.predictor_config(),
            training_config=scale.training_config(seed=MODEL_SEED),
        )
        model.fit(splits.train, splits.valid)
        names[device] = f"{device}-{SCALE}"
        registry.save(names[device], model, device=device, scale=SCALE, seed=MODEL_SEED)
    return registry, names


def load_fleet(registry, names):
    """A FleetService over the registered checkpoints."""
    from repro.serving import FleetService

    return FleetService.from_registry(registry, names)


class DaemonProcess:
    """A ``cdmpp daemon`` child process on the registered checkpoints."""

    def __init__(self, registry_root: Path, workdir: Path, spans_path: Optional[Path] = None):
        self.log_path = workdir / "daemon.log"
        self.spans_path = spans_path
        command = [
            sys.executable,
            str(LAUNCHER),
            "--spans",
            str(spans_path) if spans_path is not None else "",
            "--",
            "--devices",
            ",".join(DEVICES),
            "--port",
            "0",
            "--scale",
            SCALE,
            "--registry",
            str(registry_root),
        ]
        self._log = open(self.log_path, "w")
        self.process = subprocess.Popen(
            command, stdout=self._log, stderr=subprocess.STDOUT, env=dict(os.environ)
        )
        self.host, self.port = self._wait_listening()

    def _wait_listening(self) -> Tuple[str, int]:
        deadline = time.monotonic() + DAEMON_START_TIMEOUT_S
        pattern = re.compile(r"listening on ([^:\s]+):(\d+)")
        while time.monotonic() < deadline:
            match = pattern.search(self.log_path.read_text())
            if match:
                return match.group(1), int(match.group(2))
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"daemon did not start:\n{self.log_path.read_text()}")

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set (VmHWM) so far."""
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def reset_spans(self) -> None:
        """Make a traced daemon forget its warm-up spans; waits for the ack."""
        marker = Path(str(self.spans_path) + ".reset")
        self.process.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + DAEMON_START_TIMEOUT_S
        while not marker.exists():
            if time.monotonic() > deadline or self.process.poll() is not None:
                raise RuntimeError("traced daemon did not acknowledge the span reset")
            time.sleep(0.01)

    def stop(self) -> int:
        """SIGTERM (graceful drain) and wait; kill if it does not exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=DAEMON_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()
        return self.process.returncode


def repeated_setup(build, repeats: int = SETUP_REPEATS, teardown=None):
    """Run ``build(attempt)`` ``repeats`` times; keep the last result.

    Returns ``(result, seconds)`` with each attempt's wall time calibrated
    to reference speed by probes taken just before and after it.
    ``teardown(result)`` releases every result but the last (a daemon is
    stopped before the next one starts).
    """
    from perfbench.calibrate import Calibration

    seconds: List[float] = []
    result = None
    for attempt in range(repeats):
        if result is not None and teardown is not None:
            teardown(result)
        calibration = Calibration()
        calibration.sample(3)
        start = time.perf_counter()
        result = build(attempt)
        elapsed = time.perf_counter() - start
        calibration.sample(3)
        seconds.append(elapsed * calibration.factor)
    return result, seconds
