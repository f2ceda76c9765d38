"""Start ``cdmpp daemon`` for the benchmark, optionally with layer spans.

Usage: ``python3 perfbench/daemon_launcher.py --spans <file or ''> -- <daemon args>``.

Pins the BLAS thread count like the benchmark process, installs the same
span wrappers when ``--spans`` names a file, then runs
``repro.cli.main(["daemon", ...])``.  After SIGTERM drains the daemon, the
spans are written to that file; SIGUSR1 discards the spans recorded so
far (the benchmark sends it after warm-up).
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.environment import pin_blas  # noqa: E402

pin_blas()


def main(argv) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: daemon_launcher.py --spans <file or ''> -- <daemon args>", file=sys.stderr)
        return 2
    spans_path, daemon_args = argv[1], argv[3:]
    tracer = None
    if spans_path:
        from perfbench.tracing import Tracer, install_serving_spans

        tracer = Tracer()
        install_serving_spans(tracer)

        def reset(signum, frame):
            # SIGUSR1 after warm-up: keep only the measured phase's spans.
            tracer.reset()
            Path(spans_path + ".reset").touch()

        signal.signal(signal.SIGUSR1, reset)
    from repro.cli import main as cli_main

    code = cli_main(["daemon", *daemon_args])
    if tracer is not None:
        Path(spans_path).write_text(json.dumps(tracer.summary()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
