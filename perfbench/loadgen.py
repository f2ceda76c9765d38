"""Open-loop load over one pipelined TCP connection to the daemon.

The calling thread sends ``query`` requests on a fixed schedule (request
``i`` of a phase is due at ``start + i / rate``) whether or not earlier
ones were answered; one reader thread collects the replies.  Latency is
counted from when a request was due, not from when it was sent, so a stall
of the sender or the daemon is charged to every request it delays.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from perfbench.traffic import Query

REPLY_TIMEOUT_S = 30.0


@dataclass
class Outcome:
    """One request of a phase, as the client saw it."""

    query: Query
    due: float
    sent: float = 0.0
    received: Optional[float] = None
    reply: Optional[dict] = None
    in_flight_at_send: int = 0

    @property
    def ok(self) -> bool:
        return self.reply is not None and bool(self.reply.get("ok"))

    @property
    def error_code(self) -> Optional[str]:
        if self.reply is None:
            return "timeout"
        if self.reply.get("ok"):
            return None
        return self.reply.get("error", {}).get("code", "unknown")

    @property
    def latency_s(self) -> float:
        """Reply time minus due time (the open-loop latency)."""
        return self.received - self.due


@dataclass
class ClientCounts:
    """What the client saw on its connection, for reconciliation."""

    sent: int = 0
    received: int = 0
    ok: int = 0
    shed: int = 0
    rejected: int = 0
    internal: int = 0
    other_errors: int = 0
    #: Non-query requests (stats) sent on the connection.
    control: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(vars(self))


class OpenLoopClient:
    """One connection; the caller's thread sends, a reader thread receives.

    With ``timed=True`` every encode and decode is timed (the protocol
    layer of a traced run).
    """

    def __init__(self, host: str, port: int, timed: bool = False):
        from repro.serving.protocol import encode_message

        self._encode = encode_message
        self._sock = socket.create_connection((host, port))
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._timed = timed
        self.encode_s: List[float] = []
        self.decode_s: List[float] = []
        self._cond = threading.Condition()
        self.counts = ClientCounts()  # guarded-by: _cond
        self._waiting: Dict[object, Outcome] = {}  # guarded-by: _cond
        self._replies: Dict[object, dict] = {}  # guarded-by: _cond
        self._next_id = 0
        self._reader = threading.Thread(target=self._read_loop, name="perfbench-reader")
        self._reader.start()

    # -- reader thread ---------------------------------------------------
    def _read_loop(self) -> None:
        buffer = b""
        while True:
            try:
                chunk = self._sock.recv(1 << 16)
            except OSError:
                chunk = b""
            if not chunk:
                with self._cond:
                    self._cond.notify_all()
                return
            now = time.perf_counter()
            buffer += chunk
            *lines, buffer = buffer.split(b"\n")
            for line in lines:
                if not line.strip():
                    continue
                if self._timed:
                    start = time.perf_counter()
                    message = json.loads(line)
                    self.decode_s.append(time.perf_counter() - start)
                else:
                    message = json.loads(line)
                self._deliver(message, now)

    def _deliver(self, message: dict, now: float) -> None:
        with self._cond:
            request_id = message.get("id")
            outcome = self._waiting.pop(request_id, None)
            if outcome is not None:
                self.counts.received += 1
                outcome.received = now
                outcome.reply = message
                code = outcome.error_code
                if code is None:
                    self.counts.ok += 1
                elif code == "deadline_exceeded":
                    self.counts.shed += 1
                elif code in ("overloaded", "shutting_down"):
                    self.counts.rejected += 1
                elif code == "internal":
                    self.counts.internal += 1
                else:
                    self.counts.other_errors += 1
            else:
                self._replies[request_id] = message
            self._cond.notify_all()

    # -- sending ---------------------------------------------------------
    def _send(self, message: dict) -> None:
        if self._timed:
            start = time.perf_counter()
            data = self._encode(message)
            self.encode_s.append(time.perf_counter() - start)
        else:
            data = self._encode(message)
        self._sock.sendall(data)

    def run_phase(self, queries: Sequence[Query], rate: float) -> List[Outcome]:
        """Send ``queries`` at ``rate`` per second; wait for every reply."""
        outcomes: List[Outcome] = []
        start = time.perf_counter() + 0.005
        for index, query in enumerate(queries):
            due = start + index / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            outcome = Outcome(query=query, due=due)
            request_id = self._next_id
            self._next_id += 1
            message = {
                "op": "query",
                "id": request_id,
                "network": query.network,
                "device": query.device,
                "batch_size": query.batch_size,
                "seed": query.seed,
            }
            with self._cond:
                self._waiting[request_id] = outcome
                outcome.in_flight_at_send = len(self._waiting)
                self.counts.sent += 1
            outcome.sent = time.perf_counter()
            self._send(message)
            outcomes.append(outcome)
        self._wait(lambda: all(o.reply is not None for o in outcomes))
        return outcomes

    def _wait(self, done, timeout_s: float = REPLY_TIMEOUT_S) -> bool:
        """Wait until ``done()``, which is called holding ``_cond``."""
        deadline = time.monotonic() + timeout_s
        with self._cond:
            while not done():
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._reader.is_alive():
                    return False
                self._cond.wait(remaining)
        return True

    def request(self, op: str, timeout_s: float = REPLY_TIMEOUT_S) -> dict:
        """One non-query request (``stats``/``health``), answered synchronously."""
        request_id = f"{op}-{self._next_id}"
        self._next_id += 1
        with self._cond:
            self.counts.control += 1
        self._send({"op": op, "id": request_id})
        if not self._wait(lambda: request_id in self._replies, timeout_s):  # repro-lint: disable=lock-guard -- _wait calls the predicate holding _cond
            raise RuntimeError(f"no reply to {op}")
        with self._cond:
            return self._replies.pop(request_id)

    def close(self) -> None:
        """Close the connection and join the reader thread."""
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self._reader.join(timeout=10.0)
