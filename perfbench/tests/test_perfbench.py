"""Tests of the benchmark's own machinery (no model is trained here)."""

from __future__ import annotations

import itertools
import json
import socket
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import stats, traffic  # noqa: E402
from perfbench.loadgen import OpenLoopClient, Outcome  # noqa: E402


def _take(stream, count):
    return list(itertools.islice(stream, count))


def test_same_seed_gives_same_request_stream():
    for make in (traffic.cold_sweep, traffic.warm_loop, traffic.daemon_mix, traffic.cold_tune):
        assert _take(make(7), 300) == _take(make(7), 300)
    assert _take(traffic.warm_loop(7), 300) != _take(traffic.warm_loop(8), 300)


def test_cold_sweep_is_stratified_and_never_repeats():
    queries = _take(traffic.cold_sweep(3), 2 * traffic.CYCLE)
    first, second = queries[: traffic.CYCLE], queries[traffic.CYCLE :]
    combo = lambda q: (q.network, q.device, q.batch_size)  # noqa: E731
    assert sorted(map(combo, first)) == sorted(map(combo, second))
    assert len(set(map(combo, first))) == traffic.CYCLE
    assert len({q.key() for q in queries}) == len(queries)


def test_different_seed_changes_every_cold_sweep_cache_key():
    from repro.graph.partition import partition_into_programs
    from repro.devices.spec import get_device
    from repro.serving.cache import program_cache_key

    one = _take(traffic.cold_sweep(1), traffic.CYCLE)
    two = _take(traffic.cold_sweep(2), traffic.CYCLE)
    # DFG cache keys (network, batch, device, partition seed)
    assert not {q.key() for q in one} & {q.key() for q in two}

    def kernel_keys(queries):
        keys = set()
        for query in queries:
            spec = get_device(query.device)
            dfg = partition_into_programs(
                query.network, target_kind=spec.taxonomy, batch_size=query.batch_size, seed=query.seed
            )
            keys |= {
                program_cache_key(program, spec.name, ("accurate", ("cdmpp", 64)))
                for program in dfg.unique_programs().values()
            }
        return keys

    # the same (network, device, batch) under both seeds: every kernel key differs
    by_combo = {(q.network, q.device, q.batch_size): q for q in two}
    small = [q for q in one if q.network in ("lstm_lm", "vgg16", "bert_tiny")][:6]
    assert not kernel_keys(small) & kernel_keys([by_combo[(q.network, q.device, q.batch_size)] for q in small])


def test_hot_set_covers_every_pair_and_ignores_the_seed():
    hot = traffic.hot_set()
    assert len(hot) == traffic.HOT_SET_SIZE == 24
    assert {(q.network, q.device) for q in hot} == {
        (n, d) for n in traffic.NETWORKS for d in traffic.DEVICES
    }
    assert set(_take(traffic.warm_loop(1), 2000)) <= set(hot)
    mix = _take(traffic.daemon_mix(1), 200)
    cold = [q for q in mix if q not in hot]
    assert len(cold) == 200 // traffic.DAEMON_COLD_EVERY


def test_percentile_rule_keeps_ten_samples_beyond():
    assert stats.supported_percentile(1000) == 99
    assert stats.supported_percentile(999) == 98
    assert stats.supported_percentile(150) == 93
    assert stats.supported_percentile(20) == 50
    assert stats.supported_percentile(19) is None
    for count in range(20, 3000, 7):
        q = stats.supported_percentile(count)
        values = sorted(range(count))
        cut = stats.nearest_rank(values, q)
        assert sum(v > cut for v in values) >= stats.MIN_SAMPLES_BEYOND
        if q < 99:  # the next percentile up would leave fewer than ten beyond
            assert sum(v > stats.nearest_rank(values, q + 1) for v in values) < 10


def test_tail_labels_percentile_and_count():
    value, label = stats.tail([float(v) for v in range(1, 1001)])
    assert (value, label) == (990.0, "p99 of n=1000")
    value, label = stats.tail([3.0, 1.0, 2.0])
    assert (value, label) == (3.0, "max of n=3")


def test_open_loop_latency_counts_from_due_time():
    query = traffic.Query("bert_tiny", 1, "t4", 0)
    outcome = Outcome(query=query, due=1.0, sent=1.4, received=2.0)
    assert outcome.latency_s == 1.0  # not received - sent (0.6)


def _stalling_server(stall_s: float):
    """A one-connection echo server that stalls before its first reply."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        conn, _ = listener.accept()
        reader = conn.makefile("rb")
        first = True
        for line in reader:
            message = json.loads(line)
            if first:
                time.sleep(stall_s)
                first = False
            reply = {"ok": True, "id": message["id"]}
            conn.sendall(json.dumps(reply).encode() + b"\n")
        conn.close()
        listener.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener.getsockname()[1], thread


def test_open_loop_charges_a_stall_to_every_request_it_delays():
    port, thread = _stalling_server(stall_s=0.2)
    client = OpenLoopClient("127.0.0.1", port)
    try:
        queries = [traffic.Query("bert_tiny", 1, "t4", 0)] * 5
        outcomes = client.run_phase(queries, rate=100.0)
    finally:
        client.close()
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert all(o.ok for o in outcomes)
    for index, outcome in enumerate(outcomes):
        assert outcome.latency_s == outcome.received - outcome.due
        # request i was due i * 10 ms after the first and answered after the stall
        assert outcome.latency_s >= 0.2 - index * 0.01 - 0.005
    counts = client.counts.as_dict()
    assert (counts["sent"], counts["received"], counts["ok"]) == (5, 5, 5)


def _daemon_counters(**overrides):
    counters = {
        "requests": 101,
        "responses": 100,
        "shed_deadline": 2,
        "rejected_overloaded": 3,
        "rejected_shutting_down": 0,
        "internal_errors": 0,
    }
    counters.update(overrides)
    return counters


def _client_counters(**overrides):
    counters = {"sent": 100, "received": 100, "ok": 95, "shed": 2, "rejected": 3, "internal": 0, "control": 1}
    counters.update(overrides)
    return counters


def test_counter_reconciliation_accepts_matching_counts():
    assert stats.reconcile_daemon_counters(_daemon_counters(), _client_counters()) == []
    # two stats requests: the earlier reply is counted in responses
    assert (
        stats.reconcile_daemon_counters(
            _daemon_counters(requests=102, responses=101), _client_counters(control=2)
        )
        == []
    )


def test_counter_reconciliation_reports_each_mismatch():
    problems = stats.reconcile_daemon_counters(
        _daemon_counters(responses=99, shed_deadline=1), _client_counters()
    )
    assert any("responses=99" in p for p in problems)
    assert any("shed=1" in p for p in problems)
    problems = stats.reconcile_daemon_counters(_daemon_counters(), _client_counters(ok=94))
    assert problems == ["client sent 100 requests but got 99 answers (ok + shed + rejected + internal + other errors)"]


def test_zipf_blocks_hold_exact_counts():
    counts = traffic.zipf_block_counts(traffic.HOT_SET_SIZE)
    assert sum(counts) == traffic.ZIPF_BLOCK
    assert min(counts) >= 1
    assert counts == sorted(counts, reverse=True)
    draws = _take(traffic.zipf_draws(5, traffic.HOT_SET_SIZE), 3 * traffic.ZIPF_BLOCK)
    for start in range(0, len(draws), traffic.ZIPF_BLOCK):
        block = draws[start : start + traffic.ZIPF_BLOCK]
        assert [block.count(rank) for rank in range(traffic.HOT_SET_SIZE)] == counts
