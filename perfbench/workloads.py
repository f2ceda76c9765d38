"""The four workloads: set-up, timed loop, correctness checks, metrics.

Every workload reports the same end-to-end metrics (see ``README.md`` for
what each one means on each workload), prints the workload-specific figures
named in the benchmark's design as extra lines, and, when traced, the
per-layer metrics.  Correctness problems are collected, never raised, so a
run reports all of them before it exits non-zero.
"""

from __future__ import annotations

import itertools
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from perfbench import fixture, stats, traffic
from perfbench.calibrate import PROBE_NOMINAL_S, Calibration
from perfbench.tracing import Tracer, install_serving_spans, layer_totals

#: Queries of the cold stream whose answers are checked against ground truth:
#: one whole cycle over every (network, device, batch).
MAPE_QUERIES = traffic.CYCLE
#: Daemon answers re-computed in process for the bit-identity check.
DAEMON_IDENTITY_SAMPLES = 32
#: Ladder limit for ``max_rate_rps``: the tail latency may not exceed this.
LADDER_TAIL_LIMIT_MS = 100.0
#: Self times of the blocking path must add up to the untraced figure within this share.
RECONCILE_TOLERANCE = 0.15


@dataclass
class Result:
    """What one run of one workload produced."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _ground_truth_s(query: traffic.Query) -> float:
    """The simulator's end-to-end latency of ``query`` (replay on measured kernels)."""
    from repro.graph.zoo import build_model
    from repro.replay.e2e import measure_end_to_end

    graph = build_model(query.network, batch_size=query.batch_size)
    return measure_end_to_end(graph, query.device, seed=query.seed).iteration_time_s


def _latency_notes(
    result: Result, latencies_s: List[float], p50_name: str, tail_name: str, factor: float = 1.0
) -> float:
    """Print the median and the tail (highest supported percentile); return the median in ms.

    ``factor`` calibrates the figures to reference speed (1.0: raw).  Tails
    are printed, not bounded: on a shared 2-CPU host they moved by more
    than any usable bound between runs (see README.md).
    """
    values = [_ms(value) * factor for value in latencies_s]
    p50 = stats.median(values)
    tail, how = stats.tail(values)
    result.note(f"{p50_name} = {p50:.4f} ms (n={len(values)})")
    result.note(f"{tail_name} = {tail:.4f} ms ({how})")
    return p50


# ----------------------------------------------------------------------
# In-process closed loops (cold_sweep, warm_loop)
# ----------------------------------------------------------------------
@dataclass
class Served:
    """One answered (or failed) query; only the number is kept, so a long
    loop does not grow the heap the garbage collector walks."""

    query: traffic.Query
    latency_s: float
    predicted_s: Optional[float] = None
    error: Optional[str] = None


def _closed_loop(
    fleet, stream: Iterator[traffic.Query], seconds: float, calibration: Calibration
) -> List[Served]:
    """One caller: send the next query when the previous one is answered.

    The calibration probe runs between queries, never inside one.
    """
    served: List[Served] = []
    calibration.sample(3)
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        calibration.maybe_sample()
        served.append(_serve(fleet, next(stream)))
    calibration.sample(3)
    return served


def _serve(fleet, query: traffic.Query) -> Served:
    """Answer one query, timing the ``predict_model`` call."""
    from repro.errors import ReproError

    start = time.perf_counter()
    try:
        prediction = fleet.predict_model(
            query.network, query.device, batch_size=query.batch_size, seed=query.seed
        )
    except ReproError as error:
        return Served(query, time.perf_counter() - start, error=str(error))
    return Served(query, time.perf_counter() - start, prediction.predicted_latency_s)


def _in_process_setup(workdir: Path, warm_up: Callable) -> Tuple[object, List[float]]:
    def build(attempt: int):
        registry, names = fixture.train_and_register(workdir / f"setup{attempt}")
        fleet = fixture.load_fleet(registry, names)
        return registry, names, fleet, warm_up(fleet, attempt)

    return fixture.repeated_setup(build)


def _warm_up_devices(fleet, attempt: int) -> None:
    """First-call costs (lazy buffers, imports) paid once per device."""
    for device in traffic.DEVICES:
        fleet.predict_model("lstm_lm", device, batch_size=1, seed=f"warmup-{attempt}")


def _count_failures(result: Result, served: List[Served]) -> None:
    result.attempted += len(served)
    failures = [item for item in served if item.error is not None]
    result.failed += len(failures)
    for item in failures[:3]:
        result.problems.append(f"{item.query} failed: {item.error}")


def _closed_loop_metrics(
    result: Result, served: List[Served], unit: int, calibration: Calibration
) -> List[Served]:
    """Calibrated p50_ms and per_s over the whole units of a closed loop.

    Only the first ``unit * k`` queries count (``k`` as large as the run
    allows), so every run weighs each part of the traffic mix equally: a
    unit is one stratified cycle or one Zipf block.  Returns the answered
    queries.
    """
    whole = served[: len(served) - len(served) % unit] or served
    ok = [item for item in whole if item.error is None]
    raw = [item.latency_s for item in ok]
    busy = sum(item.latency_s for item in whole)
    factor = calibration.factor
    p50 = _latency_notes(result, raw, "query_p50_ms", "query_p99_ms", factor)
    result.metric("p50_ms", p50, "ms")
    result.metric("per_s", len(ok) / (busy * factor), "1/s")
    result.note(
        f"queries_per_s = {result.metrics['per_s'][0]:.4f} 1/s "
        f"({len(whole)} of {len(served)} queries: whole units of {unit})"
    )
    result.note(
        f"raw: query_p50_ms = {_ms(stats.median(raw)):.4f} ms, queries_per_s = "
        f"{len(ok) / busy:.4f} 1/s; calibration factor {factor:.4f}"
    )
    return [item for item in served if item.error is None]


def _traced_comparison(result, fleet, stream, seconds, twin):
    """Alternate untraced and traced queries for ``seconds``; report the layers.

    Each untraced query is followed by ``twin(query)`` traced: the same work
    (for cold queries, the same combination under a never-used seed), run
    at the same host speed, so the two halves differ by the tracing
    overhead alone.  Fleet counters cover both halves.  Returns all queries.
    """
    tracer = Tracer()
    untraced: List[Served] = []
    traced: List[Served] = []
    fleet.reset_stats()
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        query = next(stream)
        untraced.append(_serve(fleet, query))
        install_serving_spans(tracer)
        try:
            traced.append(_serve(fleet, twin(query)))
        finally:
            tracer.uninstall()
    _count_failures(result, untraced)
    _count_failures(result, traced)
    ok = [item for item in traced if item.error is None]
    _layer_metrics(result, tracer.summary(), fleet.describe_stats(), len(ok))
    _overhead_and_reconcile(
        result,
        tracer.summary(),
        [item.latency_s for item in untraced if item.error is None],
        [item.latency_s for item in ok],
    )
    return untraced + traced


def run_cold_sweep(seed: int, seconds: float, trace: bool, workdir: Path) -> Result:
    result = Result()
    (registry, names, fleet, _), setup_s = _in_process_setup(workdir, _warm_up_devices)
    stream = traffic.cold_sweep(seed)
    fleet.reset_stats()
    calibration = Calibration()
    served = _closed_loop(fleet, stream, seconds, calibration)
    stats_after = fleet.describe_stats()
    _count_failures(result, served)
    result.check(
        stats_after["partition_cache_hits"] == 0,
        f"cold_sweep hit the DFG cache {stats_after['partition_cache_hits']} times",
    )
    if trace:
        def twin(query):
            return traffic.Query(query.network, query.batch_size, query.device, f"{query.seed}-traced")

        _traced_comparison(result, fleet, stream, seconds, twin)
        return result

    ok = _closed_loop_metrics(result, served, traffic.CYCLE, calibration)
    # Accuracy, outside the timed region: one whole cycle of the stream,
    # answered in the loop or (if the loop was shorter) now.
    answered = {item.query: item.predicted_s for item in ok[:MAPE_QUERIES]}
    sample = list(itertools.islice(traffic.cold_sweep(seed), MAPE_QUERIES))
    predicted, measured = [], []
    for query in sample:
        predicted_s = answered.get(query)
        if predicted_s is None:
            predicted_s = fleet.predict_model(
                query.network, query.device, batch_size=query.batch_size, seed=query.seed
            ).predicted_latency_s
        predicted.append(predicted_s)
        measured.append(_ground_truth_s(query))
    result.metric("error_pct", stats.mape_pct(predicted, measured), "%")
    result.note(f"e2e_mape_pct = {result.metrics['error_pct'][0]:.4f} % (n={len(sample)})")
    _common(result, setup_s, _peak_rss_mb())
    return result


def run_warm_loop(seed: int, seconds: float, trace: bool, workdir: Path) -> Result:
    result = Result()
    hot = traffic.hot_set()

    def warm_up(fleet, attempt):
        _warm_up_devices(fleet, attempt)
        return {
            query: fleet.predict_model(
                query.network, query.device, batch_size=query.batch_size, seed=query.seed
            ).predicted_latency_s
            for query in hot
        }

    (registry, names, fleet, first), setup_s = _in_process_setup(workdir, warm_up)
    stream = traffic.warm_loop(seed)
    fleet.reset_stats()
    calibration = Calibration()
    served = _closed_loop(fleet, stream, seconds, calibration)
    stats_after = fleet.describe_stats()
    _count_failures(result, served)
    _check_warm(result, served, first, stats_after)
    if trace:
        traced = _traced_comparison(result, fleet, stream, seconds, lambda query: query)
        _check_warm(result, traced, first, None)
        return result

    ok = _closed_loop_metrics(result, served, traffic.ZIPF_BLOCK, calibration)
    # Accuracy of every served answer (outside the timed region).
    truth = {query: _ground_truth_s(query) for query in hot}
    served_ok = [item.query for item in ok]
    result.metric(
        "error_pct", stats.mape_pct([first[q] for q in served_ok], [truth[q] for q in served_ok]), "%"
    )
    result.note(f"served_mape_pct = {result.metrics['error_pct'][0]:.4f} % (n={len(served_ok)})")
    _common(result, setup_s, _peak_rss_mb())
    return result


def _check_warm(result: Result, served: List[Served], first: Dict, stats_after) -> None:
    mismatched = [
        item
        for item in served
        if item.error is None and item.predicted_s != first[item.query]
    ]
    result.check(
        not mismatched,
        f"{len(mismatched)} warm_loop answers differ from their triple's first cold answer",
    )
    if stats_after is not None:
        result.check(
            stats_after["partitions"] == 0,
            f"warm_loop partitioned {stats_after['partitions']} graphs (expected all DFG hits)",
        )
        misses = stats_after["kernel_service"]["prediction_cache"]["misses"]
        result.check(misses == 0, f"warm_loop missed the prediction cache {misses} times")


# ----------------------------------------------------------------------
# cold_tune
# ----------------------------------------------------------------------
def run_cold_tune(seed: int, seconds: float, trace: bool, workdir: Path) -> Result:
    from repro.serving import SearchService
    from repro.serving.search import DEFAULT_NUM_ROUNDS, DEFAULT_POPULATION
    from repro.serving.search_cache import SearchCache

    result = Result()
    expected_scored = DEFAULT_NUM_ROUNDS * DEFAULT_POPULATION

    def warm_up(fleet, attempt):
        _warm_up_devices(fleet, attempt)
        warm_search = SearchService(fleet, cache=SearchCache())
        for device in traffic.DEVICES:
            warm_search.tune_model("lstm_lm", devices=[device], seed=f"warmup-{attempt}")

    (registry, names, fleet, _), setup_s = _in_process_setup(workdir, warm_up)
    search = SearchService(fleet, cache=SearchCache())
    requests = traffic.cold_tune(seed)

    def tune_loop(duration: float):
        """Whole cycles over all eight networks: one, then more while they fit.

        Another cycle starts only if one more of the same length would end
        within a quarter beyond ``duration``.  Returns ``(request, raw
        seconds, calibrated seconds, tuning)`` per call; each call is
        calibrated by the two probes before and the two after it, since one
        call lasts up to seconds and the host's speed moves on that scale.
        """
        done = []
        calibration = Calibration()
        start = time.perf_counter()
        while True:
            for _ in traffic.NETWORKS:
                calibration.sample(2)
                request = next(requests)
                began = time.perf_counter()
                tuning = search.tune_model(request.network, devices=[request.device], seed=request.seed)
                done.append((request, time.perf_counter() - began, tuning[0]))
            elapsed = time.perf_counter() - start
            cycles = len(done) // len(traffic.NETWORKS)
            if elapsed + elapsed / cycles > 1.25 * duration:
                break
        calibration.sample(2)
        probes = calibration.samples
        return [
            (request, raw, raw * PROBE_NOMINAL_S / stats.median(probes[2 * i : 2 * i + 4]), tuning)
            for i, (request, raw, tuning) in enumerate(done)
        ]

    tunes = tune_loop(seconds)
    result.attempted += len(tunes)
    _check_tunes(result, tunes, search, expected_scored)
    if trace:
        # One more cycle, each network tuned untraced and then traced (under
        # a derived, never-used seed), so both halves share host speed and mix.
        tracer = Tracer()
        untraced, traced = [], []
        for _ in traffic.NETWORKS:
            request = next(requests)
            twin = traffic.TuneRequest(request.network, request.device, request.seed + "-traced")
            for half, item in ((untraced, request), (traced, twin)):
                if half is traced:
                    install_serving_spans(tracer)
                try:
                    began = time.perf_counter()
                    tuning = search.tune_model(item.network, devices=[item.device], seed=item.seed)
                    half.append((item, time.perf_counter() - began, tuning[0]))
                finally:
                    tracer.uninstall()
        result.attempted += len(untraced) + len(traced)
        _check_tunes(result, untraced + traced, search, expected_scored)
        summary = tracer.summary()
        _layer_metrics(result, summary, fleet.describe_stats(), len(traced))
        scored = sum(r.num_scored for *_, tuning in traced for r in tuning.results.values())
        scoring = summary["calls"].get("score_fn", [0, 0.0, 0])
        result.metric("search.scoring_ms", _ms(scoring[1]) / len(traced), "ms")
        result.metric("search.candidates_scored", scored, "count")
        _overhead_and_reconcile(
            result, summary, [t for _, t, _ in untraced], [t for _, t, _ in traced]
        )
        return result

    raw = [elapsed for _, elapsed, _, _ in tunes]
    calibrated = [elapsed for _, _, elapsed, _ in tunes]
    p50 = _latency_notes(result, calibrated, "tune_p50_ms", "tune_p99_ms")
    result.metric("p50_ms", p50, "ms")
    result.note(f"tune_s = {p50 / 1e3:.4f} s (median of n={len(tunes)})")
    scored = sum(r.num_scored for *_, tuning in tunes for r in tuning.results.values())
    result.metric("per_s", scored / sum(calibrated), "1/s")
    result.note(f"candidates_scored_per_s = {result.metrics['per_s'][0]:.4f} 1/s")
    result.note(
        f"raw: tune_s = {stats.median(raw):.4f} s, candidates_scored_per_s = "
        f"{scored / sum(raw):.4f} 1/s; calibration factor {sum(calibrated) / sum(raw):.4f}"
    )
    tuned_ms = _ms(sum(tuning.tuned_latency_s for *_, tuning in tunes))
    result.note(f"tuned_latency_ms = {tuned_ms:.6f} ms ({len(tunes)} tunes)")
    result.metric("error_pct", _tuned_kernel_mape(fleet, tunes), "%")
    result.note(f"tuned_kernel_mape_pct = {result.metrics['error_pct'][0]:.4f} %")
    _common(result, setup_s, _peak_rss_mb())
    return result


def _check_tunes(result: Result, tunes, search, expected_scored: int) -> None:
    for request, *_, tuning in tunes:
        for key, searched in tuning.results.items():
            result.check(
                searched.num_scored == expected_scored,
                f"{request}: task {key} scored {searched.num_scored}, expected {expected_scored}",
            )
            history = searched.best_latency_per_round
            result.check(
                all(later <= earlier for earlier, later in zip(history, history[1:])),
                f"{request}: task {key} best latency per round increased: {history}",
            )
    hits = search.describe_stats()["cache_hits"]
    result.check(hits == 0, f"cold_tune answered {hits} tasks from the search cache")


def _tuned_kernel_mape(fleet, tunes) -> float:
    """Served prediction vs simulator measurement of every tuned best kernel."""
    from repro.devices.spec import get_device
    from repro.graph.partition import extract_unique_tasks, partition_into_programs
    from repro.tir.lower import lower

    predicted, measured = [], []
    for request, *_, tuning in tunes:
        spec = get_device(request.device)
        dfg = partition_into_programs(request.network, target_kind=spec.taxonomy, seed=request.seed)
        tasks = extract_unique_tasks(dfg)
        programs = [lower(tasks[key], found.best_schedule) for key, found in tuning.results.items()]
        predicted.extend(fleet.predict_programs(programs, spec).tolist())
        measured.extend(found.best_latency_s for found in tuning.results.values())
    return stats.mape_pct(predicted, measured)


# ----------------------------------------------------------------------
# daemon_open
# ----------------------------------------------------------------------
LOW_RPS = 50.0
HIGH_RPS = 100.0
#: Rungs above ``high``; the ladder's first rungs are the low and high phases.
LADDER_RPS = (120.0, 140.0, 160.0)


def _daemon_phases(seconds: float) -> Dict[str, float]:
    """Seconds of each phase; the ladder rungs share what is left."""
    return {"low": 0.4 * seconds, "high": 0.4 * seconds, "rung": 0.2 * seconds / len(LADDER_RPS)}


def _cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of process ``pid`` so far."""
    import os

    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def run_daemon_open(seed: int, seconds: float, trace: bool, workdir: Path) -> Result:
    processes: List[fixture.DaemonProcess] = []
    try:
        return _run_daemon_open(seed, seconds, trace, workdir, processes)
    finally:
        for process in processes:  # whatever an error left running
            process.stop()


def _run_daemon_open(seed, seconds, trace, workdir, processes) -> Result:
    from perfbench.loadgen import OpenLoopClient

    result = Result()
    hot = traffic.hot_set()
    mix = traffic.daemon_mix(seed)
    phases = _daemon_phases(seconds)

    def start(attempt: int, spans_path: Optional[Path] = None, timed: bool = False):
        root = workdir / f"setup{attempt}"
        registry, names = fixture.train_and_register(root)
        daemon = fixture.DaemonProcess(root, workdir, spans_path=spans_path)
        processes.append(daemon)
        client = OpenLoopClient(daemon.host, daemon.port, timed=timed)
        # One request at a time, so the daemon's caches end up exactly as an
        # in-process fleet's that served the same sequence (see
        # _daemon_identity_and_mape).
        warm = [client.run_phase([query], rate=1.0)[0] for query in _daemon_warm_up(hot, attempt)]
        bad = [outcome for outcome in warm if not outcome.ok]
        result.check(not bad, f"{len(bad)} daemon warm-up requests failed")
        return registry, names, daemon, client

    def stop(started) -> None:
        _, _, daemon, client = started
        client.close()
        daemon.stop()

    def phase(client, rate: float, duration: float):
        return client.run_phase(list(itertools.islice(mix, max(1, round(rate * duration)))), rate)

    if trace:
        started = start(0)
        untraced = phase(started[3], HIGH_RPS, phases["high"])
        stop(started)
        spans_path = workdir / "daemon_spans.json"
        registry, names, daemon, client = start(1, spans_path=spans_path, timed=True)
        daemon.reset_spans()
        client.encode_s.clear()
        client.decode_s.clear()
        stats_before = client.request("stats")
        traced = phase(client, HIGH_RPS, phases["high"])
        stats_after = client.request("stats")
        stop((registry, names, daemon, client))
        for outcomes in (untraced, traced):
            result.attempted += len(outcomes)
            result.failed += sum(not outcome.ok for outcome in outcomes)
        _daemon_layers(result, spans_path, client, stats_before, stats_after, untraced, traced)
        return result

    (registry, names, daemon, client), setup_s = fixture.repeated_setup(start, teardown=stop)
    try:
        cpu_before = _cpu_seconds(daemon.process.pid)
        high = phase(client, HIGH_RPS, phases["high"])
        cpu_high = _cpu_seconds(daemon.process.pid) - cpu_before
        low = phase(client, LOW_RPS, phases["low"])
        ladder = [(LOW_RPS, low), (HIGH_RPS, high)]
        for rate in LADDER_RPS:
            if not _rung_passes(ladder[-1][1]):
                break
            ladder.append((rate, phase(client, rate, phases["rung"])))
        daemon_stats = _settled_stats(client)
        rss = daemon.peak_rss_mb()
    finally:
        stop((registry, names, daemon, client))
    result.check(daemon.process.returncode == 0, f"daemon exited {daemon.process.returncode}")

    for outcomes in (low, high):
        result.attempted += len(outcomes)
        result.failed += sum(not outcome.ok for outcome in outcomes)
    ladder_failed = sum(not o.ok for _, outcomes in ladder[2:] for o in outcomes)
    problems = stats.reconcile_daemon_counters(daemon_stats["daemon"], client.counts.as_dict())
    result.problems.extend(problems)

    # The low rate's median is bounded: the batching window sets it, so it
    # holds still between runs; the high rate's figures are printed.
    p50 = _latency_notes(result, [o.latency_s for o in low if o.ok], "rtt_p50_ms.low", "rtt_p99_ms.low")
    result.metric("p50_ms", p50, "ms")
    _latency_notes(result, [o.latency_s for o in high if o.ok], "rtt_p50_ms.high", "rtt_p99_ms.high")
    last_reply = max(o.received for o in high if o.received is not None)
    goodput = sum(o.ok for o in high) / (last_reply - high[0].due)
    result.metric("per_s", goodput, "1/s")
    result.note(f"goodput_{HIGH_RPS:g}rps = {goodput:.4f} 1/s (answers per second, {HIGH_RPS:g} rps offered)")
    result.note(f"requests_per_cpu_s = {len(high) / cpu_high:.4f} 1/s (daemon CPU, {HIGH_RPS:g} rps phase)")
    passing = list(itertools.takewhile(lambda rung: _rung_passes(rung[1]), ladder))
    if passing:
        rate, outcomes = passing[-1]
        achieved = len(outcomes) / (max(o.received for o in outcomes) - outcomes[0].due)
        result.note(f"max_rate_rps = {achieved:.4f} 1/s (rung {rate:g} rps)")
    else:
        result.note("max_rate_rps = none (no ladder rung passed)")
    result.note(
        f"ladder rungs above {HIGH_RPS:g} rps: {len(ladder) - 2}, "
        f"failed requests {ladder_failed} of {sum(len(o) for _, o in ladder[2:])}"
    )
    lag = [_ms(o.sent - o.due) for o in high + low]
    result.note(f"loadgen_lag_ms_p99 = {stats.tail(lag)[0]:.4f} ms ({stats.tail(lag)[1]})")

    warm_up = _daemon_warm_up(hot, fixture.SETUP_REPEATS - 1)
    result.metric(
        "error_pct", _daemon_identity_and_mape(result, registry, names, warm_up, low, high, seed), "%"
    )
    result.note(f"served_mape_pct = {result.metrics['error_pct'][0]:.4f} %")
    _common(result, setup_s, rss)
    return result


def _rung_passes(outcomes) -> bool:
    """No failure, tail within the limit, and no growing backlog.

    The backlog grows when requests in the last quarter of the rung found
    more requests in flight than those in the first quarter did, by more
    than 1% of the rung's requests (at least two).
    """
    if not all(outcome.ok for outcome in outcomes):
        return False
    tail, _ = stats.tail([_ms(o.latency_s) for o in outcomes])
    quarter = max(1, len(outcomes) // 4)
    first = sum(o.in_flight_at_send for o in outcomes[:quarter]) / quarter
    last = sum(o.in_flight_at_send for o in outcomes[-quarter:]) / quarter
    return tail <= LADDER_TAIL_LIMIT_MS and last - first <= max(2.0, 0.01 * len(outcomes))


def _daemon_warm_up(hot: List[traffic.Query], attempt: int) -> List[traffic.Query]:
    """Every hot triple once, then one never-seen query per device."""
    return hot + [traffic.Query("lstm_lm", 1, d, f"warmup-{attempt}") for d in traffic.DEVICES]


def _settled_stats(client, timeout_s: float = 2.0) -> dict:
    """A ``stats`` reply taken once the daemon has counted every reply it sent.

    The daemon bumps ``responses`` just after writing a reply, so a client
    that has read the reply can ask for stats before the count moves.
    """
    deadline = time.monotonic() + timeout_s
    while True:
        reply = client.request("stats")
        daemon = reply["daemon"]
        if daemon["responses"] == daemon["requests"] - 1 or time.monotonic() > deadline:
            return reply
        time.sleep(0.01)


def _daemon_identity_and_mape(result: Result, registry, names, warm_up, low, high, seed: int) -> float:
    """Check sampled wire answers bit-identical in process; MAPE of every answer.

    A model-level answer depends in its last bits on which kernels shared
    its predictor batch (BLAS rounding varies with the row count), so the
    in-process reference first serves the daemon's warm-up sequence, one
    query at a time as the daemon did; hot answers then come from identical
    cache entries and never-seen queries are predicted on their own on both
    sides.
    """
    import random

    fleet = fixture.load_fleet(registry, names)
    for query in warm_up:
        fleet.predict_model(query.network, query.device, batch_size=query.batch_size, seed=query.seed)
    answered = [o for o in high if o.ok]
    sample = random.Random(f"perfbench:identity:{seed}").sample(
        answered, min(DAEMON_IDENTITY_SAMPLES, len(answered))
    )
    for outcome in sample:
        query = outcome.query
        local = fleet.predict_model(
            query.network, query.device, batch_size=query.batch_size, seed=query.seed
        )
        wire = outcome.reply
        result.check(
            wire["latency_s"] == local.predicted_latency_s
            and wire["per_kernel_latency_s"] == local.per_kernel_latency_s,
            f"daemon answer for {query} is not bit-identical to FleetService.predict_model",
        )
    served = [o for o in low + high if o.ok]
    truth = {query: _ground_truth_s(query) for query in {o.query for o in served}}
    return stats.mape_pct([o.reply["latency_s"] for o in served], [truth[o.query] for o in served])


# ----------------------------------------------------------------------
# Per-layer metrics (traced runs)
# ----------------------------------------------------------------------
PER_LAYER = (
    ("graph.partition_ms", "ms"),
    ("graph.partitions", "count"),
    ("fleet.dfg_hit_ratio", "ratio"),
    ("fleet.self_ms", "ms"),
    ("cache.key_ms", "ms"),
    ("cache.prediction_hit_ratio", "ratio"),
    ("cache.feature_hit_ratio", "ratio"),
    ("features.featurize_ms_per_program", "ms"),
    ("features.programs", "count"),
    ("infer.ms_per_row", "ms"),
    ("infer.rows_per_call", "count"),
    ("replay.compose_ms", "ms"),
    ("service.flush_ms", "ms"),
    ("service.batches", "count"),
    ("service.coalesced_ratio", "ratio"),
    ("search.self_ms", "ms"),
    ("search.scoring_ms", "ms"),
    ("search.candidates_scored", "count"),
    ("daemon.queue_wait_ms", "ms"),
    ("daemon.batch_size_mean", "count"),
    ("daemon.shed", "count"),
    ("daemon.rejected", "count"),
    ("daemon.internal_errors", "count"),
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("loadgen.lag_ms_p99", "ms"),
    ("trace.overhead_pct", "%"),
)


def _ratio(hits: int, total: int) -> float:
    return hits / total if total else 0.0


def _layer_metrics(result: Result, summary, fleet_stats, operations: int) -> None:
    """Layer metrics shared by every traced workload, per operation (query/tune/request)."""
    calls = summary["calls"]
    totals = layer_totals(summary["roots"])

    def per_op_ms(layer: str) -> float:
        return _ms(totals.get(layer, 0.0)) / max(operations, 1)

    def call(name_suffix: str) -> List[float]:
        merged = [0, 0.0, 0]
        for name, record in calls.items():
            if name.endswith(name_suffix):
                merged = [a + b for a, b in zip(merged, record)]
        return merged

    featurize, infer = call(".featurize_rows"), call(".predict_rows")
    kernel = fleet_stats["kernel_service"]
    result.metric("graph.partition_ms", per_op_ms("graph"), "ms")
    result.metric("graph.partitions", call(".partition_into_programs")[0], "count")
    result.metric(
        "fleet.dfg_hit_ratio",
        _ratio(fleet_stats["partition_cache_hits"], fleet_stats["partition_cache_hits"] + fleet_stats["partitions"]),
        "ratio",
    )
    result.metric("fleet.self_ms", per_op_ms("fleet"), "ms")
    result.metric("cache.key_ms", per_op_ms("cache.key"), "ms")
    prediction_cache, feature_cache = kernel["prediction_cache"], kernel["feature_cache"]
    result.metric(
        "cache.prediction_hit_ratio",
        _ratio(prediction_cache["hits"], prediction_cache["hits"] + prediction_cache["misses"]),
        "ratio",
    )
    result.metric(
        "cache.feature_hit_ratio",
        _ratio(feature_cache["hits"], feature_cache["hits"] + feature_cache["misses"]),
        "ratio",
    )
    result.metric(
        "features.featurize_ms_per_program", _ms(totals.get("features", 0.0)) / max(featurize[2], 1), "ms"
    )
    result.metric("features.programs", featurize[2], "count")
    result.metric("infer.ms_per_row", _ms(totals.get("infer", 0.0)) / max(infer[2], 1), "ms")
    result.metric("infer.rows_per_call", infer[2] / max(infer[0], 1), "count")
    result.metric("replay.compose_ms", per_op_ms("replay.compose"), "ms")
    result.metric("service.flush_ms", per_op_ms("service.flush"), "ms")
    result.metric("service.batches", kernel["batches"], "count")
    result.metric("service.coalesced_ratio", _ratio(kernel["coalesced"], kernel["queries"]), "ratio")
    result.metric("search.self_ms", per_op_ms("search"), "ms")
    for name, unit in PER_LAYER:
        if name not in result.metrics:
            result.metric(name, 0.0, unit)


def _overhead_and_reconcile(result: Result, summary, untraced_s, traced_s) -> None:
    """trace.overhead_pct, and the self times of the blocking path against the untraced run.

    Untraced operations alternate with traced twins doing the same work,
    so raw times compare.  Each root's layers add up to its traced duration;
    the check is that the median over roots of those sums is within 15% of
    the untraced median.  Means are printed as well: one host stall in a
    hundred queries moved a mean by 15%.
    """
    roots = summary["roots"]
    per_root = [sum(root["layers"].values()) for root in roots]
    layers_mean = sum(per_root) / len(per_root)
    untraced_mean = sum(untraced_s) / len(untraced_s)
    overhead = 100.0 * (stats.median(traced_s) / stats.median(untraced_s) - 1.0)
    result.metric("trace.overhead_pct", overhead, "%")
    share = abs(layers_mean - untraced_mean) / untraced_mean
    median_share = abs(stats.median(per_root) - stats.median(untraced_s)) / stats.median(untraced_s)
    totals = layer_totals(roots)
    breakdown = ", ".join(
        f"{layer}={_ms(seconds) / len(roots):.4f}" for layer, seconds in sorted(totals.items())
    )
    result.note(f"self ms per operation by layer: {breakdown}")
    result.note(
        f"reconcile: layers sum to {_ms(layers_mean):.4f} ms mean per operation vs untraced "
        f"{_ms(untraced_mean):.4f} ms ({100 * share:.1f}%); median {_ms(stats.median(per_root)):.4f} "
        f"vs {_ms(stats.median(untraced_s)):.4f} ms ({100 * median_share:.1f}%)"
    )
    result.check(
        median_share <= RECONCILE_TOLERANCE,
        f"layer self times do not reconcile with the untraced run within "
        f"{100 * RECONCILE_TOLERANCE:.0f}% (median {100 * median_share:.1f}% off)",
    )


def _daemon_layers(
    result: Result, spans_path: Path, client, stats_before, stats_after, untraced, traced
) -> None:
    """Per-layer metrics of the daemon: its spans, the stats op and the client.

    Counters are the difference of ``stats`` taken just before and just
    after the traced phase, so warm-up does not count.
    """
    import json

    summary = json.loads(spans_path.read_text())
    merged = _diff(_fleet_counters(stats_after), _fleet_counters(stats_before))
    answered = [o for o in traced if o.ok]
    _layer_metrics(result, summary, merged, len(answered))
    daemon = _diff(stats_after["daemon"], stats_before["daemon"])
    result.metric("daemon.queue_wait_ms", _queue_wait_ms(summary["roots"], answered), "ms")
    result.metric("daemon.batch_size_mean", daemon["queries"] / max(daemon["batches"], 1), "count")
    result.metric("daemon.shed", daemon["shed_deadline"], "count")
    result.metric(
        "daemon.rejected", daemon["rejected_overloaded"] + daemon["rejected_shutting_down"], "count"
    )
    result.metric("daemon.internal_errors", daemon["internal_errors"], "count")
    result.metric("protocol.encode_us", 1e6 * stats.median(client.encode_s), "us")
    result.metric("protocol.decode_us", 1e6 * stats.median(client.decode_s), "us")
    lag = [_ms(o.sent - o.due) for o in traced]
    result.metric("loadgen.lag_ms_p99", stats.tail(lag)[0], "ms")
    before = stats.median([o.latency_s for o in untraced if o.ok])
    after = stats.median([o.latency_s for o in answered])
    result.metric("trace.overhead_pct", 100.0 * (after / before - 1.0), "%")
    result.note(
        f"rtt p50 {HIGH_RPS:g} rps: untraced {_ms(before):.4f} ms, traced {_ms(after):.4f} ms; "
        "RTT = daemon.queue_wait_ms + the request's predict_model_batch span by construction"
    )


def _fleet_counters(daemon_stats) -> Dict:
    """Fleet and kernel-service counters of a ``stats`` reply, summed over shards."""
    shards = list(daemon_stats["shards"].values())
    kernels = [shard["kernel_service"] for shard in shards]
    return {
        "partition_cache_hits": sum(shard["partition_cache_hits"] for shard in shards),
        "partitions": sum(shard["partitions"] for shard in shards),
        "kernel_service": {
            "batches": sum(k["batches"] for k in kernels),
            "coalesced": sum(k["coalesced"] for k in kernels),
            "queries": sum(k["queries"] for k in kernels),
            "prediction_cache": {
                field: sum(k["prediction_cache"][field] for k in kernels)
                for field in ("hits", "misses")
            },
            "feature_cache": {
                field: sum(k["feature_cache"][field] for k in kernels)
                for field in ("hits", "misses")
            },
        },
    }


def _diff(after, before):
    """``after - before`` for nested dicts of counters (other values from ``after``)."""
    if isinstance(after, dict):
        return {key: _diff(value, before.get(key)) for key, value in after.items()}
    if isinstance(after, (int, float)) and isinstance(before, (int, float)):
        return after - before
    return after


def _queue_wait_ms(roots, answered) -> float:
    """Median of (RTT from send) minus the span of the batch that answered it.

    A request is matched to the first ``predict_model_batch`` span that
    started after it was sent and whose query list holds its query.  Both
    processes read the same monotonic clock.
    """
    batches = sorted(
        (root for root in roots if root["info"] is not None), key=lambda root: root["start"]
    )
    waits = []
    for outcome in answered:
        query = outcome.query
        wanted = [query.network, query.device, query.batch_size]
        for root in batches:
            if root["start"] < outcome.sent or root["end"] > outcome.received:
                continue
            if root["info"]["seed"] == repr(query.seed) and wanted in root["info"]["queries"]:
                rtt = outcome.received - outcome.sent
                waits.append(rtt - (root["end"] - root["start"]))
                break
    return _ms(stats.median(waits)) if waits else 0.0


def _common(result: Result, setup_s: List[float], peak_rss_mb: float) -> None:
    result.metric("setup_s", stats.median(setup_s), "s")
    result.note("setup_s runs (calibrated): " + ", ".join(f"{value:.4f}" for value in setup_s))
    result.metric("peak_rss_mb", peak_rss_mb, "MB")


WORKLOADS = {
    "cold_sweep": run_cold_sweep,
    "warm_loop": run_warm_loop,
    "daemon_open": run_daemon_open,
    "cold_tune": run_cold_tune,
}
