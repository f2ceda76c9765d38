"""Seeded request streams of the four workloads.

The workload seed shapes only the traffic: which (network, batch, device)
is asked, in which order, and with which partition or search seed.  The
models under test are always trained with model seed 0.  Every stream is a
pure function of its seed, so two runs with one seed send identical
requests.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, List, Tuple

#: All eight zoo networks (``repro.graph.zoo.list_models()``).
NETWORKS = (
    "bert_base",
    "bert_tiny",
    "gpt2_small",
    "inception_v3",
    "lstm_lm",
    "mobilenet_v2",
    "resnet50",
    "vgg16",
)
#: One served device per taxonomy: a GPU, a CPU and a multi-engine
#: accelerator, so composition runs its second (serial-bound) pass too.
DEVICES = ("t4", "epyc-7452", "hl100")
BATCHES = (1, 2, 4, 8, 16)
#: Partition seed of every hot-set query.
HOT_SEED = 0
HOT_SET_SIZE = len(NETWORKS) * len(DEVICES)
ZIPF_EXPONENT = 1.0
#: Every this-many-th daemon request is a never-seen (cold) query.
DAEMON_COLD_EVERY = 20


@dataclass(frozen=True)
class Query:
    """One model-level query: network, batch size, device, partition seed."""

    network: str
    batch_size: int
    device: str
    seed: object

    def key(self) -> Tuple[str, int, str, str]:
        """The identity the fleet's DFG cache and the checks use."""
        return (self.network, self.batch_size, self.device, repr(self.seed))


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"perfbench:{stream}:{seed}")


def cold_sweep(seed: int, namespace: str = "cold") -> Iterator[Query]:
    """Never-repeating queries, stratified over every (network, device, batch).

    Each cycle visits all 120 (network, device, batch) combinations in a
    seeded order, each with a partition seed unique to this (seed, position),
    so no DFG, cache key or feature row is ever reused.  The stratification
    keeps the mix of work equal from run to run; the seed changes the order
    and every scheduled kernel.
    """
    rng = _rng(seed, namespace)
    combos = [
        (network, device, batch) for network in NETWORKS for device in DEVICES for batch in BATCHES
    ]
    for index in itertools.count():
        if index % len(combos) == 0:
            order = combos[:]
            rng.shuffle(order)
        network, device, batch = order[index % len(combos)]
        yield Query(network, batch, device, f"{namespace}-{seed}-{index}")


CYCLE = len(NETWORKS) * len(DEVICES) * len(BATCHES)


#: The rank-1 hot triple: mid-cost, so the loop's median falls inside its
#: mode.  With a shuffled rank 1 the median sat where two triples' costs
#: meet and jumped by 40% between runs of one seed.
HOT_RANK_ONE = ("vgg16", "hl100")


def hot_set() -> List[Query]:
    """The 24 hot triples, in Zipf rank order (rank 1 first).

    Every (network, device) pair appears once, with a batch size and a rank
    fixed once for all seeds (the workload seed only shapes the draws), so
    the mix of cheap and expensive hot queries is the same in every run.
    """
    rng = _rng(0, "hot")
    triples = [
        Query(network, rng.choice(BATCHES), device, HOT_SEED)
        for network in NETWORKS
        for device in DEVICES
    ]
    rng.shuffle(triples)
    first = next(i for i, q in enumerate(triples) if (q.network, q.device) == HOT_RANK_ONE)
    triples[0], triples[first] = triples[first], triples[0]
    return triples


#: Zipf draws come in shuffled blocks with exact per-rank counts.
ZIPF_BLOCK = 100


def zipf_block_counts(size: int, block: int = ZIPF_BLOCK) -> List[int]:
    """Per-rank counts of one block: Zipf weights apportioned to ``block`` draws.

    Largest-remainder rounding, with every rank drawn at least once.
    """
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(size)]
    total = sum(weights)
    spare = block - size
    shares = [spare * weight / total for weight in weights]
    counts = [1 + int(share) for share in shares]
    by_remainder = sorted(range(size), key=lambda rank: int(shares[rank]) - shares[rank])
    for rank in by_remainder[: block - sum(counts)]:
        counts[rank] += 1
    return counts


def zipf_draws(seed: int, size: int, namespace: str = "warm") -> Iterator[int]:
    """Endless Zipf(``ZIPF_EXPONENT``) ranks ``0 .. size-1``, block by block.

    Each block of :data:`ZIPF_BLOCK` draws holds every rank exactly its
    apportioned number of times, in seeded order, so whole blocks have the
    same mix in every run and the seed only changes the sequence.  (Free
    draws let the mix wander by a few percent, enough to move the median of
    a loop whose triples cost from 1 to 11 ms.)
    """
    rng = _rng(seed, namespace)
    block = [rank for rank, count in enumerate(zipf_block_counts(size)) for _ in range(count)]
    while True:
        rng.shuffle(block)
        yield from block


def warm_loop(seed: int) -> Iterator[Query]:
    """Zipf draws over :func:`hot_set`; every query repeats a hot triple."""
    hot = hot_set()
    for rank in zipf_draws(seed, len(hot)):
        yield hot[rank]


def daemon_mix(seed: int) -> Iterator[Query]:
    """The hot set, with every 20th request a never-seen cold query."""
    hot = hot_set()
    cold = cold_sweep(seed, namespace="daemon-cold")
    for index, rank in enumerate(zipf_draws(seed, len(hot), namespace="daemon")):
        if index % DAEMON_COLD_EVERY == DAEMON_COLD_EVERY - 1:
            yield next(cold)
        else:
            yield hot[rank]


@dataclass(frozen=True)
class TuneRequest:
    """One ``tune_model`` call: network, device and search seed."""

    network: str
    device: str
    seed: str


#: The device each network is tuned for: fixed, and balanced over the three
#: devices, so every run tunes the same (network, device) pairs.  Which
#: device a network meets changes search cost and model error by a factor of
#: several, and a seeded pairing made ``cold_tune`` unsteady between seeds.
TUNE_DEVICE = {network: DEVICES[index % len(DEVICES)] for index, network in enumerate(NETWORKS)}


def cold_tune(seed: int) -> Iterator[TuneRequest]:
    """Cycles over all eight networks in seeded order, each on its device.

    The search seed is unique to this (seed, position), so a fresh search
    cache never answers a task, and the seed changes every candidate.
    """
    rng = _rng(seed, "tune")
    for cycle in itertools.count():
        order = list(NETWORKS)
        rng.shuffle(order)
        for position, network in enumerate(order):
            index = cycle * len(NETWORKS) + position
            yield TuneRequest(network, TUNE_DEVICE[network], f"tune-{seed}-{index}")
