"""Workloads of the federated-query benchmark and the inputs they run on.

Everything here is input generation: which federation a workload builds,
which queries and writes it issues, and why.  The program under test sees
only the generated ``SpatialDataset`` objects; nothing in this module is
timed.  The import surface is deliberately the package's stable public one
(``MultiSourceFramework``, ``SpatialDataset``, ``repro.data.sources`` /
``repro.data.queries``) so a refactor of the internals cannot break it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator

import numpy as np

from repro import MultiSourceFramework, SpatialDataset
from repro.data.queries import perturbed_queries
from repro.data.sources import SOURCE_PROFILES, build_source_datasets

BENCH_DIR = Path(__file__).resolve().parent
CACHE_DIR = BENCH_DIR / ".cache"

THETA = 12
LEAF_CAPACITY = 30
#: The corpus stands in for the paper's portal archives, which do not change
#: between runs: it is generated once from this seed and cached.  ``--seed``
#: draws what a client sends: the jitter on every query point and the order
#: of the queries.
CORPUS_SEED = 7
#: ``--seconds`` at which a workload runs its own ``passes`` warm passes; the
#: sizes below are chosen so that one run then measures for about this long
#: (8-22 s by workload on the 2-core reference VM).
REFERENCE_SECONDS = 16
#: Resolution of the lattice whose z-order sorts a portal's datasets before
#: ``ojsp-fanout`` cuts them into small sources (spatially coherent chunks).
RECUT_THETA = 8


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a federation, an operation mix and its size."""

    name: str
    why: str
    kind: str  # "ojsp" or "cjsp"
    scale: float
    queries: int  # distinct queries per pass (Q)
    k: int
    delta: float = 0.0
    chunk: int = 0  # datasets per re-cut source; 0 keeps one source per portal
    writes: int = 0  # writes per segment, alternating with the queries
    #: Warm passes at ``--seconds`` = :data:`REFERENCE_SECONDS`.
    passes: int = 2

    def warm_passes(self, seconds: float) -> int:
        """Warm passes for a ``--seconds`` budget, proportionally (never < 2).

        The count follows from the argument alone, not from a clock, so two
        runs of one command always execute the same operations.
        """
        return max(2, round(self.passes * seconds / REFERENCE_SECONDS))

    def smoke(self) -> "Workload":
        """The same workload at the smallest size that still runs every path."""
        return replace(
            self,
            scale=0.001,  # build_source_datasets' floor wins: 20 datasets per portal
            queries=5,
            writes=5 if self.writes else 0,
            chunk=8 if self.chunk else 0,
            passes=2,
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ojsp-portals",
            why=(
                "The paper's setting: top-10 overlap search over the five portal sources; "
                "DITS-L OverlapSearch dominates, so an index or bounds gain shows here."
            ),
            kind="ojsp",
            scale=0.05,
            queries=200,
            k=10,
            passes=3,
        ),
        Workload(
            name="cjsp-portals",
            why=(
                "Coverage search (k=5, delta=10): distance-engine kernels dominate and release "
                "the GIL, so thread dispatch pays and the slowest source sets latency."
            ),
            kind="cjsp",
            scale=0.04,
            queries=12,
            k=5,
            delta=10.0,
            passes=5,
        ),
        Workload(
            name="ojsp-fanout",
            why=(
                "Same corpus re-cut into 307 three-dataset sources: ~200 sources contacted per "
                "query, so request translation, byte accounting and dispatch dominate."
            ),
            kind="ojsp",
            scale=0.05,
            queries=20,
            k=10,
            chunk=3,
            passes=4,
        ),
        Workload(
            name="churn-mixed",
            why=(
                "ojsp-portals queries strictly alternating with update/remove/re-add writes: "
                "what a read-side cache or precomputation costs when data changes."
            ),
            kind="ojsp",
            scale=0.05,
            queries=100,
            k=10,
            writes=100,
            passes=4,
        ),
    )
}


# ---------------------------------------------------------------------- #
# Corpus and federation
# ---------------------------------------------------------------------- #
def load_corpus(workload: Workload) -> dict[str, list[SpatialDataset]]:
    """The five Table-I portals at the workload's scale (cached on disk)."""
    return {
        name: build_source_datasets(
            name,
            scale=workload.scale,
            seed=CORPUS_SEED,
            cache_dir=str(CACHE_DIR),
        )
        for name in sorted(SOURCE_PROFILES)
    }


def cut_sources(
    workload: Workload, corpus: dict[str, list[SpatialDataset]]
) -> dict[str, list[SpatialDataset]]:
    """Source id -> datasets: one source per portal, or the fan-out re-cut.

    The re-cut sorts each portal by the z-order cell of every dataset's
    bounding-box centre on a coarse lattice, then by id, and slices the order
    into chunks, so each small source covers a compact region and DITS-G has
    something to prune.
    """
    if not workload.chunk:
        return corpus
    lattice = MultiSourceFramework(theta=RECUT_THETA)

    def zorder_key(dataset: SpatialDataset) -> tuple[int, str]:
        centre = dataset.bounding_box.center
        cell = min(lattice.query_from_points([(centre.x, centre.y)]).cells)
        return cell, dataset.dataset_id

    sources: dict[str, list[SpatialDataset]] = {}
    for portal, datasets in corpus.items():
        ordered = sorted(datasets, key=zorder_key)
        for start in range(0, len(ordered), workload.chunk):
            source_id = f"{portal}-{start // workload.chunk:04d}"
            sources[source_id] = ordered[start : start + workload.chunk]
    return sources


def build_federation(sources: dict[str, list[SpatialDataset]]) -> MultiSourceFramework:
    """Grid, index and register every source (this is what ``setup_s`` times).

    The program keeps its default execution and shard policies.
    """
    framework = MultiSourceFramework(theta=THETA, leaf_capacity=LEAF_CAPACITY)
    for source_id, datasets in sources.items():
        framework.add_source(source_id, datasets)
    return framework


# ---------------------------------------------------------------------- #
# Queries
# ---------------------------------------------------------------------- #
def query_panel(
    corpus: dict[str, list[SpatialDataset]], count: int, seed: int
) -> list[SpatialDataset]:
    """``count`` query datasets: a fixed panel, jittered and ordered by ``seed``.

    A query's cost follows its portal (which sources it reaches) and its
    size, and both are heavy-tailed: a random draw of a hundred queries moves
    bytes per query by 10 % and the latency percentiles by as much between
    seeds, which would drown any change this benchmark is meant to show.  So
    the panel is a stratified sample that does not depend on the seed — each
    portal gets a share proportional to its dataset count, its datasets are
    ordered by point count, and the middle one of every ``len/share``
    consecutive ones is taken.  The seed moves every point of every query
    (Gaussian jitter of 0.2 % of the dataset's extent, so cells, bytes and
    answers differ) and shuffles the order.
    """
    total = sum(len(datasets) for datasets in corpus.values())
    shares = _largest_remainder(
        {portal: count * len(datasets) / total for portal, datasets in corpus.items()}
    )
    picked: list[SpatialDataset] = []
    for portal in sorted(corpus):
        by_size = sorted(corpus[portal], key=lambda d: (len(d), d.dataset_id))
        share = min(shares[portal], len(by_size))
        picked.extend(
            by_size[int((position + 0.5) * len(by_size) / share)] for position in range(share)
        )
    return perturbed_queries(picked, len(picked), seed=seed + 4)


def _largest_remainder(quotas: dict[str, float]) -> dict[str, int]:
    """Round ``quotas`` to integers that keep their sum (Hamilton's method)."""
    floors = {key: int(quota) for key, quota in quotas.items()}
    missing = round(sum(quotas.values())) - sum(floors.values())
    by_remainder = sorted(quotas, key=lambda key: (floors[key] - quotas[key], key))
    for key in by_remainder[:missing]:
        floors[key] += 1
    return floors


# ---------------------------------------------------------------------- #
# Churn writes
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Write:
    """One pre-generated write: ``update`` / ``add`` carry the dataset."""

    action: str  # "update", "remove" or "add"
    source_id: str
    dataset_id: str
    dataset: SpatialDataset | None = None


def churn_writes(sources: dict[str, list[SpatialDataset]]) -> Iterator[Write]:
    """An endless stream: 60 % update, 20 % remove, 20 % re-add oldest removed.

    An update keeps the id and moves every point of the original dataset by
    N(0, 0.2 % of its own extent).  A remove never takes a source below half
    its original size, and a re-add with nothing removed yet falls back to an
    update, so no generated write can fail.

    The stream is the corpus's own history and, like the corpus, does not
    depend on ``--seed``: with seed-drawn payloads the peak memory of
    ``churn-mixed`` moved by 8 % between seeds (allocator fragmentation
    follows the exact sizes written) against 0.2 % with these.  It keeps no
    payload alive: the harness takes one segment at a time and replays the
    stream to verify.
    """
    rng = np.random.default_rng(CORPUS_SEED + 11)
    original = {d.dataset_id: d for datasets in sources.values() for d in datasets}
    live = {sid: {d.dataset_id for d in datasets} for sid, datasets in sources.items()}
    floor = {sid: (len(datasets) + 1) // 2 for sid, datasets in sources.items()}
    source_ids = sorted(live)
    weights = np.array([len(live[sid]) for sid in source_ids], dtype=float)
    weights /= weights.sum()
    removed: list[tuple[str, str]] = []
    while True:
        draw = float(rng.random())
        source_id = source_ids[int(rng.choice(len(source_ids), p=weights))]
        if draw >= 0.8 and removed:
            source_id, dataset_id = removed.pop(0)
            live[source_id].add(dataset_id)
            yield Write("add", source_id, dataset_id, original[dataset_id])
            continue
        ids = sorted(live[source_id])
        dataset_id = ids[int(rng.integers(len(ids)))]
        if 0.6 <= draw < 0.8 and len(ids) > floor[source_id]:
            live[source_id].remove(dataset_id)
            removed.append((source_id, dataset_id))
            yield Write("remove", source_id, dataset_id)
            continue
        yield Write("update", source_id, dataset_id, _jittered(original[dataset_id], rng))


def _jittered(dataset: SpatialDataset, rng: np.random.Generator) -> SpatialDataset:
    box = dataset.bounding_box
    sigma = max(box.width, box.height, 1e-9) * 0.002
    coords = np.array([[p.x, p.y] for p in dataset.points])
    coords += rng.normal(0.0, sigma, size=coords.shape)
    return SpatialDataset.from_coordinates(dataset.dataset_id, coords)
