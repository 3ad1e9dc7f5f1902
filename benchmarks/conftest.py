"""Shared fixtures and configuration for the figure-regeneration benchmarks.

Every benchmark file regenerates one table or figure of the paper's
evaluation section.  :data:`FIGURES` maps each figure to the
:mod:`repro.bench.experiments` driver and the parameters it runs with;
``run_bench.py`` runs the same table, and the benchmark tests wrap it so that

* ``pytest benchmarks/ --benchmark-only`` reruns every experiment,
* the measured rows are printed as text tables (the repository's analogue of
  the paper's plots), and
* the qualitative *shape* reported by the paper (which method wins, how a
  curve moves with a parameter) is asserted, not the absolute numbers.

The corpora are intentionally small (a few percent of the paper's dataset
counts — see ``BENCH_CONFIG``) so the full suite completes in minutes on a
laptop.  Scale up ``REPRO_BENCH_SCALE`` to approach the paper's scale.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Callable, NamedTuple

import pytest

from repro.bench import experiments
from repro.bench.harness import ExperimentConfig, Workbench

_BENCH_DIR = Path(__file__).resolve().parent


@pytest.fixture(scope="session", autouse=True)
def _corpus_cache_env():
    """Point the on-disk corpus cache at ``benchmarks/.cache`` for sweeps.

    Scoped to this directory's tests (conftest fixtures do not reach
    ``tests/``) and restored afterwards, so the unit lane keeps generating
    corpora from scratch; export ``REPRO_CORPUS_CACHE=""`` to disable for
    sweeps too.
    """
    previous = os.environ.get("REPRO_CORPUS_CACHE")
    if previous is None:
        os.environ["REPRO_CORPUS_CACHE"] = str(_BENCH_DIR / ".cache")
    yield
    if previous is None:
        os.environ.pop("REPRO_CORPUS_CACHE", None)


def pytest_collection_modifyitems(config, items):
    """Mark every benchmark in this directory ``sweep`` (and ``slow``).

    The markers are registered in ``pyproject.toml``; ``pytest -m "not
    sweep"`` therefore gives a sub-minute smoke lane over ``tests/`` while
    the full run still regenerates every figure.
    """
    for item in items:
        try:
            in_bench_dir = _BENCH_DIR in Path(str(item.path)).resolve().parents
        except (OSError, ValueError):
            in_bench_dir = False
        if in_bench_dir:
            item.add_marker(pytest.mark.sweep)
            item.add_marker(pytest.mark.slow)

#: Scale of the synthetic corpora relative to the paper's dataset counts.
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.02"))
#: Larger corpus used by the OJSP sweeps (Figs. 9-12), where index pruning
#: only pays off once the corpus is big enough to dominate per-query overhead.
OJSP_SCALE = float(os.environ.get("REPRO_BENCH_OJSP_SCALE", "0.1"))
#: Shrinks the synthetic federations and churn streams of Figs. 23-24, which
#: build no corpora, so the two scales above do not reach them.
CHURN_SCALE = float(os.environ.get("REPRO_BENCH_CHURN_SCALE", "1.0"))
#: Sources used by the single-machine search benchmarks.
BENCH_SOURCES = ("Transit", "Baidu")

BENCH_CONFIG = ExperimentConfig(sources=BENCH_SOURCES, scale=BENCH_SCALE, theta=12, seed=7)
OJSP_CONFIG = ExperimentConfig(sources=BENCH_SOURCES, scale=OJSP_SCALE, theta=12, seed=7)

#: theta=14 QuadTree construction (Figs. 8, 10) and the SG baseline over
#: worldwide sources (Fig. 16) dominate the suite's runtime, so theta stops at 13.
THETA_VALUES = (10, 11, 12, 13)
K_VALUES = (2, 4, 6, 8, 10)


def _churn(value: int, floor: int) -> int:
    return value if CHURN_SCALE >= 1.0 else max(floor, int(value * CHURN_SCALE))


class Figure(NamedTuple):
    """One figure: its driver and the keyword arguments it runs with."""

    driver: Callable[..., list[dict]]
    kwargs: dict[str, Any]


def _search(problem: str, axis: str, values: tuple, **kwargs: Any) -> Figure:
    return Figure(
        experiments.search_time_sweep, {"problem": problem, "axis": axis, "values": values, **kwargs}
    )


#: Every figure sweep, run by both the ``test_fig*`` benchmarks and
#: ``run_bench.py``.  The sweeps are shorter than the paper's Table II ranges
#: to keep the suite's wall-clock reasonable.
FIGURES = {
    "fig8": Figure(
        experiments.fig8_index_construction, {"thetas": THETA_VALUES, "config": BENCH_CONFIG}
    ),
    "fig9": _search("ojsp", "k", K_VALUES, query_count=5, config=OJSP_CONFIG),
    "fig10": _search("ojsp", "theta", THETA_VALUES, k=5, query_count=5, config=OJSP_CONFIG),
    "fig11": _search("ojsp", "q", (2, 4, 6, 8), k=5, config=OJSP_CONFIG),
    "fig12": _search("ojsp", "f", (10, 20, 30, 50), k=5, query_count=5, config=OJSP_CONFIG),
    "fig13": Figure(
        experiments.communication_sweep,
        {"problem": "ojsp", "q_values": (2, 4, 6, 8), "k": 5, "config": BENCH_CONFIG},
    ),
    "fig15": _search("cjsp", "k", K_VALUES, delta=10.0, query_count=3, config=BENCH_CONFIG),
    "fig16": _search(
        "cjsp", "theta", THETA_VALUES, k=5, delta=10.0, query_count=3, config=BENCH_CONFIG
    ),
    # A CJSP query costs several OJSP queries, so the CJSP q sweeps stop at 6.
    "fig17": _search("cjsp", "q", (2, 4, 6), k=5, delta=10.0, config=BENCH_CONFIG),
    "fig18": _search(
        "cjsp", "delta", (0.0, 5.0, 10.0, 20.0), k=5, query_count=3, config=BENCH_CONFIG
    ),
    "fig19": Figure(
        experiments.communication_sweep,
        {"problem": "cjsp", "q_values": (2, 4, 6), "k": 5, "delta": 10.0, "config": BENCH_CONFIG},
    ),
    "fig21": Figure(
        experiments.fig21_22_index_updates, {"batch_sizes": (20, 40, 60), "config": BENCH_CONFIG}
    ),
    "fig23": Figure(
        experiments.fig23_global_index_churn,
        {
            "source_counts": tuple(_churn(count, 50) for count in (250, 1000, 2000)),
            "churn_ops": _churn(200, 20),
            "query_count": _churn(50, 10),
        },
    ),
    "fig24": Figure(
        experiments.fig24_local_index_churn,
        {
            "dataset_counts": tuple(_churn(count, 200) for count in (1000, 5000)),
            "churn_ops": _churn(1000, 100),
            "query_count": _churn(12, 5),
        },
    ),
}


def run_figure(name: str) -> list[dict]:
    """Run the sweep of figure ``name`` with the parameters :data:`FIGURES` gives it."""
    figure = FIGURES[name]
    return figure.driver(**figure.kwargs)


@pytest.fixture(scope="session")
def workbench() -> Workbench:
    """A session-wide workbench so corpora are generated once."""
    return Workbench(BENCH_CONFIG)


def timings_by_method(rows: list[dict], key: str = "method", value: str = "time_ms") -> dict[str, float]:
    """Aggregate total time per method across an experiment's rows."""
    totals: dict[str, float] = {}
    for row in rows:
        totals[row[key]] = totals.get(row[key], 0.0) + float(row[value])
    return totals
