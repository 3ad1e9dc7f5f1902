"""Concurrent per-source query dispatch for the data center.

The Fig. 3 framework is inherently parallel: every candidate source answers a
request against its own local index, independently of the others, before the
data center aggregates.  The seed reproduction simulated that with a strictly
sequential per-source loop; this module provides the fan-out machinery.

:class:`ExecutionPolicy` selects between the serial loop (``max_workers <= 1``)
and a :class:`~concurrent.futures.ThreadPoolExecutor` fan-out, and
:class:`SourceDispatcher` owns the (lazily created, reused) pool.  Results are
always returned in *input order*, so aggregation at the center is
deterministic and bit-identical to the serial loop regardless of the order in
which sources finish (``tests/distributed/test_parallel_dispatch.py`` asserts
the parity).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

from repro.core.errors import InvalidParameterError

__all__ = ["ExecutionPolicy", "SourceDispatcher"]

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")

#: Default fan-out width: enough to cover the paper's five-portal federation
#: without oversubscribing small machines.
DEFAULT_MAX_WORKERS = min(8, os.cpu_count() or 1)


@dataclass(frozen=True, slots=True)
class ExecutionPolicy:
    """How the data center executes per-source requests.

    ``max_workers <= 1`` selects the serial fallback (the seed behaviour);
    anything larger fans requests out over a shared thread pool.  Both modes
    produce identical results and identical channel byte totals.
    """

    max_workers: int = DEFAULT_MAX_WORKERS

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise InvalidParameterError(
                f"max_workers must be at least 1, got {self.max_workers}"
            )

    @classmethod
    def serial(cls) -> "ExecutionPolicy":  # public-api: documented in MultiSourceFramework
        """The sequential per-source loop (no thread pool)."""
        return cls(max_workers=1)

    @property
    def parallel(self) -> bool:
        """Whether this policy dispatches concurrently."""
        return self.max_workers > 1


class SourceDispatcher:
    """Runs one callable per work item, serially or over a reusable pool.

    The pool is created on first parallel use and reused across queries, so
    per-query dispatch overhead is one task submission per source rather than
    a pool construction.
    """

    def __init__(self, policy: ExecutionPolicy | None = None) -> None:
        self.policy = policy if policy is not None else ExecutionPolicy()
        self._pool: ThreadPoolExecutor | None = None  # guarded-by: _pool_lock
        self._pool_lock = threading.Lock()

    def map(
        self,
        function: Callable[[ItemT], ResultT],
        items: Iterable[ItemT],
    ) -> list[ResultT]:
        """Apply ``function`` to every item; results come back in input order."""
        work: Sequence[ItemT] = items if isinstance(items, (list, tuple)) else list(items)
        if not self.policy.parallel or len(work) <= 1:
            return [function(item) for item in work]
        return list(self._ensure_pool().map(function, work))

    def _ensure_pool(self) -> ThreadPoolExecutor:
        # Two threads can race the first parallel map (e.g. concurrent
        # searches against one shared center): without the lock both would
        # build a pool and one would leak its worker threads unshut.
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.policy.max_workers,
                    thread_name_prefix="repro-dispatch",
                )
            return self._pool

    def close(self) -> None:
        """Shut the pool down (idempotent; a closed dispatcher can be reused)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        # Shut down outside the lock: wait=True blocks until in-flight tasks
        # drain, and a task calling back into the dispatcher must not deadlock.
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "SourceDispatcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
