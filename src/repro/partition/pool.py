"""Region executors: inline, thread pool, and the restartable process pool.

All three expose the same tiny surface (:class:`RegionExecutor`): run a
wave of region payloads through :func:`~repro.partition.worker.
run_region_job`, one job per region, and return one outcome dict per
payload, **in payload order** -- the parent merges in region-index
order regardless of which worker finished first, which is what makes
``jobs=4`` commit the exact sequence ``jobs=1`` does.

Failure handling lives here so the driver never sees an exception from
a worker, only a typed outcome:

* a worker that raises comes back as ``{"status": "worker_crashed"}``;
* a hung worker (no result within the collection deadline) comes back
  as ``{"status": "worker_timeout"}`` and, in process mode, gets its
  whole pool terminated and rebuilt -- a wedged child never wedges the
  flow;
* hard worker death in process mode (``os._exit``) breaks the whole
  ``ProcessPoolExecutor``; the executor rebuilds the pool and retries
  the affected payloads **one at a time** in isolation, so exactly the
  region that kills its worker is reported crashed and its innocent
  wave neighbours still complete.  Every rebuild increments
  ``restarts`` (surfaced as the ``ppart_worker_restarts`` counter).

Process pools are expensive to warm (each worker pays the NPN
structure-library enumeration once, via
:func:`~repro.partition.worker.warm_partition_worker`), so
:func:`shared_process_executor` keeps one pool per worker count alive
for the whole process and hands it to every ``ppart`` invocation --
the same warm-worker reuse pattern the synthesis service uses.
"""

from __future__ import annotations

import atexit
import time
from concurrent.futures import (
    CancelledError,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context
from typing import Any, Protocol

from .worker import run_region_job, warm_partition_worker

__all__ = [
    "RegionExecutor",
    "InlineExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "shared_process_executor",
    "shutdown_shared_executors",
]


def _failure(payload: dict[str, Any], status: str, message: str) -> dict[str, Any]:
    return {"region": int(payload.get("region", -1)), "status": status, "message": message}


class RegionExecutor(Protocol):
    """Anything that can run a wave of region payloads to outcomes."""

    #: Worker-pool restarts performed while serving waves (0 where the
    #: concept does not apply).
    restarts: int

    def map_regions(
        self, payloads: list[dict[str, Any]], timeout: float | None = None
    ) -> list[dict[str, Any]]: ...  # pragma: no cover - protocol


class InlineExecutor:
    """Sequential in-process execution: ``jobs=1``, the deterministic reference.

    ``timeout`` is not enforced (there is no second thread to watch the
    clock); the worker's own :class:`~repro.resilience.Budget` deadline
    bounds each region instead.
    """

    def __init__(self) -> None:
        self.restarts = 0

    def map_regions(
        self, payloads: list[dict[str, Any]], timeout: float | None = None
    ) -> list[dict[str, Any]]:
        outcomes: list[dict[str, Any]] = []
        for payload in payloads:
            try:
                outcomes.append(run_region_job(payload))
            except Exception as error:
                outcomes.append(
                    _failure(payload, "worker_crashed", f"{type(error).__name__}: {error}")
                )
        return outcomes


class ThreadExecutor:
    """Thread-pool execution: concurrency without process isolation.

    Used by the tests (including the chaos fuzz suite, where
    ``crash-soft`` faults stand in for hard death) and useful for
    debugging; no restarts -- a raising thread worker harms nothing.
    """

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.restarts = 0
        self._pool = ThreadPoolExecutor(max_workers=jobs, thread_name_prefix="repro-part")

    def map_regions(
        self, payloads: list[dict[str, Any]], timeout: float | None = None
    ) -> list[dict[str, Any]]:
        futures = [self._pool.submit(run_region_job, payload) for payload in payloads]
        deadline = None if timeout is None else time.monotonic() + timeout
        outcomes: list[dict[str, Any]] = []
        for payload, future in zip(payloads, futures):
            remaining = None if deadline is None else max(0.05, deadline - time.monotonic())
            try:
                outcomes.append(future.result(timeout=remaining))
            except FuturesTimeoutError:
                future.cancel()
                outcomes.append(
                    _failure(payload, "worker_timeout", f"no result within {timeout}s")
                )
            except Exception as error:
                outcomes.append(
                    _failure(payload, "worker_crashed", f"{type(error).__name__}: {error}")
                )
        return outcomes

    def close(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)


class ProcessExecutor:
    """Spawned, warmed, restartable ``ProcessPoolExecutor`` over regions."""

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.restarts = 0
        self._context = get_context("spawn")
        self._pool: ProcessPoolExecutor | None = None

    # -- pool lifecycle -------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # Publish the exact-enumeration tables once in the parent so
            # every spawned worker attaches the shared blob instead of
            # re-enumerating (None -> workers warm up locally).
            from ..rewriting.shared import publish_shared_library

            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=self._context,
                initializer=warm_partition_worker,
                initargs=(publish_shared_library(),),
            )
        return self._pool

    def _kill_pool(self) -> None:
        """Tear the pool down hard (terminates hung children) and count it."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        self.restarts += 1
        try:
            for process in list(getattr(pool, "_processes", {}).values()):
                process.terminate()
        except Exception:  # pragma: no cover - best-effort cleanup
            pass
        pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut the pool down without counting a restart (normal teardown)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    # -- execution ------------------------------------------------------

    def map_regions(
        self, payloads: list[dict[str, Any]], timeout: float | None = None
    ) -> list[dict[str, Any]]:
        pool = self._ensure_pool()
        futures: list[Future[dict[str, Any]]] = [
            pool.submit(run_region_job, payload) for payload in payloads
        ]
        deadline = None if timeout is None else time.monotonic() + timeout
        outcomes: list[dict[str, Any] | None] = [None] * len(payloads)
        retry: list[int] = []
        for index, future in enumerate(futures):
            remaining = None if deadline is None else max(0.05, deadline - time.monotonic())
            try:
                outcomes[index] = future.result(timeout=remaining)
            except FuturesTimeoutError:
                future.cancel()
                outcomes[index] = _failure(
                    payloads[index], "worker_timeout", f"no result within {timeout}s"
                )
                # A hung child occupies its slot forever: nuke the pool.
                # Later futures fail fast (broken/cancelled) and are
                # retried in isolation below.
                self._kill_pool()
            except (BrokenProcessPool, CancelledError):
                retry.append(index)
            except Exception as error:  # pragma: no cover - defensive
                outcomes[index] = _failure(
                    payloads[index], "worker_crashed", f"{type(error).__name__}: {error}"
                )
        if retry and self._pool is not None:
            # At least one worker died and broke the pool.
            self._kill_pool()
        for index in retry:
            outcomes[index] = self._retry_single(payloads[index], deadline, timeout)
        return [
            outcome
            if outcome is not None
            else _failure(payloads[index], "worker_crashed", "no outcome collected")
            for index, outcome in enumerate(outcomes)
        ]

    def _retry_single(
        self, payload: dict[str, Any], deadline: float | None, timeout: float | None
    ) -> dict[str, Any]:
        """Re-run one region payload alone in a fresh pool."""
        pool = self._ensure_pool()
        remaining = None if deadline is None else max(0.05, deadline - time.monotonic())
        try:
            return pool.submit(run_region_job, payload).result(timeout=remaining)
        except FuturesTimeoutError:
            self._kill_pool()
            return _failure(payload, "worker_timeout", f"no result within {timeout}s")
        except (BrokenProcessPool, CancelledError):
            self._kill_pool()
            return _failure(payload, "worker_crashed", "worker process died")
        except Exception as error:  # pragma: no cover - defensive
            return _failure(payload, "worker_crashed", f"{type(error).__name__}: {error}")


#: Long-lived warmed process pools, one per worker count, shared by every
#: ``ppart`` invocation of this process (CLI flags, service jobs, tests).
_SHARED_EXECUTORS: dict[int, ProcessExecutor] = {}


def shared_process_executor(jobs: int) -> ProcessExecutor:
    """The process-wide warmed executor for ``jobs`` workers."""
    executor = _SHARED_EXECUTORS.get(jobs)
    if executor is None:
        executor = ProcessExecutor(jobs)
        _SHARED_EXECUTORS[jobs] = executor
    return executor


def shutdown_shared_executors() -> None:
    """Tear down every shared pool (tests, benchmarks, interpreter exit)."""
    for executor in _SHARED_EXECUTORS.values():
        executor.close()
    _SHARED_EXECUTORS.clear()


atexit.register(shutdown_shared_executors)
