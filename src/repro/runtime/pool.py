"""Worker pool with serial, thread and process backends.

Design rules that keep parallel output identical to serial output:

* **Result ordering** — :meth:`WorkerPool.map` always returns results in
  input order, whatever order tasks finish in.
* **Deterministic seeding** — tasks that want per-task randomness derive it
  from :func:`derive_seed` (a stable SHA-256 of the base seed and task
  labels), never from global RNG state, so a task's behaviour does not
  depend on which worker ran it or what ran before it.
* **Self-contained tasks** — the experiment drivers pass top-level
  functions and picklable arguments; each task constructs its own
  environment from a deterministic factory rather than sharing live
  simulator state across workers.

The backend defaults to the ``REPRO_RUNTIME_BACKEND`` environment variable
(``serial`` when unset), so any experiment can be parallelized without
touching call sites.

Resilient execution: passing a :class:`RetryPolicy` to :meth:`WorkerPool.map`
turns task failures into retries with capped exponential backoff, per-task
timeouts, crashed-worker recovery (a killed process worker rebuilds the
executor and requeues the task), and a consecutive-failure circuit breaker.
On exhaustion a task's slot holds a structured :class:`TaskFailure` instead
of the whole run dying.  Without a policy, the first exception propagates.

Observability across workers: when tasks leave the driver (a concurrent
backend, and more than one task or a retry policy), each task runs under
:class:`_CapturedCall`, which records into task-local recorders and ships
one ``dump()`` per recorder home with the result.  The parent folds them in
with ``merge_dump`` in task-index order.  A serial run records each task's
events contiguously and in task order, so the merged trace, telemetry log,
metrics snapshot and coverage are identical to the serial run's, whatever
backend ran the map.
"""

from __future__ import annotations

import enum
import logging
import os
import random
import time
from concurrent.futures import CancelledError
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

from repro import obs
from repro.obs.coverage import CoverageRecorder
from repro.obs.live import task_bus
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import Profiler
from repro.obs.trace import FlowTracer

logger = logging.getLogger(__name__)

ENV_BACKEND = "REPRO_RUNTIME_BACKEND"
ENV_WORKERS = "REPRO_RUNTIME_WORKERS"

T = TypeVar("T")
R = TypeVar("R")


class Backend(enum.Enum):
    """How a :class:`WorkerPool` executes its tasks."""

    SERIAL = "serial"
    THREAD = "thread"
    PROCESS = "process"


def resolve_backend(backend: Backend | str | None = None) -> Backend:
    """Normalize a backend argument, falling back to the environment.

    ``None`` reads ``REPRO_RUNTIME_BACKEND``; an unset or unknown variable
    selects the serial backend (the always-correct default).
    """
    if isinstance(backend, Backend):
        return backend
    if backend is None:
        backend = os.environ.get(ENV_BACKEND, "")
    try:
        return Backend(str(backend).strip().lower())
    except ValueError:
        return Backend.SERIAL


def derive_seed(base: int, *parts: object) -> int:
    """A stable 63-bit seed from a base seed and task labels.

    Unlike ``hash()``, the derivation is identical across processes and
    interpreter runs (no hash randomization), so a task seeded with
    ``derive_seed(base, "figure4", hour, trial)`` behaves the same on every
    backend and every worker.
    """
    import hashlib  # loaded by the runs that seed, not by every import

    digest = hashlib.sha256(repr((base, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF


@dataclass(frozen=True)
class TaskFailure:
    """Structured record of a task that exhausted its retries.

    Occupies the failed task's slot in the results list so callers can
    recover per-task (rerun inline, fill defaults, report) instead of the
    whole run dying on the first bad task.
    """

    index: int
    attempts: int
    error_type: str
    message: str
    backend: str
    circuit_open: bool = False

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        state = "circuit-open" if self.circuit_open else f"{self.attempts} attempts"
        return f"TaskFailure(task {self.index}, {state}: {self.error_type}: {self.message})"


@dataclass(frozen=True)
class RetryPolicy:
    """How :meth:`WorkerPool.map` should survive failing tasks.

    Attributes:
        max_attempts: total tries per task before a :class:`TaskFailure`.
        timeout: per-attempt wall-clock timeout in seconds (concurrent
            backends only; None disables).
        backoff_base / backoff_factor / backoff_max: capped exponential
            backoff — attempt *n* (0-based) waits
            ``min(backoff_base * backoff_factor**n, backoff_max)`` seconds.
        circuit_threshold: consecutive task *exhaustions* after which the
            circuit opens and remaining tasks fail fast with
            ``circuit_open=True`` (guards against systemic breakage burning
            the full retry budget task after task).
    """

    max_attempts: int = 3
    timeout: float | None = None
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    circuit_threshold: int = 5

    def delay_for(self, attempt: int) -> float:
        """Backoff delay before retrying after failed attempt *attempt* (0-based)."""
        return min(self.backoff_base * (self.backoff_factor**attempt), self.backoff_max)


class _SeededCall:
    """Picklable wrapper seeding the global RNG deterministically per task."""

    def __init__(self, fn: Callable[[T], R], seed: int, index: int) -> None:
        self.fn = fn
        self.seed = seed
        self.index = index

    def __call__(self, item: T) -> R:
        random.seed(derive_seed(self.seed, self.index))
        return self.fn(item)


#: The recorders a task can ship home, in merge order: slot name in
#: :mod:`repro.obs` -> task-local factory given the :class:`_CapturedCall`.
_RECORDERS = {
    "TRACER": lambda call: FlowTracer(call.capacity),
    "METRICS": lambda call: MetricsRegistry(),
    "PROFILER": lambda call: Profiler(),
    "COVERAGE": lambda call: CoverageRecorder(),
    "BUS": lambda call: task_bus(call.stream),
}

#: Recorders that route per thread, so thread workers ship them too; the
#: others are shared by thread workers and record straight into the parent.
_ROUTED = ("TRACER", "BUS")


class _CapturedCall:
    """Picklable wrapper shipping a task's observability home with its result.

    In the worker it opens a fresh task-local recorder for each name in
    *shipped*, runs the task, and returns ``(result, dumps)``, one dump per
    recorder in *shipped* order.  A process worker installs each recorder
    in its :mod:`repro.obs` slot; a thread worker routes the shared tracer and
    bus to them for this thread only.  A failing attempt raises before
    anything is dumped, so its task-local state is discarded and the retry
    that succeeds owns the task's observability.
    """

    def __init__(
        self, call: Callable[[T], R], shipped: tuple[str, ...], threaded: bool,
        capacity: int, stream=None,
    ) -> None:
        self.call = call
        self.shipped = shipped
        self.threaded = threaded
        self.capacity = capacity
        self.stream = stream

    def __call__(self, item: T) -> tuple[R, list]:
        recorders = {name: _RECORDERS[name](self) for name in self.shipped}
        if not self.threaded:
            with obs.installed(**recorders):
                result = self.call(item)
            return result, [recorder.dump() for recorder in recorders.values()]
        for name, recorder in recorders.items():
            getattr(obs, name).route(recorder)
        try:
            result = self.call(item)
        finally:
            for name in recorders:
                getattr(obs, name).route(None)
        return result, [recorder.dump() for recorder in recorders.values()]


class WorkerPool:
    """Run independent tasks on a serial, thread or process backend.

    Args:
        backend: a :class:`Backend`, its string value, or ``None`` to read
            ``REPRO_RUNTIME_BACKEND`` (default serial).
        max_workers: worker count for the concurrent backends; ``None``
            reads ``REPRO_RUNTIME_WORKERS``, falling back to the CPU count.
            Non-positive counts are rejected.
    """

    def __init__(
        self, backend: Backend | str | None = None, max_workers: int | None = None
    ) -> None:
        self.backend = resolve_backend(backend)
        if max_workers is None:
            max_workers = _workers_from_env()
        elif max_workers <= 0:
            raise ValueError(f"max_workers must be a positive integer, got {max_workers}")
        self.max_workers = max_workers if max_workers else (os.cpu_count() or 1)

    def map(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        *,
        seed: int | None = None,
        retry: RetryPolicy | None = None,
    ) -> list[R | TaskFailure]:
        """Apply *fn* to every item, returning results in input order.

        With *seed* set, each task runs with the global ``random`` module
        seeded to ``derive_seed(seed, task_index)`` — identical on every
        backend.  (Serial callers relying on ambient RNG state should leave
        *seed* unset and use the serial backend.)

        With *retry* set, failing tasks are retried per the policy and a
        task that exhausts its attempts yields a :class:`TaskFailure` in its
        slot instead of propagating; without it, the first exception
        propagates.

        When tasks leave the driver, every enabled recorder a worker
        cannot share with the parent (see :class:`_CapturedCall`) is
        recorded per task and merged back in task-index order, so the
        parent ends up with what the serial backend would have recorded.
        """
        tasks: Sequence[T] = list(items)
        if not tasks:
            return []
        calls: Sequence[Callable[[T], R]]
        if seed is not None:
            calls = [_SeededCall(fn, seed, i) for i in range(len(tasks))]
        else:
            calls = [fn] * len(tasks)
        tracer, bus = obs.TRACER, obs.BUS
        shipped = self._shipped(len(tasks), retry)
        if shipped:
            capacity = tracer.capacity if tracer is not None else 0
            stream = bus.stream if bus is not None else None
            threaded = self.backend is Backend.THREAD
            calls = [
                _CapturedCall(call, shipped, threaded, capacity, stream)
                for call in calls
            ]
        events = obs.EVENTS
        if events is not None:
            for index in range(len(tasks)):
                events.emit("pool.dispatch", task=index)
        results = self._execute(calls, tasks, retry)
        if shipped:
            results = _merge_captured(results, shipped)
        if events is not None:
            for index, result in enumerate(results):
                events.emit("pool.task_done", task=index, ok=not isinstance(result, TaskFailure))
        return results

    def _shipped(self, count: int, retry: RetryPolicy | None) -> tuple[str, ...]:
        """The enabled recorders each task ships home, in merge order.

        Nothing ships unless tasks leave the driver: a serial map, or a
        single task without a retry policy (which runs inline), records
        straight into the parent.  Thread workers ship only the recorders
        that route per thread.
        """
        if self.backend is Backend.SERIAL or (count == 1 and retry is None):
            return ()
        threaded = self.backend is Backend.THREAD
        return tuple(
            name
            for name in _RECORDERS
            if getattr(obs, name) is not None and (name in _ROUTED or not threaded)
        )

    def _execute(
        self,
        calls: Sequence[Callable[[T], R]],
        tasks: Sequence[T],
        retry: RetryPolicy | None,
    ) -> list[R | TaskFailure]:
        if retry is not None:
            return self._map_resilient(calls, tasks, retry)
        ops = obs.OPS
        if self.backend is Backend.SERIAL or len(tasks) == 1:
            if ops is None:
                return [call(task) for call, task in zip(calls, tasks)]
            results = []
            for call, task in zip(calls, tasks):
                started = time.perf_counter()
                results.append(call(task))
                ops.record("pool.task", time.perf_counter() - started)
            return results
        workers = min(self.max_workers, len(tasks))
        with self._executor_class()(max_workers=workers) as executor:
            if ops is None:
                futures = [
                    executor.submit(call, task) for call, task in zip(calls, tasks)
                ]
                return [future.result() for future in futures]
            # Dispatch→done latency per task: the done-callback stamps the
            # completion time (on whichever thread delivers it), and the
            # driver records after collection so the recorder is only ever
            # touched from this thread.
            done_at: list[float] = [0.0] * len(tasks)
            submitted: list[float] = []
            futures = []
            for index, (call, task) in enumerate(zip(calls, tasks)):
                submitted.append(time.perf_counter())
                future = executor.submit(call, task)
                future.add_done_callback(
                    lambda _f, i=index: done_at.__setitem__(i, time.perf_counter())
                )
                futures.append(future)
            results = [future.result() for future in futures]
            for index, dispatch in enumerate(submitted):
                ops.record("pool.task", max(0.0, done_at[index] - dispatch))
            return results

    def run_all(
        self, thunks: Sequence[Callable[[], R]], *, retry: RetryPolicy | None = None
    ) -> list[R | TaskFailure]:
        """Run a heterogeneous list of zero-argument tasks, in order.

        Process backends require the thunks to be picklable (top-level
        functions or ``functools.partial`` over picklable arguments).
        """
        return self.map(_call_thunk, thunks, retry=retry)

    # ------------------------------------------------------------------
    # resilient execution
    # ------------------------------------------------------------------
    def _map_resilient(
        self,
        calls: Sequence[Callable[[T], R]],
        tasks: Sequence[T],
        retry: RetryPolicy,
    ) -> list[R | TaskFailure]:
        # Unlike the fast path, a single task still goes through the
        # executor on concurrent backends: resilience means a crashing or
        # hanging task must not take the driver process down with it.
        if self.backend is Backend.SERIAL:
            return self._resilient_serial(calls, tasks, retry)
        return self._resilient_concurrent(calls, tasks, retry)

    def _resilient_serial(
        self,
        calls: Sequence[Callable[[T], R]],
        tasks: Sequence[T],
        retry: RetryPolicy,
    ) -> list[R | TaskFailure]:
        results: list[R | TaskFailure] = []
        consecutive_failures = 0
        for index, (call, task) in enumerate(zip(calls, tasks)):
            if consecutive_failures >= retry.circuit_threshold:
                results.append(_circuit_failure(index, self.backend))
                continue
            outcome = self._attempt_serial(call, task, index, retry)
            results.append(outcome)
            if isinstance(outcome, TaskFailure):
                consecutive_failures += 1
            else:
                consecutive_failures = 0
        return results

    def _attempt_serial(
        self, call: Callable[[T], R], task: T, index: int, retry: RetryPolicy
    ) -> R | TaskFailure:
        for attempt in range(retry.max_attempts):
            if attempt:
                time.sleep(retry.delay_for(attempt - 1))
            try:
                return call(task)
            except Exception as exc:  # noqa: BLE001 - converted to TaskFailure
                error_type, message = type(exc).__name__, str(exc)
                _failed_attempt(index, attempt + 1, retry, error_type, message, self.backend)
        return _exhausted(index, retry.max_attempts, error_type, message, self.backend)

    def _resilient_concurrent(
        self,
        calls: Sequence[Callable[[T], R]],
        tasks: Sequence[T],
        retry: RetryPolicy,
    ) -> list[R | TaskFailure]:
        from concurrent.futures.process import BrokenProcessPool

        workers = min(self.max_workers, len(tasks))
        executor_cls = self._executor_class()
        results: list[R | TaskFailure | None] = [None] * len(tasks)
        # (task index, attempts already made)
        pending: list[tuple[int, int]] = [(i, 0) for i in range(len(tasks))]
        consecutive_failures = 0
        executor = executor_cls(max_workers=workers)
        try:
            while pending:
                if consecutive_failures >= retry.circuit_threshold:
                    for index, _ in pending:
                        results[index] = _circuit_failure(index, self.backend)
                    logger.error(
                        "circuit breaker open after %d consecutive task failures; "
                        "failing %d remaining tasks fast",
                        consecutive_failures,
                        len(pending),
                    )
                    break
                wave = pending
                pending = []
                futures = [
                    executor.submit(calls[index], tasks[index]) for index, _ in wave
                ]
                max_delay = 0.0
                broken = False
                for future, (index, attempts) in zip(futures, wave):
                    try:
                        results[index] = future.result(timeout=retry.timeout)
                        consecutive_failures = 0
                        continue
                    except FutureTimeoutError:
                        error_type, message = "TimeoutError", (
                            f"task exceeded {retry.timeout}s timeout"
                        )
                        broken = True  # the worker is still busy; start fresh
                    except (BrokenProcessPool, CancelledError) as exc:
                        error_type, message = type(exc).__name__, (
                            str(exc) or "worker process died"
                        )
                        broken = True
                    except Exception as exc:  # noqa: BLE001 - retried below
                        error_type, message = type(exc).__name__, str(exc)
                    attempts += 1
                    _failed_attempt(index, attempts, retry, error_type, message, self.backend)
                    if attempts >= retry.max_attempts:
                        results[index] = _exhausted(
                            index, attempts, error_type, message, self.backend
                        )
                        consecutive_failures += 1
                    else:
                        pending.append((index, attempts))
                        max_delay = max(max_delay, retry.delay_for(attempts - 1))
                    if broken:
                        executor = self._rebuild_executor(executor, executor_cls, workers)
                        broken = False
                if pending and max_delay:
                    time.sleep(max_delay)
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
        return list(results)  # type: ignore[arg-type]

    def _executor_class(self):
        """The concurrent backend's executor type, imported here so that a
        serial pool never loads ``multiprocessing``."""
        if self.backend is Backend.THREAD:
            from concurrent.futures import ThreadPoolExecutor

            return ThreadPoolExecutor
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor

    def _rebuild_executor(self, executor, executor_cls, workers):
        """Replace an executor whose worker crashed, hung, or was killed."""
        logger.warning("rebuilding %s after worker failure", executor_cls.__name__)
        executor.shutdown(wait=False, cancel_futures=True)
        processes = getattr(executor, "_processes", None)
        if processes:
            for proc in list(processes.values()):
                try:
                    proc.terminate()
                except Exception:  # pragma: no cover - best-effort cleanup
                    pass
        return executor_cls(max_workers=workers)


def _workers_from_env() -> int | None:
    """Parse ``REPRO_RUNTIME_WORKERS``: warn on garbage, reject non-positive."""
    env_workers = os.environ.get(ENV_WORKERS, "")
    if not env_workers:
        return None
    try:
        parsed = int(env_workers)
    except ValueError:
        logger.warning(
            "ignoring %s=%r: not an integer; falling back to the CPU count",
            ENV_WORKERS,
            env_workers,
        )
        return None
    if parsed <= 0:
        raise ValueError(
            f"{ENV_WORKERS} must be a positive integer, got {env_workers!r}"
        )
    return parsed


def _merge_captured(
    results: Sequence[tuple[R, list] | TaskFailure], shipped: tuple[str, ...]
) -> list[R | TaskFailure]:
    """Unwrap :class:`_CapturedCall` results, merging dumps in task order."""
    merged: list[R | TaskFailure] = []
    for slot in results:
        if isinstance(slot, TaskFailure):
            merged.append(slot)  # an exhausted task shipped nothing
            continue
        result, dumps = slot
        for name, dump in zip(shipped, dumps):
            getattr(obs, name).merge_dump(dump)
        merged.append(result)
    return merged


def _failed_attempt(
    index: int, attempt: int, retry: RetryPolicy, error_type: str, message: str, backend: Backend
) -> None:
    """Log and record one failed attempt (a retry, or the task's last)."""
    logger.warning(
        "task %d attempt %d/%d failed: %s: %s",
        index, attempt, retry.max_attempts, error_type, message,
    )
    if obs.EVENTS is not None:
        obs.EVENTS.emit(
            "pool.retry", task=index, attempt=attempt, error=error_type, backend=backend.value
        )


def _exhausted(
    index: int, attempts: int, error_type: str, message: str, backend: Backend
) -> TaskFailure:
    """Record a task giving up for good; the :class:`TaskFailure` for its slot."""
    if obs.EVENTS is not None:
        obs.EVENTS.emit("pool.task_failed", task=index, backend=backend.value)
    return TaskFailure(
        index=index, attempts=attempts, error_type=error_type, message=message,
        backend=backend.value,
    )


def _circuit_failure(index: int, backend: Backend) -> TaskFailure:
    if obs.EVENTS is not None:
        obs.EVENTS.emit("pool.circuit_open", task=index, backend=backend.value)
    if obs.FLIGHT is not None:
        # A tripped breaker fails every remaining task the same way; dump
        # the evidence once per trip episode, not once per failed slot.
        obs.FLIGHT.trip(
            "circuit_open", episode="circuit", task=index, backend=backend.value
        )
    return TaskFailure(
        index=index,
        attempts=0,
        error_type="CircuitOpen",
        message="circuit breaker open: too many consecutive task failures",
        backend=backend.value,
        circuit_open=True,
    )


def _call_thunk(thunk: Callable[[], R]) -> R:
    return thunk()
