"""Supervised dispatch: the fault-tolerant half of the engine.

A bare ``pool.map`` dies with the first worker exception, blocks forever
on a diverging verifier, and loses every completed verdict to one
OOM-killed worker.  The supervisor instead dispatches each work unit
with ``apply_async`` under active supervision:

* **per-program timeouts** — a task has a deadline from the moment it is
  handed to a worker (submission is windowed to ``jobs`` tasks, so queue
  time never counts against a program's budget);
* **worker-death detection** — workers announce ``(pid, program)`` over
  a fork-inherited queue at task start, and the supervisor polls each
  announced pid for liveness: a dead worker means its task's result will
  *never* arrive, so waiting for it is not an option;
* **bounded retries with exponential backoff** — crashed, timed-out and
  exception-killed tasks are resubmitted up to ``retries`` times,
  backing off ``backoff * 2**(retries_so_far - 1)`` seconds;
* **pool resurrection** — a hung worker can only be removed by tearing
  the pool down (``multiprocessing.Pool`` cannot cancel a running
  task), so on a timeout the pool is terminated and rebuilt and every
  *innocent* in-flight task is resubmitted without consuming its retry
  budget; a crashed worker, by contrast, is replaced by the pool's own
  maintenance thread and only the victim is resubmitted;
* **graceful degradation** — when pool creation (or resurrection) itself
  fails — no ``/dev/shm``, semaphore exhaustion — the remaining tasks
  run serially in-process and the sweep is marked *degraded* rather
  than dead.

The in-process serial runner (:meth:`Supervisor.run_serial`) is the one
loop both ``--jobs 1`` and that degraded fallback use: no pool, no
timeouts, the same :class:`TaskResult` for every task, and the caller's
installed pre-pass for every in-process unit.

The supervisor never raises for a task-level fault: every program ends
in a :class:`TaskResult` whose ``status`` says what happened, and the
sweep always reports all requested programs.  ``KeyboardInterrupt`` is
the one exception it honors: workers are terminated and the tasks still
pending are marked ``interrupted``, preserving completed results.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..obs.tracer import instant as _trace_instant

#: Final task statuses that denote an infrastructure problem (the sweep
#: could not obtain a verdict), as opposed to a verification verdict.
INFRA_STATUSES = ("error", "timeout", "crashed", "interrupted")


@dataclass
class SupervisorConfig:
    """Supervision knobs (all per-program except ``jobs``)."""

    jobs: int = 2
    #: Wall-clock seconds a single attempt may run; ``None`` disables.
    timeout: float | None = None
    #: Retries after the first attempt for crashed/timed-out/raised tasks.
    retries: int = 1
    #: Base of the exponential retry backoff, in seconds.
    backoff: float = 0.25
    #: Supervision loop granularity, in seconds.
    poll_interval: float = 0.05
    #: Optional dynamic in-flight window (the resource watchdog's
    #: parallelism shedding): polled each loop, result clamped to
    #: ``[1, jobs]``.  ``None`` = the full ``jobs`` width.
    throttle: Callable[[], int] | None = None
    #: Optional checkpoint probe: a non-``None`` reason aborts the batch
    #: like a KeyboardInterrupt (pending tasks marked ``interrupted``,
    #: completed results kept) — the watchdog's checkpoint-and-exit rung.
    should_stop: Callable[[], str | None] | None = None


@dataclass
class TaskResult:
    """What supervision concluded about one program."""

    name: str
    #: ``report`` (a verdict payload), ``error`` (the verifier raised —
    #: captured in-worker), or an infra status from :data:`INFRA_STATUSES`.
    status: str
    #: The worker's payload, when one arrived.
    payload: dict[str, Any] | None = None
    #: Structured ``{type, message, traceback}`` for error-class outcomes.
    error: dict[str, Any] | None = None
    #: Fault-triggered re-dispatches (pool-collateral resubmissions are
    #: not counted: an innocent task killed with a torn-down pool keeps
    #: both its attempt number and its retry budget).
    retries: int = 0
    #: Wall time of the final attempt as seen by the supervisor.
    seconds: float = 0.0


@dataclass
class SupervisionOutcome:
    """The supervisor's answer for a batch of programs."""

    results: dict[str, TaskResult]
    #: True when the pool could not be (re)built and the serial
    #: in-process fallback ran instead.
    degraded: bool = False
    #: True when a KeyboardInterrupt cut the batch short.
    interrupted: bool = False
    warnings: list[str] = field(default_factory=list)


def exc_payload(exc: BaseException, tb: str | None = None) -> dict[str, Any]:
    """The structured error image used for every error-class outcome."""
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": tb if tb is not None else traceback.format_exc(),
    }


# -- worker-side announcement channel -----------------------------------------
#
# Created by the supervisor in the parent before the pool, inherited by
# fork-started workers as a module global.  Under a spawn start method
# the global is None in the child and announcements are silently skipped
# — crash detection then degrades to timeout-based detection.

_announce_queue = None


def announce(program: str) -> None:
    """Worker-side: report ``(pid, program)`` at task start, best-effort."""
    queue = _announce_queue
    if queue is not None:
        try:
            queue.put((os.getpid(), program))
        except Exception:  # noqa: BLE001 - announcements are advisory only
            pass


class _Task:
    """Mutable supervision state for one task.

    Supervision is duck-typed over its task descriptors: anything with a
    ``name`` attribute works (work units and registry ``ProgramInfo``
    rows).
    """

    __slots__ = (
        "info",
        "attempt",
        "retries",
        "async_result",
        "started",
        "deadline",
        "pid",
        "not_before",
        "done",
    )

    def __init__(self, info: Any):
        self.info = info
        self.attempt = 1
        self.retries = 0
        self.async_result = None
        self.started: float | None = None
        self.deadline: float | None = None
        self.pid: int | None = None
        self.not_before = 0.0
        self.done: TaskResult | None = None

    @property
    def name(self) -> str:
        return self.info.name

    def elapsed(self) -> float:
        return 0.0 if self.started is None else time.monotonic() - self.started


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, owned by another user
        return True
    return True


class Supervisor:
    """Drives one batch of programs to completion, faults and all."""

    def __init__(
        self,
        programs: Sequence[Any],
        *,
        worker: Callable[..., dict[str, Any]],
        config: SupervisorConfig,
        on_lease: Callable[[str, int, float | None], None] | None = None,
        on_result: Callable[[TaskResult], None] | None = None,
    ):
        self.programs = list(programs)
        self.worker = worker
        self.config = config
        #: Incremental hooks for the durable journal: ``on_lease(name,
        #: attempt, timeout)`` as a task goes in-flight, ``on_result``
        #: the moment a task reaches its final :class:`TaskResult` —
        #: *not* at batch end, so a hard crash of this process loses at
        #: most the in-flight tasks.
        self.on_lease = on_lease
        self.on_result = on_result
        self.warnings: list[str] = []
        self._pool = None
        self._queue = None

    def _notify_lease(self, task: "_Task", lease: float | None) -> None:
        if self.on_lease is not None:
            try:
                self.on_lease(task.name, task.attempt, lease)
            except Exception:  # noqa: BLE001 - journaling must not kill dispatch
                pass

    def _settle(
        self, task: "_Task", results: dict[str, TaskResult], result: TaskResult
    ) -> None:
        """Record ``task``'s final result and report it at once."""
        task.done = results[task.name] = result
        if self.on_result is not None:
            try:
                self.on_result(result)
            except Exception:  # noqa: BLE001 - journaling must not kill dispatch
                pass

    def _stop_reason(self) -> str | None:
        """The ``should_stop`` probe's answer (a sick probe never stalls)."""
        if self.config.should_stop is None:
            return None
        try:
            return self.config.should_stop()
        except Exception:  # noqa: BLE001 - probe bugs never stall
            return None

    # -- pool lifecycle --------------------------------------------------------

    def _make_pool(self):
        return multiprocessing.Pool(processes=self.config.jobs)

    def _teardown_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.terminate()
                pool.join()
            except Exception:  # noqa: BLE001 - teardown is best-effort
                pass

    def _resurrect_pool(self, reason: str) -> bool:
        """Tear the pool down and build a fresh one; ``False`` means the
        infrastructure is gone and the caller must degrade to serial."""
        self._teardown_pool()
        self.warnings.append(f"worker pool resurrected: {reason}")
        _trace_instant("supervisor:resurrect", "engine", reason=reason)
        try:
            self._pool = self._make_pool()
        except Exception as exc:  # noqa: BLE001 - degrade, don't die
            self.warnings.append(
                f"pool resurrection failed ({type(exc).__name__}: {exc}); "
                "degrading to serial in-process execution"
            )
            return False
        return True

    # -- the supervision loop --------------------------------------------------

    def run(self) -> SupervisionOutcome:
        """Run the batch on a supervised pool; if the pool cannot be
        (re)built, finish it with :meth:`run_serial`, marked degraded."""
        tasks = [_Task(info) for info in self.programs]
        results: dict[str, TaskResult] = {}
        try:
            interrupted = self._run_pool(tasks, results)
        except _Degraded:
            outcome = self.run_serial(tasks, results)
            outcome.degraded = True
            return outcome
        return SupervisionOutcome(
            results, interrupted=interrupted, warnings=self.warnings
        )

    def _run_pool(self, tasks: list[_Task], results: dict[str, TaskResult]) -> bool:
        """Supervise ``tasks`` on a fresh pool, torn down on return;
        raises :class:`_Degraded` when no pool can be had."""
        global _announce_queue
        try:
            try:
                self._queue = _announce_queue = multiprocessing.SimpleQueue()
                self._pool = self._make_pool()
            except Exception as exc:  # noqa: BLE001 - no pool at all: degrade
                self.warnings.append(
                    f"pool creation failed ({type(exc).__name__}: {exc}); "
                    "running serially in-process"
                )
                raise _Degraded() from exc
            return self._supervise(tasks, results)
        finally:
            _announce_queue = None
            self._teardown_pool()
            queue, self._queue = self._queue, None
            if queue is not None:
                queue.close()

    def _window(self) -> int:
        """The current in-flight limit: ``jobs``, shed via ``throttle``."""
        window = self.config.jobs
        if self.config.throttle is not None:
            try:
                window = max(1, min(window, int(self.config.throttle())))
            except Exception:  # noqa: BLE001 - a sick throttle never stalls
                pass
        return window

    def _mark_pending_interrupted(
        self, tasks: list[_Task], results: dict[str, TaskResult], reason: str
    ) -> None:
        for task in tasks:
            if task.done is None:
                self._settle(
                    task,
                    results,
                    TaskResult(
                        task.name,
                        "interrupted",
                        retries=task.retries,
                        seconds=task.elapsed(),
                    ),
                )
        self.warnings.append(reason)

    def _supervise(self, tasks: list[_Task], results: dict[str, TaskResult]) -> bool:
        waiting = list(tasks)
        active: dict[str, _Task] = {}
        try:
            while waiting or active:
                stop = self._stop_reason()
                if stop is not None:
                    self._mark_pending_interrupted(
                        tasks,
                        results,
                        f"sweep checkpointed: {stop}; pending programs "
                        "marked 'interrupted', completed verdicts preserved",
                    )
                    return True
                now = time.monotonic()
                while waiting and len(active) < self._window():
                    ready = next((t for t in waiting if t.not_before <= now), None)
                    if ready is None:
                        break
                    waiting.remove(ready)
                    self._submit(ready, active, results)
                self._drain_announcements(active)
                self._collect_ready(active, waiting, results)
                self._check_deadlines(active, waiting, results)
                self._check_worker_deaths(active, waiting, results)
                if waiting or active:
                    time.sleep(self.config.poll_interval)
            return False
        except KeyboardInterrupt:
            self._mark_pending_interrupted(
                tasks,
                results,
                "sweep interrupted: pending programs marked 'interrupted', "
                "completed verdicts preserved",
            )
            return True

    # -- submission ------------------------------------------------------------

    def _submit(
        self,
        task: _Task,
        active: dict[str, _Task],
        results: dict[str, TaskResult],
    ) -> None:
        task.started = time.monotonic()
        task.deadline = (
            task.started + self.config.timeout
            if self.config.timeout is not None
            else None
        )
        task.pid = None
        try:
            task.async_result = self._pool.apply_async(
                self.worker, (task.info, task.attempt)
            )
        except Exception as exc:  # noqa: BLE001 - pool broken at submit time
            if not self._resurrect_pool(
                f"submit of {task.name!r} failed ({type(exc).__name__})"
            ):
                raise _Degraded() from exc
            try:
                task.async_result = self._pool.apply_async(
                    self.worker, (task.info, task.attempt)
                )
            except Exception as again:  # noqa: BLE001 - fresh pool broken too
                raise _Degraded() from again
        active[task.name] = task
        self._notify_lease(task, self.config.timeout)
        _trace_instant(
            "supervisor:submit", "engine", program=task.name, attempt=task.attempt
        )

    # -- event handling --------------------------------------------------------

    def _drain_announcements(self, active: dict[str, _Task]) -> None:
        queue = self._queue
        try:
            while queue is not None and not queue.empty():
                pid, program = queue.get()
                task = active.get(program)
                if task is not None:
                    task.pid = pid
        except Exception:  # noqa: BLE001 - announcements are advisory only
            pass

    def _collect_ready(
        self,
        active: dict[str, _Task],
        waiting: list[_Task],
        results: dict[str, TaskResult],
    ) -> None:
        for name, task in list(active.items()):
            if not task.async_result.ready():
                continue
            del active[name]
            try:
                payload = task.async_result.get(0)
            except Exception as exc:  # noqa: BLE001 - escaped the worker capture
                self._fault(
                    task,
                    "error",
                    waiting,
                    results,
                    error=exc_payload(exc, tb="".join(
                        traceback.format_exception(exc)
                    )),
                )
                continue
            self._settle(task, results, _payload_result(task, payload))
            _trace_instant(
                "supervisor:collect",
                "engine",
                program=name,
                status=task.done.status,
                seconds=task.done.seconds,
            )

    def _check_deadlines(
        self,
        active: dict[str, _Task],
        waiting: list[_Task],
        results: dict[str, TaskResult],
    ) -> None:
        if self.config.timeout is None:
            return
        now = time.monotonic()
        overdue = [t for t in active.values() if t.deadline and now >= t.deadline]
        for task in overdue:
            if task.name not in active:
                continue  # requeued as pool-teardown collateral this round
            del active[task.name]
            # A hung task cannot be cancelled: kill its worker (pid
            # known) or tear the whole pool down (pid unknown).  Either
            # way the pool self-heals or is rebuilt below.
            if task.pid is not None:
                try:
                    os.kill(task.pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass
                self._fault(task, "timeout", waiting, results)
            else:
                if not self._resurrect_pool(
                    f"{task.name!r} exceeded its {self.config.timeout:.1f}s "
                    "timeout with no worker attribution"
                ):
                    self._fault(task, "timeout", waiting, results)
                    raise _Degraded()
                self._fault(task, "timeout", waiting, results)
                self._resubmit_innocents(active, waiting)

    def _check_worker_deaths(
        self,
        active: dict[str, _Task],
        waiting: list[_Task],
        results: dict[str, TaskResult],
    ) -> None:
        for name, task in list(active.items()):
            if task.pid is None or _pid_alive(task.pid):
                continue
            # The worker died; its result might still be in flight, so
            # give the pool's result-handler one last look before
            # declaring the task lost.
            if task.async_result.ready():
                continue
            del active[name]
            _trace_instant(
                "supervisor:worker-death", "engine", program=name, pid=task.pid
            )
            self._fault(
                task,
                "crashed",
                waiting,
                results,
                error={
                    "type": "WorkerCrash",
                    "message": f"worker pid {task.pid} died before returning "
                    f"a result for {name!r} (attempt {task.attempt})",
                    "traceback": "",
                },
            )

    def _resubmit_innocents(
        self, active: dict[str, _Task], waiting: list[_Task]
    ) -> None:
        """After a pool teardown, requeue the in-flight tasks that were
        not at fault — same attempt, retry budget untouched."""
        for name, task in list(active.items()):
            del active[name]
            task.not_before = 0.0
            waiting.append(task)

    # -- retry policy ----------------------------------------------------------

    def _fault(
        self,
        task: _Task,
        kind: str,
        waiting: list[_Task],
        results: dict[str, TaskResult],
        error: dict[str, Any] | None = None,
    ) -> None:
        _trace_instant(
            "supervisor:fault",
            "engine",
            program=task.name,
            kind=kind,
            attempt=task.attempt,
            will_retry=task.attempt <= self.config.retries,
        )
        if task.attempt <= self.config.retries:
            task.retries += 1
            task.attempt += 1
            task.not_before = (
                time.monotonic() + self.config.backoff * (2 ** (task.retries - 1))
            )
            waiting.append(task)
            return
        self._settle(
            task,
            results,
            TaskResult(
                task.name,
                kind,
                error=error,
                retries=task.retries,
                seconds=task.elapsed(),
            ),
        )

    # -- the in-process serial runner -----------------------------------------

    def run_serial(
        self,
        tasks: list[_Task] | None = None,
        results: dict[str, TaskResult] | None = None,
    ) -> SupervisionOutcome:
        """Run every unfinished task in this process, one at a time: the
        ``--jobs 1`` path, and how :meth:`run` finishes a batch whose
        pool is gone (a task keeps the attempt and retries it reached).

        Timeouts and crash isolation need a process boundary and do not
        apply here, so leases carry no deadline.  A verifier exception
        becomes an ``error`` result; a KeyboardInterrupt or a
        ``should_stop`` checkpoint marks the current and every later
        task ``interrupted`` — each completed task already reached
        ``on_result``.  The tasks run under whatever pre-pass the caller
        installed.
        """
        if tasks is None:
            tasks = [_Task(info) for info in self.programs]
        results = {} if results is None else results
        interrupted = False
        for task in tasks:
            if task.done is not None:
                continue
            if not interrupted:
                stop = self._stop_reason()
                if stop is not None:
                    interrupted = True
                    self.warnings.append(f"sweep checkpointed: {stop}")
            if interrupted:
                self._settle(
                    task,
                    results,
                    TaskResult(task.name, "interrupted", retries=task.retries),
                )
                continue
            task.started = time.monotonic()
            self._notify_lease(task, None)
            try:
                payload = self.worker(task.info, task.attempt)
            except KeyboardInterrupt:
                interrupted = True
                result = TaskResult(
                    task.name,
                    "interrupted",
                    retries=task.retries,
                    seconds=task.elapsed(),
                )
            except Exception as exc:  # noqa: BLE001 - e.g. an injected 'raise'
                result = TaskResult(
                    task.name,
                    "error",
                    error=exc_payload(exc),
                    retries=task.retries,
                    seconds=task.elapsed(),
                )
            else:
                result = _payload_result(task, payload)
            self._settle(task, results, result)
        return SupervisionOutcome(
            results, interrupted=interrupted, warnings=self.warnings
        )


def _payload_result(task: _Task, payload: dict[str, Any]) -> TaskResult:
    """The result of an attempt that returned ``payload``."""
    return TaskResult(
        task.name,
        payload.get("status", "report"),
        payload=payload,
        error=payload.get("error"),
        retries=task.retries,
        seconds=task.elapsed(),
    )


class _Degraded(Exception):
    """Internal control flow: the pool is unrecoverable, go serial."""
