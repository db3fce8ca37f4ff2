"""The process transport: worker processes over shared memory and pipes.

:class:`ProcessExecutor` is the multi-core counterpart of
:class:`~repro.runtime.supervisor.ThreadedExecutor`: the same round
protocol, recovery ladder and worker loop (all in
:mod:`repro.runtime.supervisor`), carried by a pool of persistent OS
worker *processes* — sidestepping the GIL, so the paper's wall-clock
speedup claim can be measured on real hardware rather than only in the
discrete-event simulator.  This module holds only what a process needs
and a thread does not.

State exchange is the supervisor↔worker broadcast the paper times in
section 4, implemented the cheap way Voliansky & Pranolo (arXiv:1908.02244)
show it must be for object-level parallelism to pay off:

* the state vector ``y``, parameter vector ``p``, results buffer ``res``,
  per-task wall times, worker heartbeats and the K-stage blocks all live
  in :mod:`multiprocessing.shared_memory`; workers attach NumPy views
  once at startup and never again,
* per dispatch the supervisor sends only the tiny control message
  (:class:`~repro.runtime.supervisor._Job`, as a plain tuple) over a
  per-worker duplex pipe — no array ever crosses a pipe, no per-round
  pickling of ``y``/``res``,
* workers cannot receive live function objects (modules created via
  ``exec`` do not pickle), so each worker re-creates the generated module
  from its :class:`~repro.codegen.program.ProgramSpec` — source text plus
  layout integers — in its own interpreter at startup, and builds its own
  :class:`~repro.runtime.faults.FaultInjector` from the pickled plan and
  its own task runner (:meth:`ProgramSpec.build_runner`), which the
  injector wraps.

Liveness
--------
Thread ``is_alive()`` has no meaning across processes; liveness is
instead established by a *heartbeat protocol*: every worker runs a tiny
daemon thread bumping a per-worker counter in the shared heartbeat block
every ``heartbeat_interval`` seconds, and the supervisor declares a
worker dead when its process has exited **or** its heartbeat has not
advanced within ``heartbeat_timeout``.  Each worker has its own pipe, so
a worker killed with ``SIGKILL`` mid-round cannot corrupt a shared queue
or deadlock the barrier — its pipe simply reports EOF (or its heartbeat
goes stale) and the pool core fails its tasks over.  Workers the core
gives up on are ``kill()``-ed before their tasks are re-run, so an
abandoned worker can never scribble a stale result into the shared
buffer of a later round.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import threading
import time
from multiprocessing import connection, shared_memory

import numpy as np

from ..codegen.program import GeneratedProgram, ProgramSpec
from .events import RuntimeEvents
from .faults import WORKER_THREAD_PREFIX, FaultInjector, FaultSpec, WorkerKill
from .supervisor import _Buffers, _Job, _PoolExecutor, _Reply, serve

__all__ = ["ProcessExecutor", "SHM_PREFIX"]

#: prefix of every shared-memory segment the executor creates; lets CI
#: (and operators) audit /dev/shm for leaks after a run
SHM_PREFIX = "repro_px"

#: rows in the stage-state / stage-result shared blocks; bounds the
#: solver stage count a K-stage round can carry (DOPRI needs 7)
MAX_STAGE_ROWS = 8

#: progress ticks are namespaced per epoch so a straggler from an
#: abandoned round can never satisfy (or break) a later round's barrier
_TICK_STRIDE = 1 << 20

#: how long the supervisor waits for every worker's first heartbeat
_STARTUP_TIMEOUT = 30.0


class _SharedBlocks:
    """The pool's shared-memory segments, one ndarray view on each.

    The supervisor creates them as ``<tag>_<block>``; every worker
    attaches the same names with the same shapes.  ``kst``/``sres``/``prog``/``ctl`` exist for the
    K-stage round protocol: known ``k`` rows in, per-stage results out,
    the progress-vector barrier and the abort flag.
    """

    def __init__(self, tag: str, spec: ProgramSpec, num_params: int,
                 num_workers: int, create: bool) -> None:
        n_res = spec.num_states + spec.num_partials
        shapes = {
            "y": ((spec.num_states,), np.float64),
            "p": ((num_params,), np.float64),
            "res": ((n_res,), np.float64),
            "times": ((spec.num_tasks,), np.float64),
            "hb": ((num_workers,), np.int64),
            "kst": ((MAX_STAGE_ROWS, max(1, spec.num_states)), np.float64),
            "sres": ((MAX_STAGE_ROWS, max(1, n_res)), np.float64),
            "prog": ((num_workers,), np.int64),
            "ctl": ((2,), np.int64),
        }
        self.segments: dict[str, shared_memory.SharedMemory] = {}
        try:
            for key, (shape, dtype) in shapes.items():
                # Attaching re-registers the segment with the (shared,
                # set-backed) resource tracker — a no-op; the supervisor
                # owns and unlinks it.
                self.segments[key] = shared_memory.SharedMemory(
                    name=f"{tag}_{key}", create=create,
                    size=(max(1, int(np.prod(shape)))
                          * np.dtype(dtype).itemsize) if create else 0,
                )
                view = np.ndarray(shape, dtype=dtype,
                                  buffer=self.segments[key].buf)
                if create:
                    view[...] = 0
                setattr(self, key, view)
        except Exception:
            if create:
                self.release()
            raise

    def release(self) -> None:
        """Close and unlink every segment (supervisor side)."""
        # NumPy views pin the mapped buffer; drop them or close() raises
        # BufferError ("cannot close exported pointers exist").
        for key in self.segments:
            self.__dict__.pop(key, None)
        for shm in self.segments.values():
            try:
                shm.close()
            except BufferError:  # pragma: no cover - view leaked elsewhere
                pass
            try:
                shm.unlink()
            except (FileNotFoundError, OSError):
                pass
        self.segments = {}


class _ShmBarrier:
    """``threading.Barrier``'s ``wait``/``abort`` for one K-stage chunk,
    over shared memory.

    After each dependency level the worker bumps its own (single writer)
    ``prog`` slot and spin-waits until every participant has reached the
    same tick.  Ticks are namespaced by epoch so a straggler from an
    abandoned round can neither satisfy nor break a later round's
    barrier.  Aborting publishes the epoch in the shared flag — epoch-
    valued for the same reason — so the whole pool bails out in one
    phase.
    """

    def __init__(self, blocks: _SharedBlocks, worker_id: int,
                 job: _Job) -> None:
        self.prog, self.ctl = blocks.prog, blocks.ctl
        self.worker_id = worker_id
        self.epoch = job.epoch
        self.participants = job.participants
        self.tick = job.epoch * _TICK_STRIDE

    def wait(self, timeout: float) -> None:
        prog, ctl, epoch = self.prog, self.ctl, self.epoch
        self.tick += 1
        tick = self.tick
        prog[self.worker_id] = tick
        deadline = time.monotonic() + timeout
        spins = 0
        while True:
            if ctl[0] == epoch:
                raise threading.BrokenBarrierError
            if all(prog[w] >= tick for w in self.participants):
                return
            if time.monotonic() > deadline:
                self.abort()
                raise threading.BrokenBarrierError
            spins += 1
            time.sleep(0 if spins < 200 else 0.0001)

    def abort(self) -> None:
        self.ctl[0] = self.epoch


def _sendable(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pipe, else its type and text in a
    ``RuntimeError`` — the supervisor must never fail to unpickle a
    reply because a task raised something exotic."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _worker_main(
    worker_id: int,
    spec: ProgramSpec,
    shm_tag: str,
    num_params: int,
    num_workers: int,
    conn,
    fault_plan: tuple[FaultSpec, ...],
    heartbeat_interval: float,
) -> None:
    """Worker process entry point: attach, rebuild, serve jobs forever."""
    blocks = _SharedBlocks(shm_tag, spec, num_params, num_workers,
                           create=False)
    # Worker-pinned fault specs match on this name, as in a thread pool.
    threading.current_thread().name = f"{WORKER_THREAD_PREFIX}{worker_id}"

    # Orphan watchdog: under fork, a worker inherits the supervisor-side
    # pipe ends of workers spawned before it, so supervisor death does
    # NOT surface as EOF on ``conn.recv()`` — without this check a
    # SIGKILL'd supervisor leaves workers blocked forever, and the
    # still-open resource-tracker pipe keeps the shm segments alive too.
    supervisor_pid = os.getppid()

    def beat_forever() -> None:
        while True:
            blocks.hb[worker_id] += 1
            if os.getppid() != supervisor_pid:
                os._exit(2)  # reparented: the supervisor is gone
            time.sleep(heartbeat_interval)

    threading.Thread(target=beat_forever, daemon=True,
                     name=f"heartbeat-{worker_id}").start()

    injector = fired = None
    run = spec.build_runner()
    if fault_plan:
        # Worker-local burn-out counters: process pools cannot share the
        # supervisor's injector, so un-pinned specs burn out
        # independently per worker.  What fires is logged here and
        # carried home in the reply.
        fired = RuntimeEvents()
        injector = FaultInjector(fault_plan, events=fired)
        run = injector.wrap_runner(run, spec.task_slots)
    bufs = _Buffers(blocks.y, blocks.p, blocks.res, blocks.kst, blocks.sres)

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg is None:
            return
        job = _Job._make(msg)
        if injector is not None:
            injector.round_index = job.round_index
        try:
            reply = serve(
                job, worker_id, run, blocks.times, bufs,
                _ShmBarrier(blocks, worker_id, job) if job.stop else None,
            )
        except WorkerKill:
            # A real crash: die without any farewell message.
            if hasattr(signal, "SIGKILL"):
                os.kill(os.getpid(), signal.SIGKILL)
            os._exit(1)
        if reply.error is not None:
            reply = reply._replace(error=_sendable(reply.error))
        if fired is not None and len(fired):
            reply = reply._replace(fired=tuple(e.data for e in fired))
            fired.clear()
        try:
            conn.send(tuple(reply))
        except (BrokenPipeError, OSError):
            return


class _ProcessTransport:
    """Worker processes: jobs and replies over one duplex pipe per
    worker, round buffers by memcpy into and out of shared memory,
    liveness by process exit plus heartbeat, and a real ``kill``."""

    max_stages = MAX_STAGE_ROWS

    def __init__(self, program: GeneratedProgram, num_workers: int,
                 fault_plan: tuple[FaultSpec, ...],
                 heartbeat_interval: float,
                 heartbeat_timeout: float) -> None:
        self.heartbeat_timeout = heartbeat_timeout
        spec = program.rebuild_spec()
        num_params = int(program.param_vector().size)
        tag = f"{SHM_PREFIX}_{os.getpid()}_{id(self) & 0xFFFFFF:06x}"
        self.blocks = _SharedBlocks(tag, spec, num_params, num_workers,
                                    create=True)
        self.times = self.blocks.times
        self._num_states = program.num_states
        self.procs: list = []
        self._conns: list = []
        ctx = multiprocessing.get_context()
        try:
            for w in range(num_workers):
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                proc = ctx.Process(
                    target=_worker_main,
                    args=(w, spec, tag, num_params, num_workers,
                          child_conn, fault_plan, heartbeat_interval),
                    daemon=True,
                    name=f"rhs-proc-{w}",
                )
                proc.start()
                child_conn.close()
                self.procs.append(proc)
                self._conns.append(parent_conn)
        except Exception:
            self.close(0.0)
            raise
        #: (heartbeat value, monotonic time it last advanced) per worker
        self._hb_seen = [(0, time.monotonic())] * num_workers

    def await_startup(self) -> list[tuple[int, str]]:
        """Block until every worker's heartbeat has started (module
        rebuilt, shared memory attached) so the first round's liveness
        window is not charged the pool's startup cost.  Returns the
        workers that did not make it, with the reason."""
        failed = []
        deadline = time.monotonic() + _STARTUP_TIMEOUT
        waiting = set(range(len(self.procs)))
        while waiting and time.monotonic() < deadline:
            for w in list(waiting):
                if self.blocks.hb[w] > 0:
                    waiting.discard(w)
                elif not self.procs[w].is_alive():
                    failed.append((w, "died during startup"))
                    waiting.discard(w)
            if waiting:
                time.sleep(0.002)
        return failed + [(w, "startup timeout") for w in sorted(waiting)]

    # -- round buffers ------------------------------------------------------------

    def bind(self, y, p, res):
        # Broadcast: one memcpy each into the shared blocks; workers see
        # the new state without any message carrying an array.
        blocks = self.blocks
        blocks.y[:] = y
        blocks.p[:] = p
        blocks.res[:] = res
        return _Buffers(blocks.y, blocks.p, blocks.res)

    def bind_stages(self, y, p, res, k, start, nstages, participants):
        blocks = self.blocks
        blocks.y[:] = y
        blocks.p[:] = p
        blocks.kst[:start, :self._num_states] = k[:start]
        blocks.sres[:nstages] = 0.0
        return blocks.sres[:nstages]

    def gather(self, res, times) -> None:
        # Results and measured times come back by memcpy too.
        if res is not None:
            res[:] = self.blocks.res
        times[:] = self.blocks.times

    # -- messages -----------------------------------------------------------------

    def send(self, worker_id: int, job: _Job) -> bool:
        if job.stop:
            # ndarray rows take ~25 us to pickle, float lists ~3.
            job = job._replace(
                a_rows=[np.asarray(row, dtype=float).tolist()
                        for row in job.a_rows],
                c=np.asarray(job.c, dtype=float).tolist(),
            )
        try:
            self._conns[worker_id].send(tuple(job))
            return True
        except (BrokenPipeError, OSError):
            return False

    def replies(self, workers, timeout: float):
        by_conn = {id(self._conns[w]): w for w in workers}
        arrived = []
        for conn in connection.wait(
            [self._conns[w] for w in workers], timeout=timeout
        ):
            try:
                arrived.append((by_conn[id(conn)], _Reply._make(conn.recv())))
            except (EOFError, OSError):
                arrived.append((by_conn[id(conn)], None))
        return arrived

    # -- liveness -----------------------------------------------------------------

    def alive(self, worker_id: int) -> bool:
        if not self.procs[worker_id].is_alive():
            return False
        value = int(self.blocks.hb[worker_id])
        seen, since = self._hb_seen[worker_id]
        now = time.monotonic()
        if value != seen:
            self._hb_seen[worker_id] = (value, now)
            return True
        return (now - since) <= self.heartbeat_timeout

    def why_dead(self, worker_id: int) -> str:
        return ("heartbeat lost" if self.procs[worker_id].is_alive()
                else "process exited")

    def kill(self, worker_id: int) -> None:
        if self.procs[worker_id].is_alive():
            self.procs[worker_id].kill()

    def abort_stages(self, epoch: int) -> None:
        self.blocks.ctl[0] = epoch

    def close(self, join_timeout: float) -> list[int]:
        """Live workers get a farewell ``None`` and ``join_timeout`` to
        exit; stragglers are killed (processes, unlike threads, can be).
        All shared-memory segments are closed and unlinked, so a clean
        close leaks nothing into ``/dev/shm``."""
        for conn in self._conns:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        stragglers = []
        for w, proc in enumerate(self.procs):
            proc.join(timeout=join_timeout)
            if proc.is_alive():
                stragglers.append(w)
                proc.kill()
                proc.join(timeout=1.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self.times = None
        self.blocks.release()
        return stragglers


class ProcessExecutor(_PoolExecutor):
    """Persistent worker processes executing scheduled task lists: the
    round protocol of :class:`~repro.runtime.supervisor._PoolExecutor`
    over the process transport.

    Drop-in peer of :class:`~repro.runtime.supervisor.SerialExecutor` and
    :class:`~repro.runtime.supervisor.ThreadedExecutor` behind
    :class:`~repro.runtime.parallel_rhs.ParallelRHS`: the same
    ``evaluate(t, y, p, res, schedule)`` contract, bit-identical numerics,
    measured per-task times for the semi-dynamic LPT, and the same
    retry → reassign → inline → degrade recovery ladder.  Takes
    ``ThreadedExecutor``'s options plus the two heartbeat settings; see
    the module docstring for the shared-memory layout and heartbeat
    protocol.
    """

    def __init__(
        self,
        program: GeneratedProgram,
        num_workers: int,
        *,
        heartbeat_interval: float = 0.02,
        heartbeat_timeout: float = 5.0,
        **options,
    ) -> None:
        if heartbeat_interval <= 0 or heartbeat_timeout <= heartbeat_interval:
            raise ValueError(
                "heartbeat_timeout must exceed heartbeat_interval > 0"
            )
        super().__init__(program, num_workers, **options)
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        plan = tuple(self.injector.plan) if self.injector is not None else ()
        self._transport = _ProcessTransport(
            program, num_workers, plan, heartbeat_interval, heartbeat_timeout
        )
        for w, reason in self._transport.await_startup():
            self._mark_dead(w, reason)
