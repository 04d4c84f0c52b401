"""A shard launch: spec → context → drive → funnel.

How a ``ShardLaunch`` gets its synchronization objects, drives its
shards, delivers a pair copy and returns each shard's result is decided
here, once, for every backend:

* :func:`launch_spec` walks the launch body a single time and names what
  it needs: the partitions whose instances must exist, one channel per
  (copy statement, producer shard, consumer shard) that some pair of the
  statement crosses (:func:`channel_keys`), one collective per
  ``ScalarCollective`` and a ``pre:``/``post:`` pair of value-less ones
  (barriers) per barrier-synchronized copy, and the (reduction copy,
  destination shard) keys that need a fold lock.
* :class:`CommContext` turns that spec into objects, in spec order.  The
  class itself is the in-memory implementation (``stepped``/``threaded``);
  :class:`repro.runtime.procs.BoardContext` puts the same objects in
  shared memory and :class:`repro.runtime.net.sync.NetCommContext` on the
  wire.  Besides the objects it owns *group advance* and *remote
  delivery*, the two operations whose best form depends on the
  mechanism.
* :func:`drive_shard` resumes one shard generator to its end on the
  calling thread, blocking in :func:`wait_event` — the one wait loop
  (20 ms poll, cancel token, deadlock deadline, flight WAIT record).
  The thread driver, a forked ``procs`` child and a ``net`` rank all
  run it; :func:`drive_stepped` is the deterministic scheduler over the
  same event objects, and records the turns a shard spends descheduled
  as its WAITs.
* :func:`fork_and_funnel` is the one fork/collect/join loop under
  ``procs`` and ``net``: one child per shard runs a backend-supplied
  body, ships :func:`child_payload` back over a pipe, and the parent
  collects in *arrival* order so a rank that dies hard cancels the rest
  at once, whichever rank it is.
"""

from __future__ import annotations

import multiprocessing
import random
import re
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as wait_any
from typing import Any, Callable, Iterator

from ..core.ir import (FillReductionBuffer, IndexLaunch, PairwiseCopy,
                       ScalarCollective, walk)
from ..core.shards import channel_keys
from ..obs import flight as _flight
from ..obs.flight import anchor_delta_s, flight_anchor
from .collectives import DynamicCollective
from .events import Sequence

__all__ = ["Channel", "CommContext", "DeadlockError", "LaunchSpec",
           "channel_keys",
           "ProcsUnavailableError", "ShardExceptionGroup", "drive_shard",
           "drive_stepped", "drive_threaded", "ensure_procs_available",
           "fork_and_funnel", "launch_spec", "procs_available", "wait_event"]


class DeadlockError(RuntimeError):
    """No shard can make progress — synchronization is inconsistent."""


try:
    _ExceptionGroupBase = ExceptionGroup  # noqa: F821 -- builtin on py3.11+
except NameError:  # pragma: no cover -- py3.10 fallback
    class _ExceptionGroupBase(Exception):
        def __init__(self, message: str, exceptions):
            super().__init__(message)
            self.exceptions = tuple(exceptions)

        def __str__(self) -> str:
            return (f"{self.args[0]} "
                    f"({len(self.exceptions)} sub-exception(s))")


class ShardExceptionGroup(_ExceptionGroupBase):
    """Several shards of one SPMD run failed independently."""


class ProcsUnavailableError(RuntimeError):
    """The platform lacks the ``fork`` start method the driver needs."""


class _Cancelled(BaseException):
    """Internal: a sibling shard failed; unwind this shard quietly."""


def procs_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def ensure_procs_available() -> None:
    if not procs_available():
        raise ProcsUnavailableError(
            "the procs SPMD backend requires the 'fork' multiprocessing "
            "start method (unavailable on this platform); use "
            "mode='threaded' instead")


def fork_context():
    ensure_procs_available()
    return multiprocessing.get_context("fork")


# ---------------------------------------------------------------------------
# Spec: what one launch needs
# ---------------------------------------------------------------------------

@dataclass
class LaunchSpec:
    """What one ``ShardLaunch`` touches and synchronizes on, in walk order."""

    partitions: list = field(default_factory=list)
    # Copy statements, and per copy uid its channel keys (channel_keys).
    copies: list = field(default_factory=list)
    channels: dict[int, list[tuple[int, int]]] = field(default_factory=dict)
    # (key, redop, copy): a ``ScalarCollective`` is keyed by its uid; a
    # barrier-mode copy's ``pre``/``post`` rendezvous, by "pre:<uid>" and
    # "post:<uid>", has redop None and names its copy statement (a
    # ``post`` must also cover that statement's inbound payloads on a
    # backend where data and rendezvous travel apart).
    collectives: list[tuple[Any, str | None, Any]] = field(
        default_factory=list)
    # (reduction copy uid, dst shard): folds into one shard's destination
    # block may need a lock; different shards' blocks never contend.
    reduction_dsts: list[tuple[int, int]] = field(default_factory=list)
    # Statement uid -> the name its flight rows carry (FlightRecorder.names).
    names: dict[int, str] = field(default_factory=dict)


def launch_spec(stmt, copy_pairs: Callable, num_shards: int) -> LaunchSpec:
    """Derive the :class:`LaunchSpec` of ``stmt`` over ``num_shards`` in
    one walk.

    Deterministic in the statement order and ``copy_pairs(copy)`` order,
    which is what lets forked ranks and independently started workers
    number their channels identically without exchanging anything.
    """
    spec = LaunchSpec()
    parts: dict[int, Any] = {}
    for s in walk(stmt):
        if isinstance(s, IndexLaunch):
            spec.names[s.uid] = f"task:{s.task.name}"
            for arg in s.region_args:
                parts[arg.proj.partition.uid] = arg.proj.partition
        elif isinstance(s, FillReductionBuffer):
            parts[s.partition.uid] = s.partition
        elif isinstance(s, PairwiseCopy):
            parts[s.src.uid] = s.src
            parts[s.dst.uid] = s.dst
            spec.copies.append(s)
            spec.channels[s.uid] = channel_keys(s, copy_pairs(s), num_shards)
            spec.names[s.uid] = f"copy:{s.src.name}->{s.dst.name}"
            if s.sync_mode == "barrier":
                spec.collectives += [(f"{tag}:{s.uid}", None, s)
                                     for tag in ("pre", "post")]
            if s.redop is not None:
                spec.reduction_dsts.extend(
                    (s.uid, q) for q in range(num_shards))
        elif isinstance(s, ScalarCollective):
            spec.collectives.append((s.uid, s.redop, None))
            spec.names[s.uid] = f"collective:{s.name}"
    spec.partitions = list(parts.values())
    return spec


# ---------------------------------------------------------------------------
# Context: the spec's objects, plus group advance and pair delivery
# ---------------------------------------------------------------------------

# Every wait label of a statement starts ``<word><uid>:`` — ``copy7:…``,
# ``coll12:<redop>`` — and a WAIT record carries that uid (0 for a label
# that names none, such as the net driver's own waits).
_LABEL_UID = re.compile(r"[a-z]+(\d+):")


def label_uid(label: str | None) -> int:
    """The statement uid a wait label names, else 0."""
    m = _LABEL_UID.match(label or "")
    return int(m.group(1)) if m else 0


class Channel:
    """The two monotone sequences of one (copy statement, producer shard,
    consumer shard) handshake, and the labels a wait on either carries:
    formatted once, when the context creates the channel, and read from
    here by the interpreter, the recorder and so by every frozen window."""

    __slots__ = ("ready", "acked", "ack_label", "ready_label")

    def __init__(self, ready, acked):
        self.ready = ready
        self.acked = acked
        self.ack_label = self.ready_label = None


class CommContext:
    """The synchronization objects of one launch, built from its spec.

    ``channels[copy uid][(p, q)]`` is the :class:`Channel` from producer
    shard ``p`` to consumer shard ``q`` (one per spec channel key, in
    spec order); ``outbound[copy uid][p]`` is ``{q: channel}`` of the
    ones ``p`` produces into and ``inbound[copy uid][q]`` ``{p:
    channel}`` of the ones ``q`` consumes from, in the same order, so a
    shard's plan reads its own channels without scanning the others'.
    ``collectives[key]`` is the generational all-reduce of each spec
    collective, a barrier being one with no redop.  Subclasses override
    the two factories (and the operations below) and nothing else; this
    class builds plain in-process objects.
    """

    # Whether a copy's pairs between two shards travel as messages
    # (send, on a context that builds them in bind_plan) rather than as
    # in-memory copies.
    messages = False

    def __init__(self, spec: LaunchSpec, num_shards: int):
        self.num_shards = num_shards
        cid = 0
        self.channels: dict[int, dict[tuple[int, int], Channel]] = {}
        self.outbound: dict[int, dict[int, dict[int, Channel]]] = {}
        self.inbound: dict[int, dict[int, dict[int, Channel]]] = {}
        for stmt in spec.copies:
            chans = self.channels[stmt.uid] = {}
            out = self.outbound[stmt.uid] = {}
            into = self.inbound[stmt.uid] = {}
            for key in spec.channels[stmt.uid]:
                chan = self._channel(stmt, key, cid)
                cid += 1
                if chan is not None:
                    p, q = key
                    chan.ack_label = f"copy{stmt.uid}:ack({p},{q})"
                    chan.ready_label = f"copy{stmt.uid}:ready({p},{q})"
                    chans[key] = chan
                    out.setdefault(p, {})[q] = chan
                    into.setdefault(q, {})[p] = chan
        self.collectives = {}
        for key, redop, copy in spec.collectives:
            coll = self.collectives[key] = self._collective(key, redop, copy)
            coll.label = (f"coll{key}:{redop}" if copy is None else
                          f"copy{copy.uid}:{key.partition(':')[0]}")

    # -- factories, called in spec order ----------------------------------
    def _channel(self, stmt, key, cid: int):
        return Channel(Sequence(), Sequence())

    def _collective(self, key, redop: str | None, copy):
        return DynamicCollective(self.num_shards, redop)

    # -- operations -------------------------------------------------------
    def advance_group(self, seqs, n: int) -> None:
        """Advance a batch of this context's sequences to generation ``n``
        (one handshake phase of a copy statement: one per peer shard)."""
        for seq in seqs:
            seq.advance_to(n)

    def bind_plan(self, plan) -> None:
        """Build what the calling shard's messages need from its
        :class:`~repro.runtime.launch_plan.ShardPlan`, before its first
        statement (nothing, when no pair is a message)."""

    def send(self, stmt, state, rec) -> None:
        """Deliver ``stmt``'s pair copies from the calling shard to every
        peer shard its plan sends to, one message each."""
        raise NotImplementedError("every pair of this context is local")


# ---------------------------------------------------------------------------
# Drive: one wait loop, one per-shard resume loop, two schedulers
# ---------------------------------------------------------------------------

def wait_event(ex, state, ev, cancel) -> None:
    """Block the calling shard on one yielded event.

    Polls so a sibling's failure (the cancel token) unblocks this shard
    promptly instead of after the full deadlock timeout.
    """
    if ev.is_set():
        return
    t0 = time.perf_counter()
    deadline = time.monotonic() + ex.deadlock_timeout
    while not ev.wait_blocking(timeout=0.02):
        if cancel.is_set():
            raise _Cancelled()
        if time.monotonic() >= deadline:
            raise DeadlockError(
                f"shard {state.shard} blocked on {ev.label or 'event'} "
                f"for {ex.deadlock_timeout}s")
    state.flight.record(_flight.WAIT, label_uid(ev.label), t0,
                        time.perf_counter())


def drive_shard(ex, gen: Iterator, state, cancel) -> BaseException | None:
    """Run one shard's generator to its end on the calling thread.

    Returns the shard's own failure (after setting ``cancel`` so siblings
    unwind), or ``None`` — also when this shard was itself unwound by a
    sibling's failure, which already recorded the primary error.
    """
    try:
        for ev in gen:
            if cancel.is_set():
                raise _Cancelled()
            if ev is not None:
                wait_event(ex, state, ev, cancel)
    except _Cancelled:
        pass
    except BaseException as exc:
        cancel.set()
        return exc
    return None


def raise_shard_errors(errors: list) -> None:
    """Raise collected shard failures: the single error as itself, several
    as one :class:`ShardExceptionGroup`."""
    if len(errors) == 1:
        raise errors[0]
    if errors:
        if not all(isinstance(e, Exception) for e in errors):
            raise errors[0]  # e.g. KeyboardInterrupt: re-raise directly
        raise ShardExceptionGroup(f"{len(errors)} shards failed", errors)


def drive_threaded(ex, gens: list, states: list) -> None:
    """One OS thread per shard, blocking waits."""
    errors: list[BaseException] = []
    lock = threading.Lock()
    cancel = threading.Event()

    def run(gen, state) -> None:
        exc = drive_shard(ex, gen, state, cancel)
        if exc is not None:
            with lock:
                errors.append(exc)

    threads = [threading.Thread(target=run, args=(g, st), daemon=True)
               for g, st in zip(gens, states)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    raise_shard_errors(errors)


def drive_stepped(ex, gens: list, states: list) -> None:
    """Interleave the shards deterministically-adversarially on one thread
    under ``ex.seed``; nothing blocks, so a stall is a deadlock at once.

    A shard resumed after another one ran was descheduled from its last
    yield until now: that gap is its WAIT record, so the shard's other
    records never include another shard's turns."""
    ns = len(gens)
    pending: list = [None] * ns
    done = [False] * ns
    yielded: list = [None] * ns  # when each shard last yielded
    last = None
    perf = time.perf_counter
    rng = random.Random(ex.seed)
    while not all(done):
        runnable = [x for x in range(ns)
                    if not done[x] and (pending[x] is None or pending[x].is_set())]
        if not runnable:
            blocked = [x for x in range(ns) if not done[x]]
            raise DeadlockError(
                f"shards {blocked} all blocked: missing or inconsistent "
                f"synchronization")
        x = rng.choice(runnable)
        if x != last and yielded[x] is not None:
            states[x].flight.record(
                _flight.WAIT, label_uid(getattr(pending[x], "label", None)),
                yielded[x], perf())
        last = x
        try:
            pending[x] = next(gens[x])
        except StopIteration:
            done[x] = True
            pending[x] = None
        yielded[x] = perf()


def launch_in_memory(drive: Callable):
    """The launch callable of a backend whose shards share this process."""
    def launch(ex, stmt, spec: LaunchSpec, states: list) -> None:
        ctx = CommContext(spec, len(states))
        drive(ex, [ex._run_shard(stmt, st, ctx) for st in states], states)
    return launch


launch_stepped = launch_in_memory(drive_stepped)
launch_threaded = launch_in_memory(drive_threaded)


# ---------------------------------------------------------------------------
# Funnel: fork one child per shard, collect what each ships back
# ---------------------------------------------------------------------------

def child_payload(state, flight_base: int, error, extras) -> dict:
    """What a shard child ships back to the parent over its pipe."""
    return {
        "scalars": state.scalars,
        "counters": {name: getattr(state, name) for name in state.COUNTERS},
        "capture_points": state.capture_points,
        "window_passes": state.window_passes,
        "plan_s": state.plan_s,
        "flight": (state.flight.export_since(flight_base)
                   if state.flight.enabled else None),
        "flight_anchor": flight_anchor() if state.flight.enabled else None,
        "error": error,
        "extras": extras,
    }


def apply_payload(ex, st, payload: dict, parent_anchor) -> None:
    """Restore one shard's state from its child's payload and funnel its
    flight records into the parent."""
    st.scalars = payload["scalars"]
    for name, value in payload["counters"].items():
        setattr(st, name, value)
    st.capture_points = payload["capture_points"]
    st.window_passes = payload["window_passes"]
    st.plan_s = payload["plan_s"]
    if ex.flight is not None and payload["flight"] is not None:
        # The wall-clock anchors repair a child perf_counter base that
        # differs from the parent's.
        ex.flight.ring(st.shard).ingest(
            payload["flight"],
            anchor_delta_s(parent_anchor, payload["flight_anchor"]))


def _child_main(ex, state, body, noun: str, cancel, conn) -> None:
    """Child-process entry point: run ``body``, ship the payload back."""
    # The forked copy of the shard's flight ring is process-private from
    # here on; only this run's records ship back.
    flight_base = state.flight.count if state.flight.enabled else 0
    # Instances were materialized pre-fork; a lazily created one here
    # would be process-private and silently wrong, so fail loudly instead.
    ex._dist_frozen = True
    error: BaseException | None = None
    extras = None
    try:
        error, extras = body(state, cancel)
    except BaseException as exc:  # the body's own set-up failed
        error = exc
        cancel.set()
    payload = child_payload(state, flight_base, error, extras)
    try:
        conn.send(payload)
    except Exception:
        # The error (or a scalar) didn't pickle; degrade to its repr so the
        # parent still learns what happened.
        payload["error"] = RuntimeError(
            f"{noun} {state.shard} failed with unpicklable state: {error!r}")
        payload["scalars"] = {}
        try:
            conn.send(payload)
        except Exception:  # pragma: no cover - pipe gone; parent sees EOF
            pass
    finally:
        conn.close()


def fork_and_funnel(ex, states: list, body: Callable, *, noun: str = "shard",
                    on_forked: Callable | None = None,
                    on_extras: Callable | None = None) -> None:
    """Fork one child per shard state, run ``body(state, cancel) ->
    (error, extras)`` in each, and funnel the results back.

    ``states`` are updated in place from the child payloads so the
    caller's scalar and counter merges run unchanged; ``on_extras(shard,
    extras)`` receives whatever else a body returned.  ``on_forked()``
    runs in the parent once every child has started (the ``net`` driver
    drops its copies of the listening sockets there).  Requires ``fork``:
    children inherit the compiled IR, the task closures, the evaluated
    pair sets and the executor without pickling any of it.
    """
    mpctx = fork_context()
    cancel = mpctx.Event()
    parent_anchor = flight_anchor()
    procs: list = []
    conns: list = []
    errors: list[BaseException] = []
    try:
        for st in states:
            parent_conn, child_conn = mpctx.Pipe(duplex=False)
            p = mpctx.Process(target=_child_main,
                              args=(ex, st, body, noun, cancel, child_conn),
                              name=f"repro-{noun}-{st.shard}", daemon=True)
            p.start()
            child_conn.close()
            procs.append(p)
            conns.append(parent_conn)
        if on_forked is not None:
            on_forked()

        # Collect in arrival order, over the pipes and the process
        # sentinels: a child that exits without having reported cancels
        # the others the moment it dies, whichever shard it is.  A child
        # that deadlocks raises DeadlockError itself after
        # ex.deadlock_timeout; the parent deadline is the backstop for one
        # that neither reports nor exits.
        deadline = time.monotonic() + ex.deadlock_timeout + 30.0
        payloads: dict[int, dict] = {}
        owed = dict(enumerate(conns))
        while owed and (remaining := deadline - time.monotonic()) > 0:
            wait_any([*owed.values(), *(procs[x].sentinel for x in owed)],
                     remaining)
            for x, conn in list(owed.items()):
                exited = not procs[x].is_alive()  # read before the pipe
                try:
                    if conn.poll(0):
                        payloads[x] = conn.recv()
                    elif not exited:
                        continue
                except (EOFError, OSError):
                    pass
                del owed[x]
                if x not in payloads:
                    cancel.set()
        if owed:
            cancel.set()

        for x, st in enumerate(states):
            payload = payloads.get(x)
            if payload is None:
                procs[x].join(timeout=1.0)
                code = procs[x].exitcode
                errors.append(DeadlockError(
                    f"{noun} {x} did not report within the deadlock window")
                    if code is None else RuntimeError(
                        f"{noun} {x} process died without reporting "
                        f"(exit code {code})"))
                continue
            if payload["error"] is not None:
                errors.append(payload["error"])
            apply_payload(ex, st, payload, parent_anchor)
            if on_extras is not None and payload["extras"] is not None:
                on_extras(x, payload["extras"])
    finally:
        for conn in conns:
            conn.close()
        for p in procs:
            p.join(timeout=5.0)
            if p.is_alive():  # pragma: no cover - hard-hung child
                p.terminate()
                p.join(timeout=5.0)
    raise_shard_errors(errors)
