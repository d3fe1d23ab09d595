"""An in-process MPI runtime: ranks are threads, messages are NumPy copies
— or, on the zero-copy transport, direct shared-memory copies.

Why this exists: the paper's DDR library drives ``MPI_Alltoallw`` with
subarray datatypes across a real cluster.  This environment has no MPI, so
we execute the *identical algorithm* on a thread-backed SPMD runtime with
matched-queue point-to-point semantics and the collectives DDR and the two
use cases need.  By default, message payloads are copied at send time
(eager/buffered semantics), so the usual MPI correctness discipline — no
buffer reuse races, ordered matching per (source, tag) — is preserved and
testable.

Because every rank is a thread of one process, the operations DDR's hot
path uses (``Alltoallw``, ``Sendrecv``, rendezvous ``Isend``) also support
a *zero-copy transport*: the sender posts a live reference to its buffer
and the receiver copies straight from the sender's datatype view into its
own — one ``np.copyto`` per lane instead of pack + payload + unpack.  A
per-message completion event keeps the sender inside the operation until
every receiver has drained its lane, so the sender's buffer is provably
stable for the duration of the exchange.  Select transports globally with
:func:`set_transport` / the ``DDR_TRANSPORT`` environment variable, or per
scope with the :func:`transport` context manager; the packed path remains
fully supported for debugging and as the benchmark baseline.

The send/recv/collective paths consult the process-wide fault layer
(:data:`repro.faults.injector.FAULTS`) behind a single attribute check, so
a seeded :class:`~repro.faults.FaultPlan` can delay, drop, corrupt, or
transiently fail traffic deterministically — and the recovery machinery
(checksum verify-and-reretrieve, retry with exponential backoff,
per-operation deadlines) turns those faults into healed operations or
prompt typed errors.  With no plan installed the cost is one attribute
load per operation.

Timing of the paper's *experiments* is handled separately by
``repro.netmodel``; this module is about moving real bytes correctly.
"""

from __future__ import annotations

import copy as _copy
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterator, Optional, Sequence

import numpy as np

from ..faults.injector import FAULTS
from ..obs.metrics import METRICS
from ..obs.tracer import TRACER
from ..utils.membudget import MEMORY_BUDGET
from .datatypes import Datatype, named_type_for
from .errors import (
    AbortError,
    CommunicatorError,
    DeadlineError,
    ProcessFailedError,
    RankCrashError,
    RevokedError,
    TruncationError,
)
from .request import CompletedRequest, DeferredRequest, Request, Status
from .shm import ShmStagingPool, ShmTicket
from .shm import attach as _shm_attach

ANY_SOURCE = -1
ANY_TAG = -1

#: Default seconds a blocking call may wait before declaring deadlock.  Long
#: enough for slow CI machines, short enough that a hung test fails visibly.
DEFAULT_DEADLOCK_TIMEOUT = 120.0


# ---------------------------------------------------------------------------
# Transport selection
# ---------------------------------------------------------------------------

#: Rendezvous shared-memory transport: one direct copy per lane.  Requires
#: every rank to share one address space (the thread executor).
TRANSPORT_ZEROCOPY = "zerocopy"
#: Eager staged transport: pack -> mailbox payload -> unpack.
TRANSPORT_PACKED = "packed"
#: Staged transport through POSIX shared-memory segments: pack into a
#: shared segment, post a tiny ticket, unpack out of the mapping.  The
#: cross-process analogue of ``packed`` without pickling payload bytes;
#: ``zerocopy`` degrades to this on fabrics that cannot share live buffer
#: references (the process executor).
TRANSPORT_SHM = "shm"

_VALID_TRANSPORTS = (TRANSPORT_ZEROCOPY, TRANSPORT_PACKED, TRANSPORT_SHM)

#: Messages below this many payload bytes skip shm staging: a pickled
#: ndarray through the queue beats a segment round-trip at tiny sizes.
SHM_MIN_BYTES = 512


def _validated_transport(mode: str) -> str:
    mode = mode.strip().lower()
    if mode not in _VALID_TRANSPORTS:
        raise CommunicatorError(
            f"unknown transport {mode!r} (use one of {_VALID_TRANSPORTS})"
        )
    return mode


_default_transport = _validated_transport(
    os.environ.get("DDR_TRANSPORT", TRANSPORT_ZEROCOPY)
)


def set_transport(mode: str) -> None:
    """Set the process-wide default transport (``zerocopy`` or ``packed``)."""
    global _default_transport
    _default_transport = _validated_transport(mode)


def get_transport() -> str:
    return _default_transport


@contextmanager
def transport(mode: str) -> Iterator[None]:
    """Run a block under the given default transport (e.g. to force the
    packed baseline for debugging or benchmarking)."""
    previous = get_transport()
    set_transport(mode)
    try:
        yield
    finally:
        set_transport(previous)


class _ZeroCopyHandle:
    """Rendezvous payload: a live reference to the sender's buffer.

    The receiver copies straight out of ``buffer`` (through ``datatype``'s
    selection when given) and then sets ``done``; the sender stays inside
    the posting operation until ``done`` is set, so the buffer cannot be
    reused or freed while a receiver still reads it.  ``error`` records a
    receiver-side failure for diagnostics; the sender still completes, as
    a real MPI sender would for a receiver-local truncation error.
    """

    __slots__ = ("buffer", "datatype", "done", "error", "dest_world")

    def __init__(
        self,
        buffer: np.ndarray,
        datatype: Optional[Datatype],
        dest_world: Optional[int] = None,
    ) -> None:
        self.buffer = buffer
        self.datatype = datatype
        self.done = threading.Event()
        self.error: Optional[BaseException] = None
        #: World rank of the receiver, so a sender blocked in the rendezvous
        #: can notice (via the liveness table) that its receiver died.
        self.dest_world = dest_world

    def size_elements(self) -> int:
        if self.datatype is not None:
            return self.datatype.size_elements()
        return int(self.buffer.size)

    def itemsize(self) -> int:
        return int(self.buffer.dtype.itemsize)

    def complete(self, error: Optional[BaseException] = None) -> None:
        self.error = error
        self.done.set()


# ---------------------------------------------------------------------------
# Reduction operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """A reduction operator (``MPI_Op``)."""

    name: str
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]


SUM = Op("MPI_SUM", lambda a, b: a + b)
PROD = Op("MPI_PROD", lambda a, b: a * b)
MAX = Op("MPI_MAX", np.maximum)
MIN = Op("MPI_MIN", np.minimum)
LAND = Op("MPI_LAND", np.logical_and)
LOR = Op("MPI_LOR", np.logical_or)
BAND = Op("MPI_BAND", np.bitwise_and)
BOR = Op("MPI_BOR", np.bitwise_or)


# ---------------------------------------------------------------------------
# Fabric: shared mailboxes + abort propagation
# ---------------------------------------------------------------------------


@dataclass
class _Message:
    source: int  # rank within the communicator
    tag: int
    internal: bool
    payload: Any  # ndarray for typed traffic, arbitrary object for lowercase API
    # Set by the fault layer only (see repro.faults.injector): a CRC32 seal
    # over the staged payload, and — for an injected corruption — the
    # sender's retained pristine payload, the verify-and-reretrieve source.
    checksum: Optional[int] = None
    pristine: Any = None
    # Staging-budget charge carried by the message: bytes reserved against
    # ``budget_rank``'s ledger when the payload was staged, released by
    # whoever drains the message (deliver, purge, or error path).
    budget_rank: Optional[int] = None
    budget_bytes: int = 0


class Fabric:
    """Shared state connecting every rank of one SPMD execution."""

    #: Whether rank-to-rank traffic may carry live buffer references (the
    #: zero-copy rendezvous transport).  True here — every rank is a thread
    #: of this process.  The process executor's fabric sets this False and
    #: ``resolve_transport`` degrades ``zerocopy`` to ``shm``.
    supports_zerocopy = True

    def __init__(self, nprocs: int, deadlock_timeout: float = DEFAULT_DEADLOCK_TIMEOUT) -> None:
        if nprocs < 1:
            raise CommunicatorError(f"nprocs must be >= 1, got {nprocs}")
        self.nprocs = nprocs
        self.deadlock_timeout = deadlock_timeout
        self._locks = [threading.Lock() for _ in range(nprocs)]
        self._conds = [threading.Condition(lock) for lock in self._locks]
        self._mailboxes: dict[tuple[Hashable, int], deque[_Message]] = {}
        self._abort_exc: Optional[BaseException] = None
        #: ULFM-style failure state.  ``hazard`` is the single attribute the
        #: hot path checks (the FAULTS/TRACER discipline): it flips to True
        #: the first time a rank dies, retires, or a communicator is
        #: revoked, and never flips back during a run, so the fault-free
        #: cost is one attribute load per operation.
        self.hazard = False
        self._dead: set[int] = set()         # crashed world ranks
        self._retired: set[int] = set()      # ranks that exited cleanly early
        self._gone: frozenset[int] = frozenset()  # dead | retired, for checks
        self._revoked: set[Hashable] = set()  # revoked communicator ids
        self._state_lock = threading.Lock()
        #: Cross-rank blackboard for layers built on top of the fabric (the
        #: resilience package keeps its buddy checkpoint store here), so
        #: higher layers get process-shared state without import cycles.
        self.shared: dict[str, Any] = {}
        self.shared_lock = threading.Lock()
        self._agreements: dict[Hashable, dict[str, Any]] = {}
        self._shm_pool: Optional[ShmStagingPool] = None
        self._shm_lock = threading.Lock()
        #: Segment-name prefix for this fabric's staging pool; the process
        #: executor overrides it with a per-run prefix so the parent can
        #: sweep ``/dev/shm`` for hard-killed ranks' leftovers.
        self.shm_prefix: Optional[str] = None
        #: Segment-name prefix for cross-process blackboard stores (the
        #: shm-backed buddy checkpoint store).  ``None`` on the thread
        #: fabric — there, ``shared`` is already one address space.
        self.blackboard_prefix: Optional[str] = None
        #: Whether the executor that owns this fabric runs in resilient
        #: mode (``run_spmd(..., resilient=True)``): a spawned rank that
        #: raises :class:`RankCrashError` is then marked dead instead of
        #: aborting the run, mirroring the original ranks' contract.
        self.resilient = False
        #: Next unallocated world rank (``Communicator.spawn`` grows from
        #: here) and failures raised by spawned ranks — those have no slot
        #: in the driver's result list, so the executor merges this dict
        #: into its failure report after the join.
        self._next_world = nprocs
        self.spawn_failures: dict[int, BaseException] = {}

    # -- shm staging ---------------------------------------------------------

    def shm_pool(self) -> ShmStagingPool:
        """Lazily-created staging pool for the ``shm`` transport."""
        with self._shm_lock:
            if self._shm_pool is None:
                prefix = self.shm_prefix or f"ddr{os.getpid()}_f{id(self):x}"
                self._shm_pool = ShmStagingPool(prefix)
            return self._shm_pool

    def close_shm(self) -> None:
        """Unlink any shm segments this fabric's pool created."""
        with self._shm_lock:
            pool, self._shm_pool = self._shm_pool, None
        if pool is not None:
            pool.close()

    # -- abort ------------------------------------------------------------

    def abort(self, exc: BaseException) -> None:
        """Record a failure and wake every waiting rank so they raise too."""
        self._abort_exc = exc
        for cond in self._conds:
            with cond:
                cond.notify_all()

    @property
    def aborted(self) -> Optional[BaseException]:
        return self._abort_exc

    def check_abort(self) -> None:
        if self._abort_exc is not None:
            raise AbortError(f"peer rank failed: {self._abort_exc!r}") from self._abort_exc

    # -- liveness + revocation (ULFM-style) --------------------------------

    def _wake_all(self) -> None:
        for cond in self._conds:
            with cond:
                cond.notify_all()

    def mark_dead(self, world_rank: int) -> None:
        """Record a crashed rank in the liveness table and wake every waiter.

        Blocked operations involving the dead rank then raise a prompt
        :class:`ProcessFailedError` instead of waiting out a timeout.
        """
        with self._state_lock:
            self._dead.add(world_rank)
            self._gone = frozenset(self._dead | self._retired)
        self.hazard = True
        self._wake_all()

    def mark_retired(self, world_rank: int) -> None:
        """Record a rank that finished its work and exited early.

        For liveness purposes a retired rank behaves like a dead one — it
        will never contribute to an agreement or send another message —
        but its already-sent messages stay deliverable and diagnostics
        report it as retired, not crashed.
        """
        with self._state_lock:
            self._retired.add(world_rank)
            self._gone = frozenset(self._dead | self._retired)
        self.hazard = True
        self._wake_all()

    def is_dead(self, world_rank: int) -> bool:
        return world_rank in self._dead

    def is_gone(self, world_rank: int) -> bool:
        """Dead or retired: the rank will never take part in another op."""
        return world_rank in self._gone

    def dead_ranks(self) -> frozenset[int]:
        return frozenset(self._dead)

    def gone_ranks(self) -> frozenset[int]:
        return self._gone

    def revoke(self, comm_id: Hashable) -> None:
        """Revoke a communicator: every pending or future operation on it
        (or on a communicator derived from it — lineage is checked) raises
        :class:`RevokedError`.  Idempotent; wakes all waiters."""
        with self._state_lock:
            self._revoked.add(comm_id)
        self.hazard = True
        self._wake_all()

    def is_revoked(self, lineage: Sequence[Hashable]) -> bool:
        revoked = self._revoked
        if not revoked:
            return False
        return not revoked.isdisjoint(lineage)

    def check_hazard(
        self,
        lineage: Sequence[Hashable],
        source_world: Optional[int],
        my_world: int,
    ) -> None:
        """Raise the typed ULFM error for a blocked op, if one applies.

        Callers only invoke this under ``self.hazard``; messages already in
        the mailbox are always drained first, so traffic a rank managed to
        send before dying remains deliverable.
        """
        if self._revoked and not self._revoked.isdisjoint(lineage):
            raise RevokedError(
                f"communicator {lineage[-1]!r} was revoked while rank "
                f"(world {my_world}) had a pending operation"
            )
        if source_world is not None and source_world in self._gone:
            kind = "crashed" if source_world in self._dead else "retired"
            raise ProcessFailedError(
                f"rank (world {my_world}) is waiting on world rank "
                f"{source_world}, which has {kind} and will never respond"
            )

    # -- fault-aware agreement ---------------------------------------------

    def agree_contribute(self, key: Hashable, world_rank: int, value: Any) -> None:
        with self._state_lock:
            entry = self._agreements.setdefault(key, {"values": {}, "reads": set()})
            entry["values"][world_rank] = value
        self._wake_all()

    def agree_poll(self, key: Hashable, members: Sequence[int]) -> Optional[dict[int, Any]]:
        """Return the contribution map once every live member contributed.

        Membership is re-evaluated against the liveness table on every
        poll, so a member dying mid-agreement unblocks the survivors.  The
        map only ever grows and dead ranks never contribute afterwards, so
        every caller that completes folds the same contribution set.
        """
        with self._state_lock:
            entry = self._agreements.setdefault(key, {"values": {}, "reads": set()})
            values = entry["values"]
            gone = self._gone
            if all(w in values for w in members if w not in gone):
                return dict(values)
            return None

    def agree_finish(self, key: Hashable, world_rank: int, members: Sequence[int]) -> None:
        """Garbage-collect an agreement once every live member has read it."""
        with self._state_lock:
            entry = self._agreements.get(key)
            if entry is None:
                return
            entry["reads"].add(world_rank)
            gone = self._gone
            if all(w in entry["reads"] for w in members if w not in gone):
                self._agreements.pop(key, None)

    # -- dynamic world growth (Communicator.spawn) ---------------------------

    def claim_world_slots(self, count: int) -> list[int]:
        """Allocate ``count`` fresh world ranks (called by the spawn root).

        The thread fabric grows in place: new per-rank condition variables
        are appended, so existing world ranks keep their indices and every
        established queue stays valid.  The process executor overrides this
        to hand out pre-provisioned reserve slots instead (forked ranks
        need queues that existed before the fork).
        """
        with self._state_lock:
            start = self._next_world
            for _ in range(count):
                lock = threading.Lock()
                self._locks.append(lock)
                self._conds.append(threading.Condition(lock))
            self.nprocs = len(self._locks)
            self._next_world = start + count
            return list(range(start, start + count))

    def note_world_slots(self, worlds: Sequence[int]) -> None:
        """Record world slots another rank's fabric claimed.

        On the thread fabric every rank shares one object, so this is a
        no-op beyond an idempotent counter bump; under the process executor
        each rank holds its own fabric and uses this to keep the slot
        allocator in lockstep with the spawn root.
        """
        if not worlds:
            return
        top = max(worlds) + 1
        with self._state_lock:
            while len(self._locks) < top:
                lock = threading.Lock()
                self._locks.append(lock)
                self._conds.append(threading.Condition(lock))
            self.nprocs = max(self.nprocs, len(self._locks))
            self._next_world = max(self._next_world, top)

    def launch_rank(
        self,
        world_rank: int,
        comm_id: Hashable,
        world_ranks: Sequence[int],
        rank: int,
        lineage: Sequence[Hashable],
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
    ) -> None:
        """Start a freshly spawned rank running ``fn(comm, *args, **kwargs)``.

        Thread-fabric implementation: a daemon worker thread with the same
        failure contract as ``run_spmd``'s original workers — a clean
        return retires the rank in the liveness table, a
        :class:`RankCrashError` on a resilient fabric marks it dead, and
        anything else aborts the run and is recorded in
        ``spawn_failures`` (spawned ranks have no result-list slot).
        """
        comm = Communicator(self, comm_id, world_ranks, rank, lineage=lineage)

        def main() -> None:
            TRACER.set_thread_rank(world_rank)
            try:
                fn(comm, *args, **kwargs)
            except AbortError:
                pass
            except RankCrashError as exc:
                if self.resilient:
                    self.mark_dead(world_rank)
                else:
                    with self._state_lock:
                        self.spawn_failures[world_rank] = exc
                    self.abort(exc)
            except BaseException as exc:  # noqa: BLE001 - must propagate anything
                with self._state_lock:
                    self.spawn_failures[world_rank] = exc
                self.abort(exc)
            else:
                self.mark_retired(world_rank)

        threading.Thread(
            target=main, name=f"spmd-spawn-{world_rank}", daemon=True
        ).start()

    # -- mailbox operations -------------------------------------------------

    def _box(self, comm_id: Hashable, world_rank: int) -> deque[_Message]:
        key = (comm_id, world_rank)
        box = self._mailboxes.get(key)
        if box is None:
            box = self._mailboxes.setdefault(key, deque())
        return box

    def post(self, comm_id: Hashable, dest_world: int, message: _Message) -> None:
        cond = self._conds[dest_world]
        with cond:
            self._box(comm_id, dest_world).append(message)
            cond.notify_all()

    def try_consume(
        self,
        comm_id: Hashable,
        my_world: int,
        match: Callable[[_Message], bool],
    ) -> Optional[_Message]:
        """Atomically remove and return the first matching message, if any."""
        cond = self._conds[my_world]
        with cond:
            return self._scan(comm_id, my_world, match)

    def _scan(
        self, comm_id: Hashable, my_world: int, match: Callable[[_Message], bool]
    ) -> Optional[_Message]:
        box = self._box(comm_id, my_world)
        for index, message in enumerate(box):
            if match(message):
                del box[index]
                return message
        return None

    def consume(
        self,
        comm_id: Hashable,
        my_world: int,
        match: Callable[[_Message], bool],
        deadline_s: Optional[float] = None,
        source_world: Optional[int] = None,
        lineage: Optional[Sequence[Hashable]] = None,
    ) -> _Message:
        """Blocking matched receive with abort, failure, and deadlock handling.

        ``deadline_s`` (from a :class:`~repro.faults.ReliabilityPolicy`'s
        per-operation deadline) bounds this one receive below the global
        deadlock timeout, so a dropped message surfaces as a prompt, typed
        :class:`DeadlineError` instead of a full watchdog wait.

        ``source_world``/``lineage`` feed the liveness and revocation
        checks: if the awaited source is known dead (and no matching
        message is already queued) or the communicator is revoked, the
        wait ends in a typed error instead of a hang.  Both checks run
        only under :attr:`hazard`, and only after the mailbox scan, so
        messages sent before a crash stay deliverable.
        """
        timeout = self.deadlock_timeout
        per_op = deadline_s is not None and deadline_s < timeout
        if per_op:
            timeout = deadline_s
        cond = self._conds[my_world]
        deadline = time.monotonic() + timeout
        with cond:
            while True:
                self.check_abort()
                found = self._scan(comm_id, my_world, match)
                if found is not None:
                    return found
                if self.hazard:
                    self.check_hazard(
                        lineage if lineage is not None else (comm_id,),
                        source_world,
                        my_world,
                    )
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    if per_op:
                        raise DeadlineError(
                            f"rank (world {my_world}) got no matching message on "
                            f"comm {comm_id!r} within the {timeout}s per-operation "
                            f"deadline; message lost or peer stalled "
                            f"({FAULTS.diagnostics()})"
                        )
                    raise DeadlineError(
                        f"rank (world {my_world}) blocked > {self.deadlock_timeout}s "
                        f"waiting on comm {comm_id!r}; likely deadlock"
                    )
                cond.wait(timeout=min(0.25, remaining))

    def mailbox_depth(
        self,
        world_rank: Optional[int] = None,
        comm_id: Optional[Hashable] = None,
    ) -> int:
        """Number of queued (undelivered) messages, for leak assertions.

        Counts across every mailbox by default; narrow with ``world_rank``
        (one receiver) and/or ``comm_id`` (one communicator).  Each rank's
        boxes are counted under that rank's own condition lock, so the
        total is a consistent per-rank snapshot even while senders post.
        """
        total = 0
        for (box_comm, box_rank), box in list(self._mailboxes.items()):
            if world_rank is not None and box_rank != world_rank:
                continue
            if comm_id is not None and box_comm != comm_id:
                continue
            with self._conds[box_rank]:
                total += len(box)
        return total


# ---------------------------------------------------------------------------
# Communicator
# ---------------------------------------------------------------------------


def _payload_from(buf: np.ndarray, datatype: Optional[Datatype]) -> np.ndarray:
    """Pack a send buffer into a dense 1-D payload copy."""
    arr = np.asarray(buf)
    if datatype is not None:
        return datatype.pack(np.ascontiguousarray(arr))
    if not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)
    if METRICS.transfers_enabled:
        METRICS.count_alloc(arr.nbytes)
        METRICS.count_copy("payload", arr.nbytes)
    return arr.reshape(-1).copy()


def _payload_into(buf: np.ndarray, datatype: Optional[Datatype], payload: np.ndarray) -> int:
    """Unpack a received payload into the user's buffer; returns bytes written."""
    if datatype is not None:
        if datatype.size_elements() != payload.size:
            # Same typed error the rendezvous path raises for a selection
            # mismatch, instead of numpy's broadcast ValueError.
            raise TruncationError(
                f"message of {payload.size} elements does not match receive "
                f"type selecting {datatype.size_elements()}"
            )
        datatype.unpack(buf, payload)
        return payload.size * payload.dtype.itemsize
    arr = np.asarray(buf)
    if not arr.flags["C_CONTIGUOUS"]:
        raise CommunicatorError("Recv into a non-contiguous buffer requires a datatype")
    flat = arr.reshape(-1)
    if payload.size > flat.size:
        raise TruncationError(
            f"message of {payload.size} elements truncated: receive buffer holds {flat.size}"
        )
    flat[: payload.size] = payload.astype(flat.dtype, copy=False)
    if METRICS.transfers_enabled:
        METRICS.count_copy("unpack", payload.size * payload.dtype.itemsize)
    return payload.size * payload.dtype.itemsize


def _receive_rendezvous(
    buf: np.ndarray, datatype: Optional[Datatype], handle: _ZeroCopyHandle
) -> int:
    """Drain a zero-copy lane: copy from the sender's buffer into ``buf``.

    Always completes the handle — on success *and* on failure — so the
    blocked sender is released either way (receiver-local errors stay
    receiver-local, as in MPI).
    """
    try:
        nbytes = _rendezvous_copy(buf, datatype, handle)
    except BaseException as exc:
        handle.complete(exc)
        raise
    handle.complete()
    return nbytes


def _rendezvous_copy(
    buf: np.ndarray, datatype: Optional[Datatype], handle: _ZeroCopyHandle
) -> int:
    count = handle.size_elements()
    if datatype is not None:
        if datatype.size_elements() != count:
            raise TruncationError(
                f"message of {count} elements does not match receive type "
                f"selecting {datatype.size_elements()}"
            )
        src_type = handle.datatype
        if src_type is None:
            src_type = named_type_for(handle.buffer.dtype).Create_contiguous(count)
        return src_type.copy_into(handle.buffer, buf, datatype)
    arr = np.asarray(buf)
    if not arr.flags["C_CONTIGUOUS"]:
        raise CommunicatorError("Recv into a non-contiguous buffer requires a datatype")
    flat = arr.reshape(-1)
    if count > flat.size:
        raise TruncationError(
            f"message of {count} elements truncated: receive buffer holds {flat.size}"
        )
    if handle.datatype is not None:
        src_view = handle.datatype.view(handle.buffer)
        if src_view is None:
            flat[:count] = handle.datatype.pack(handle.buffer)
            if METRICS.transfers_enabled:
                METRICS.count_copy("payload", count * handle.itemsize())
            return count * handle.itemsize()
    else:
        src_view = handle.buffer.reshape(-1)
    np.copyto(flat[:count].reshape(src_view.shape), src_view, casting="unsafe")
    if METRICS.transfers_enabled:
        METRICS.count_copy("direct", count * handle.itemsize())
    return count * handle.itemsize()


def _receive_shm(buf: np.ndarray, datatype: Optional[Datatype], ticket: ShmTicket) -> int:
    """Drain an shm-staged message: unpack out of the mapped segment.

    The drained flag is set in all cases — success and receiver-local
    error alike — so the sender's pool can recycle the segment (the same
    always-release contract the rendezvous path keeps for its sender).
    """
    segment = _shm_attach(ticket.name)
    try:
        return _payload_into(
            buf, datatype, segment.view(np.dtype(ticket.dtype), ticket.count)
        )
    finally:
        segment.mark_drained()


def _release_budget(message: "_Message") -> None:
    """Return a message's staging-budget charge to its sender's ledger.

    Idempotent (the charge is zeroed once released) so deliver-then-error
    paths cannot double-credit, and runs on every drain outcome — success,
    truncation, purge — matching the always-release contract the transport
    keeps for rendezvous handles and shm segments.
    """
    if message.budget_bytes:
        MEMORY_BUDGET.release(message.budget_bytes, rank=message.budget_rank)
        message.budget_bytes = 0


def _receive_payload(buf: np.ndarray, datatype: Optional[Datatype], message: "_Message") -> int:
    """Unified typed receive: staged payloads, shm tickets, and rendezvous."""
    try:
        if isinstance(message.payload, _ZeroCopyHandle):
            return _receive_rendezvous(buf, datatype, message.payload)
        if isinstance(message.payload, ShmTicket):
            return _receive_shm(buf, datatype, message.payload)
        return _payload_into(buf, datatype, message.payload)
    finally:
        _release_budget(message)


def _discard_payload(payload: Any) -> None:
    """Drop a message without delivering it, releasing transport resources.

    The purge counterpart of :func:`_receive_payload`: a rendezvous handle
    must complete (or its sender blocks forever) and an shm ticket must be
    marked drained (or its segment never returns to the pool).  Dense
    payloads just fall to the garbage collector.
    """
    if isinstance(payload, _ZeroCopyHandle):
        payload.complete()
    elif isinstance(payload, ShmTicket):
        _shm_attach(payload.name).mark_drained()


class Communicator:
    """One rank's endpoint of an MPI communicator.

    The uppercase methods move NumPy buffers (optionally through a derived
    :class:`~repro.mpisim.datatypes.Datatype`); the lowercase methods move
    arbitrary Python objects, mirroring mpi4py's convention.
    """

    def __init__(
        self,
        fabric: Fabric,
        comm_id: Hashable,
        world_ranks: Sequence[int],
        rank: int,
        lineage: Optional[Sequence[Hashable]] = None,
    ) -> None:
        self.fabric = fabric
        self.comm_id = comm_id
        self._world_ranks = tuple(world_ranks)
        self._rank = rank
        self._coll_seq = 0
        #: This communicator's id plus every ancestor it was derived from
        #: (Split/Dup chain).  Revoking an ancestor revokes every descendant;
        #: ``shrink`` starts a fresh lineage so survivors can rebuild on a
        #: clean communicator even though the parent is revoked.
        self._lineage: tuple[Hashable, ...] = (
            tuple(lineage) + (comm_id,) if lineage is not None else (comm_id,)
        )
        # agree/shrink keep their own sequence counters: after a crash the
        # survivors' collective counters may have diverged, but recovery
        # protocols call agree/shrink in lockstep.
        self._agree_seq = 0
        self._shrink_seq = 0
        #: Per-endpoint transport override; ``None`` follows the process-wide
        #: default.  Endpoints are per-rank objects, so this is thread-safe.
        self.transport: Optional[str] = None

    def resolve_transport(self, override: Optional[str] = None) -> str:
        """Effective transport: ``override`` > ``self.transport`` > process default.

        On a fabric that cannot share live buffer references (the process
        executor), ``zerocopy`` degrades to ``shm`` — the schedule IR and
        every call site stay transport-agnostic; only the lane mechanics
        change underneath them.
        """
        if override is not None:
            mode = _validated_transport(override)
        elif self.transport is not None:
            mode = _validated_transport(self.transport)
        else:
            mode = _default_transport
        if mode == TRANSPORT_ZEROCOPY and not self.fabric.supports_zerocopy:
            return TRANSPORT_SHM
        return mode

    # -- introspection ------------------------------------------------------

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return len(self._world_ranks)

    def Get_rank(self) -> int:
        return self._rank

    def Get_size(self) -> int:
        return self.size

    def world_rank_of(self, rank: int) -> int:
        return self._world_ranks[rank]

    @property
    def world_ranks(self) -> tuple[int, ...]:
        """World ranks of every member, in communicator rank order."""
        return self._world_ranks

    def _check_rank(self, rank: int, what: str) -> None:
        if not (0 <= rank < self.size):
            raise CommunicatorError(f"{what} {rank} out of range for size {self.size}")

    # -- ULFM-style fault tolerance -----------------------------------------

    @property
    def revoked(self) -> bool:
        return self.fabric.hazard and self.fabric.is_revoked(self._lineage)

    def peer_failed(self, rank: int) -> bool:
        """True if the liveness table says this member crashed or retired."""
        return self.fabric.hazard and self.fabric.is_gone(self._world_ranks[rank])

    def failed_ranks(self) -> tuple[int, ...]:
        """Members (communicator ranks) the liveness table knows are gone."""
        if not self.fabric.hazard:
            return ()
        gone = self.fabric.gone_ranks()
        return tuple(r for r, w in enumerate(self._world_ranks) if w in gone)

    def revoke(self) -> None:
        """Revoke this communicator and every one derived from it.

        All pending and future operations on revoked communicators raise
        :class:`RevokedError`; ``agree`` and ``shrink`` still complete, so
        survivors use ``revoke`` to kick every peer out of whatever
        collective it is blocked in before rebuilding.  Idempotent.
        """
        self.fabric.revoke(self.comm_id)

    def agree(
        self,
        value: Any = True,
        combine: Optional[Callable[[Any, Any], Any]] = None,
    ) -> Any:
        """Fault-tolerant agreement (ULFM ``MPIX_Comm_agree``).

        Completes even on a revoked communicator and even when members
        have crashed: completion requires a contribution from every member
        still live in the executor's liveness table, re-evaluated as
        deaths are recorded.  The result folds *all* contributions present
        (including from ranks that died after contributing) in world-rank
        order with ``combine`` (default: logical AND via ``a and b``), so
        every completing member computes the same value.

        Survivors must call ``agree`` in the same order (its sequence
        counter is independent of the regular collectives, whose counters
        may have diverged at the moment of a crash).
        """
        fab = self.fabric
        self._agree_seq += 1
        key = ("agree", self.comm_id, self._agree_seq)
        my_world = self._world_ranks[self._rank]
        fab.agree_contribute(key, my_world, value)
        if combine is None:
            combine = lambda a, b: a and b  # noqa: E731
        deadline = time.monotonic() + fab.deadlock_timeout
        cond = fab._conds[my_world]
        while True:
            fab.check_abort()
            values = fab.agree_poll(key, self._world_ranks)
            if values is not None:
                break
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise DeadlineError(
                    f"agree on comm {self.comm_id!r} blocked > "
                    f"{fab.deadlock_timeout}s; a member neither contributed "
                    f"nor was declared dead"
                )
            with cond:
                cond.wait(timeout=min(0.25, remaining))
        result: Any = None
        first = True
        for world in sorted(values):
            result = values[world] if first else combine(result, values[world])
            first = False
        fab.agree_finish(key, my_world, self._world_ranks)
        return result

    def shrink(self, dead: Optional[frozenset[int]] = None) -> "Communicator":
        """Build a dense-ranked survivor communicator (ULFM ``MPIX_Comm_shrink``).

        The failed set comes from the executor's liveness table, not
        timeouts: every survivor contributes its view of the dead/retired
        world ranks and the agreed union is excluded.  Pass ``dead`` (an
        agreed set of world ranks) to skip the internal agreement when the
        caller already ran one.  Survivors keep their relative order and
        are renumbered densely from 0.  The new communicator starts a
        fresh lineage, so it works even though its parent is revoked.
        """
        if dead is None:
            observed = frozenset(
                w for w in self._world_ranks if self.fabric.is_gone(w)
            )
            dead = self.agree(observed, combine=lambda a, b: a | b)
        survivors = tuple(w for w in self._world_ranks if w not in dead)
        my_world = self._world_ranks[self._rank]
        if my_world not in survivors:
            raise CommunicatorError(
                f"rank (world {my_world}) is in the agreed failed set and "
                f"cannot join the shrunken communicator"
            )
        self._shrink_seq += 1
        new_id = ("shrink", self.comm_id, self._shrink_seq)
        new_comm = Communicator(
            self.fabric, new_id, survivors, survivors.index(my_world)
        )
        new_comm.transport = self.transport
        return new_comm

    def spawn(self, count: int, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> "Communicator":
        """Grow the world: launch ``count`` new ranks and merge them in.

        The inverse of :meth:`shrink`, and the one-call analogue of
        ``MPI_Comm_spawn`` + ``MPI_Intercomm_merge``: every current member
        calls ``spawn`` collectively with the same ``count``; rank 0 claims
        fresh world slots and launches them running
        ``fn(newcomm, *args, **kwargs)``.  Returns the merged communicator —
        existing members keep their rank order, spawned ranks are appended
        densely after them.  The merged communicator *shares* this one's
        lineage (unlike ``shrink``, which starts a fresh one): revoking the
        parent must still kick spawned ranks out of their collectives, so
        crash recovery keeps working across a grow.

        Under the process executor the new ranks are forked from the spawn
        root and occupy reserve queue slots provisioned at launch
        (``run_spmd(..., spawn_slots=k)`` or ``DDR_SPAWN_SLOTS``); the
        thread executor grows without pre-provisioning.  A spawned rank
        that returns from ``fn`` retires in the liveness table; its return
        value is discarded (spawned ranks have no slot in the driver's
        result list), so workers that produce data should communicate it.
        """
        if count < 1:
            raise CommunicatorError(f"spawn count must be >= 1, got {count}")
        seq = self._next_seq()
        new_worlds = self.bcast(
            self.fabric.claim_world_slots(count) if self._rank == 0 else None,
            root=0,
        )
        self.fabric.note_world_slots(new_worlds)
        new_id = ("spawn", self.comm_id, seq)
        merged = self._world_ranks + tuple(new_worlds)
        if self._rank == 0:
            base = len(self._world_ranks)
            for offset, world in enumerate(new_worlds):
                self.fabric.launch_rank(
                    world, new_id, merged, base + offset, self._lineage, fn, args, kwargs
                )
        new_comm = Communicator(
            self.fabric, new_id, merged, self._rank, lineage=self._lineage
        )
        new_comm.transport = self.transport
        return new_comm

    # -- tracing hooks -------------------------------------------------------
    #
    # Every hook is guarded by a single ``TRACER.enabled`` check before any
    # span attribute is computed (as ``METRICS.transfers_enabled`` guards
    # transfer accounting), so the disabled cost on the hot path is one
    # attribute load per operation.

    def _span(self, name: str, **attrs):
        return TRACER.span(name, rank=self._world_ranks[self._rank], **attrs)

    @staticmethod
    def _nbytes_of(buf: np.ndarray, datatype: Optional[Datatype]) -> int:
        if datatype is not None:
            return datatype.size_elements() * np.asarray(buf).dtype.itemsize
        arr = np.asarray(buf)
        return int(arr.size) * arr.dtype.itemsize

    # -- staging-budget hooks -------------------------------------------------

    def _charge_staging(self, nbytes: int, what: str) -> int:
        """Alloc-fault hook plus predictive budget reserve for one staged
        buffer.

        Runs *before* the allocation, so an over-budget staging surfaces
        as a typed :class:`~repro.mpisim.errors.MemoryBudgetError` rather
        than an ambient ``MemoryError`` mid-pack.  Returns the bytes
        actually reserved (0 when no budget is active) for the message to
        carry to its release site.
        """
        world = self._world_ranks[self._rank]
        if FAULTS.active:
            FAULTS.on_alloc(world, nbytes)
        if MEMORY_BUDGET.active:
            MEMORY_BUDGET.reserve(nbytes, what, rank=world)
            return nbytes
        return 0

    def _staged_message(
        self, tag: int, internal: bool, payload: Any, charged: int
    ) -> _Message:
        """Wrap a staged payload, carrying its budget charge for release."""
        message = _Message(self._rank, tag, internal, payload)
        if charged:
            message.budget_rank = self._world_ranks[self._rank]
            message.budget_bytes = charged
        return message

    # -- point to point -------------------------------------------------------

    def Send(
        self,
        buf: np.ndarray,
        dest: int,
        tag: int = 0,
        datatype: Optional[Datatype] = None,
    ) -> None:
        if TRACER.enabled:
            with self._span(
                "mpi.Send", peer=dest, tag=tag, nbytes=self._nbytes_of(buf, datatype)
            ):
                return self._send(buf, dest, tag, datatype)
        return self._send(buf, dest, tag, datatype)

    def _send(
        self,
        buf: np.ndarray,
        dest: int,
        tag: int,
        datatype: Optional[Datatype],
    ) -> None:
        self._check_rank(dest, "dest")
        if tag < 0:
            raise CommunicatorError(f"user tags must be >= 0, got {tag}")
        if self.resolve_transport() == TRANSPORT_SHM:
            staged = self._stage_shm(buf, datatype)
            if staged is not None:
                ticket, charged = staged
                self._post(dest, self._staged_message(tag, False, ticket, charged))
                return
        nbytes = self._nbytes_of(buf, datatype)
        charged = self._charge_staging(nbytes, "packed payload")
        payload = _payload_from(buf, datatype)
        self._post(dest, self._staged_message(tag, False, payload, charged))

    def _stage_shm(
        self, buf: np.ndarray, datatype: Optional[Datatype]
    ) -> Optional[tuple[ShmTicket, int]]:
        """Pack ``buf`` into a pooled shm segment; ``None`` below threshold
        (tiny messages travel faster as pickled payloads).  Returns the
        ticket plus the bytes charged against the staging budget."""
        arr = np.asarray(buf)
        if datatype is not None:
            count = datatype.size_elements()
        else:
            count = int(arr.size)
        nbytes = count * arr.dtype.itemsize
        if nbytes < SHM_MIN_BYTES:
            return None
        charged = self._charge_staging(nbytes, "shm staging")
        segment = self.fabric.shm_pool().acquire(nbytes)
        view = segment.view(arr.dtype, count)
        if datatype is not None:
            datatype.pack(np.ascontiguousarray(arr), out=view)
        else:
            if not arr.flags["C_CONTIGUOUS"]:
                arr = np.ascontiguousarray(arr)
            view[:] = arr.reshape(-1)
        if METRICS.transfers_enabled:
            METRICS.count_copy("payload", nbytes)
        return ShmTicket(segment.name, arr.dtype.str, count, segment=segment), charged

    def Isend(
        self,
        buf: np.ndarray,
        dest: int,
        tag: int = 0,
        datatype: Optional[Datatype] = None,
        rendezvous: bool = False,
    ) -> Request:
        """Nonblocking send.

        Default is eager buffered semantics: the payload is copied out
        immediately, so the send completes at post time and the buffer may
        be reused right away.  With ``rendezvous=True`` (and the zero-copy
        transport active) the receiver copies directly from ``buf``; the
        buffer must stay untouched until the returned request completes —
        standard MPI nonblocking discipline, now actually load-bearing.
        """
        if TRACER.enabled:
            with self._span(
                "mpi.Isend",
                peer=dest,
                tag=tag,
                rendezvous=rendezvous,
                nbytes=self._nbytes_of(buf, datatype),
            ):
                return self._isend(buf, dest, tag, datatype, rendezvous)
        return self._isend(buf, dest, tag, datatype, rendezvous)

    def _isend(
        self,
        buf: np.ndarray,
        dest: int,
        tag: int,
        datatype: Optional[Datatype],
        rendezvous: bool,
    ) -> Request:
        if rendezvous and self.resolve_transport() == TRANSPORT_ZEROCOPY:
            handle = self._post_rendezvous(buf, dest, tag, datatype, internal=False)
            if handle is not None:
                status = Status(source=self._rank, tag=tag)

                def wait_fn() -> Status:
                    self._await_handles((handle,))
                    return status

                return DeferredRequest(handle.done.is_set, wait_fn)
        self.Send(buf, dest, tag, datatype)
        return CompletedRequest(Status(source=self._rank, tag=tag))

    def Recv(
        self,
        buf: np.ndarray,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        datatype: Optional[Datatype] = None,
        status: Optional[Status] = None,
    ) -> Status:
        if TRACER.enabled:
            with self._span("mpi.Recv", peer=source, tag=tag) as span:
                result = self._recv(buf, source, tag, datatype, status)
                span.set(nbytes=result.count_bytes, source=result.source)
                return result
        return self._recv(buf, source, tag, datatype, status)

    def _recv(
        self,
        buf: np.ndarray,
        source: int,
        tag: int,
        datatype: Optional[Datatype],
        status: Optional[Status],
    ) -> Status:
        message = self._consume(self._match(source, tag, internal=False), source)
        nbytes = _receive_payload(buf, datatype, message)
        result = status or Status()
        result.source, result.tag, result.count_bytes = message.source, message.tag, nbytes
        return result

    def Irecv(
        self,
        buf: np.ndarray,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        datatype: Optional[Datatype] = None,
    ) -> Request:
        stash: dict[str, _Message] = {}
        match = self._match(source, tag, internal=False)

        def test_fn() -> bool:
            if "msg" in stash:
                return True
            found = self.fabric.try_consume(
                self.comm_id, self._world_ranks[self._rank], match
            )
            if found is None:
                return False
            if FAULTS.active:
                FAULTS.on_deliver(found)
            stash["msg"] = found
            return True

        def wait_fn() -> Status:
            message = stash.pop("msg", None)
            if message is None:
                message = self._consume(match, source)
            nbytes = _receive_payload(buf, datatype, message)
            return Status(source=message.source, tag=message.tag, count_bytes=nbytes)

        return DeferredRequest(test_fn, wait_fn)

    def Sendrecv(
        self,
        sendbuf: np.ndarray,
        dest: int,
        recvbuf: np.ndarray,
        source: int,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
        send_datatype: Optional[Datatype] = None,
        recv_datatype: Optional[Datatype] = None,
    ) -> Status:
        if TRACER.enabled:
            with self._span(
                "mpi.Sendrecv",
                peer=dest,
                source=source,
                tag=sendtag,
                nbytes=self._nbytes_of(sendbuf, send_datatype),
            ):
                return self._sendrecv(
                    sendbuf, dest, recvbuf, source, sendtag, recvtag,
                    send_datatype, recv_datatype,
                )
        return self._sendrecv(
            sendbuf, dest, recvbuf, source, sendtag, recvtag,
            send_datatype, recv_datatype,
        )

    def _sendrecv(
        self,
        sendbuf: np.ndarray,
        dest: int,
        recvbuf: np.ndarray,
        source: int,
        sendtag: int,
        recvtag: int,
        send_datatype: Optional[Datatype],
        recv_datatype: Optional[Datatype],
    ) -> Status:
        # Zero-copy rendezvous: post a live buffer reference, satisfy our
        # receive (which drains the partner's handle and releases them),
        # then wait for the partner to drain ours.  Both endpoints make
        # progress before blocking, so symmetric pairs cannot deadlock.
        # Self-exchange stays on the staged path: the user may legally pass
        # overlapping buffers there.
        if dest != self._rank and self.resolve_transport() == TRANSPORT_ZEROCOPY:
            self._check_rank(dest, "dest")
            if sendtag < 0:
                raise CommunicatorError(f"user tags must be >= 0, got {sendtag}")
            handle = self._post_rendezvous(
                sendbuf, dest, sendtag, send_datatype, internal=False
            )
            if handle is not None:
                result = self.Recv(recvbuf, source, recvtag, recv_datatype)
                self._await_handles((handle,))
                return result
        self.Send(sendbuf, dest, sendtag, send_datatype)
        return self.Recv(recvbuf, source, recvtag, recv_datatype)

    def Iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        probe = {"hit": False}
        match = self._match(source, tag, internal=False)

        def peek(message: _Message) -> bool:
            if match(message):
                probe["hit"] = True
            return False  # never consume

        self.fabric.try_consume(self.comm_id, self._world_ranks[self._rank], peek)
        return probe["hit"]

    def purge(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> int:
        """Discard every queued message matching ``(source, tag)``.

        The cleanup path for receives that were posted and then abandoned
        (a timed-out frame under a drop policy): the straggler lands in the
        mailbox under its unique tag and would otherwise sit there forever.
        Transport resources are released — a rendezvous sender is unblocked,
        an shm segment is returned to its pool — and the number of purged
        messages is returned.  Only user-level (non-internal) messages are
        eligible; collective traffic is never purged.
        """
        match = self._match(source, tag, internal=False)
        purged = 0
        while True:
            found = self.fabric.try_consume(
                self.comm_id, self._world_ranks[self._rank], match
            )
            if found is None:
                return purged
            _discard_payload(found.payload)
            _release_budget(found)
            purged += 1

    # lowercase (object) p2p ---------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._check_rank(dest, "dest")
        self._post(dest, _Message(self._rank, tag, False, _safe_copy(obj)))

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        message = self._consume(self._match(source, tag, internal=False), source)
        _release_budget(message)
        payload = message.payload
        if isinstance(payload, _ZeroCopyHandle):
            # A rendezvous (uppercase) send drained by the object API:
            # materialise a private copy and release the sender.
            try:
                if payload.datatype is not None:
                    data = payload.datatype.pack(payload.buffer)
                else:
                    data = payload.buffer.copy()
            except BaseException as exc:
                payload.complete(exc)
                raise
            payload.complete()
            return data
        if isinstance(payload, ShmTicket):
            # An shm-staged (uppercase) send drained by the object API:
            # copy out of the mapping and release the segment.
            segment = _shm_attach(payload.name)
            try:
                return segment.view(np.dtype(payload.dtype), payload.count).copy()
            finally:
                segment.mark_drained()
        return payload

    # -- collectives ------------------------------------------------------------

    def Barrier(self) -> None:
        if TRACER.enabled:
            with self._span("mpi.Barrier"):
                return self._barrier()
        return self._barrier()

    def _barrier(self) -> None:
        seq = self._next_seq()
        token = np.zeros(1, dtype=np.int8)
        if self._rank == 0:
            sink = np.zeros(1, dtype=np.int8)
            for source in range(1, self.size):
                self._coll_recv(sink, source, seq)
            for dest in range(1, self.size):
                self._coll_send(token, dest, seq)
        elif self.size > 1:
            self._coll_send(token, 0, seq)
            self._coll_recv(token, 0, seq)

    def Bcast(self, buf: np.ndarray, root: int = 0) -> None:
        self._check_rank(root, "root")
        seq = self._next_seq()
        if self._rank == root:
            for dest in range(self.size):
                if dest != root:
                    self._coll_send(np.asarray(buf), dest, seq)
        else:
            self._coll_recv(buf, root, seq)

    def bcast(self, obj: Any = None, root: int = 0) -> Any:
        self._check_rank(root, "root")
        seq = self._next_seq()
        if self._rank == root:
            for dest in range(self.size):
                if dest != root:
                    message = _Message(self._rank, self._coll_tag(seq), True, _safe_copy(obj))
                    self._post(dest, message)
            return obj
        message = self._consume(self._match(root, self._coll_tag(seq), internal=True), root)
        return message.payload

    def gather(self, obj: Any, root: int = 0) -> Optional[list[Any]]:
        self._check_rank(root, "root")
        seq = self._next_seq()
        if self._rank == root:
            out: list[Any] = [None] * self.size
            out[root] = _safe_copy(obj)
            for source in range(self.size):
                if source != root:
                    message = self._consume(
                        self._match(source, self._coll_tag(seq), internal=True), source
                    )
                    out[source] = message.payload
            return out
        self._post(root, _Message(self._rank, self._coll_tag(seq), True, _safe_copy(obj)))
        return None

    def scatter(self, objs: Optional[Sequence[Any]] = None, root: int = 0) -> Any:
        self._check_rank(root, "root")
        seq = self._next_seq()
        if self._rank == root:
            if objs is None or len(objs) != self.size:
                raise CommunicatorError("scatter at root requires one object per rank")
            for dest in range(self.size):
                if dest != root:
                    self._post(
                        dest,
                        _Message(self._rank, self._coll_tag(seq), True, _safe_copy(objs[dest])),
                    )
            return _safe_copy(objs[root])
        message = self._consume(self._match(root, self._coll_tag(seq), internal=True), root)
        return message.payload

    def allgather(self, obj: Any) -> list[Any]:
        gathered = self.gather(obj, root=0)
        return self.bcast(gathered, root=0)

    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        if len(objs) != self.size:
            raise CommunicatorError("alltoall requires one object per rank")
        seq = self._next_seq()
        tag = self._coll_tag(seq)
        for dest in range(self.size):
            if dest != self._rank:
                self._post(dest, _Message(self._rank, tag, True, _safe_copy(objs[dest])))
        out: list[Any] = [None] * self.size
        out[self._rank] = _safe_copy(objs[self._rank])
        for source in range(self.size):
            if source != self._rank:
                message = self._consume(self._match(source, tag, internal=True), source)
                out[source] = message.payload
        return out

    def Gather(self, sendbuf: np.ndarray, recvbuf: Optional[np.ndarray], root: int = 0) -> None:
        """Gather equal-size blocks; ``recvbuf`` is (size, *block) at root."""
        self._check_rank(root, "root")
        seq = self._next_seq()
        send = np.ascontiguousarray(sendbuf)
        if self._rank == root:
            if recvbuf is None:
                raise CommunicatorError("root must supply recvbuf")
            out = recvbuf.reshape(self.size, -1)
            out[root] = send.reshape(-1)
            for source in range(self.size):
                if source != root:
                    self._coll_recv(out[source], source, seq)
        else:
            self._coll_send(send, root, seq)

    def Allgather(self, sendbuf: np.ndarray, recvbuf: np.ndarray) -> None:
        self.Gather(sendbuf, recvbuf if self._rank == 0 else None, root=0)
        self.Bcast(recvbuf, root=0)

    def Gatherv(
        self,
        sendbuf: np.ndarray,
        recvbuf: Optional[np.ndarray],
        recvcounts: Optional[Sequence[int]] = None,
        displs: Optional[Sequence[int]] = None,
        root: int = 0,
    ) -> None:
        """Gather variable-size blocks into a flat buffer at ``root``."""
        self._check_rank(root, "root")
        seq = self._next_seq()
        send = np.ascontiguousarray(sendbuf).reshape(-1)
        if self._rank == root:
            if recvbuf is None or recvcounts is None:
                raise CommunicatorError("root must supply recvbuf and recvcounts")
            if len(recvcounts) != self.size:
                raise CommunicatorError("recvcounts must have one entry per rank")
            if displs is None:
                displs = np.cumsum([0] + [int(c) for c in recvcounts[:-1]]).tolist()
            flat = recvbuf.reshape(-1)
            start = int(displs[root])
            count = int(recvcounts[root])
            if send.size != count:
                raise CommunicatorError(
                    f"root sends {send.size} elements but recvcounts[{root}] = {count}"
                )
            flat[start : start + count] = send
            for source in range(self.size):
                if source == root:
                    continue
                start = int(displs[source])
                count = int(recvcounts[source])
                self._coll_recv(flat[start : start + count], source, seq)
        else:
            self._coll_send(send, root, seq)

    def Scatterv(
        self,
        sendbuf: Optional[np.ndarray],
        sendcounts: Optional[Sequence[int]],
        recvbuf: np.ndarray,
        displs: Optional[Sequence[int]] = None,
        root: int = 0,
    ) -> None:
        """Scatter variable-size blocks out of a flat buffer at ``root``."""
        self._check_rank(root, "root")
        seq = self._next_seq()
        recv_flat = recvbuf.reshape(-1)
        if self._rank == root:
            if sendbuf is None or sendcounts is None:
                raise CommunicatorError("root must supply sendbuf and sendcounts")
            if len(sendcounts) != self.size:
                raise CommunicatorError("sendcounts must have one entry per rank")
            if displs is None:
                displs = np.cumsum([0] + [int(c) for c in sendcounts[:-1]]).tolist()
            flat = np.ascontiguousarray(sendbuf).reshape(-1)
            for dest in range(self.size):
                start = int(displs[dest])
                count = int(sendcounts[dest])
                chunk = flat[start : start + count]
                if dest == root:
                    if recv_flat.size < count:
                        raise TruncationError(
                            f"root recvbuf holds {recv_flat.size}, needs {count}"
                        )
                    recv_flat[:count] = chunk
                else:
                    self._coll_send(chunk, dest, seq)
        else:
            message = self._consume(
                self._match(root, self._coll_tag(seq), internal=True), root
            )
            if message.payload.size > recv_flat.size:
                raise TruncationError(
                    f"scatterv lane {root}->{self._rank}: got {message.payload.size}, "
                    f"buffer holds {recv_flat.size}"
                )
            recv_flat[: message.payload.size] = message.payload.astype(
                recv_flat.dtype, copy=False
            )

    def Alltoall(self, sendbuf: np.ndarray, recvbuf: np.ndarray) -> None:
        """Equal-block all-to-all: block ``d`` of sendbuf goes to rank ``d``."""
        send = np.ascontiguousarray(sendbuf).reshape(-1)
        recv = recvbuf.reshape(-1)
        if send.size % self.size or recv.size % self.size:
            raise CommunicatorError(
                f"Alltoall buffers must hold size*k elements "
                f"(got {send.size}/{recv.size} for {self.size} ranks)"
            )
        block = send.size // self.size
        counts = [block] * self.size
        displs = [d * block for d in range(self.size)]
        self.Alltoallv(send, counts, displs, recv, counts, displs)

    def Reduce(
        self,
        sendbuf: np.ndarray,
        recvbuf: Optional[np.ndarray],
        op: Op = SUM,
        root: int = 0,
    ) -> None:
        self._check_rank(root, "root")
        seq = self._next_seq()
        send = np.ascontiguousarray(sendbuf)
        if self._rank == root:
            accum = send.astype(send.dtype, copy=True)
            incoming = np.empty_like(accum)
            for source in range(self.size):
                if source != root:
                    self._coll_recv(incoming, source, seq)
                    accum = op.fn(accum, incoming)
            if recvbuf is None:
                raise CommunicatorError("root must supply recvbuf")
            np.copyto(recvbuf, accum.reshape(recvbuf.shape))
        else:
            self._coll_send(send, root, seq)

    def Allreduce(self, sendbuf: np.ndarray, recvbuf: np.ndarray, op: Op = SUM) -> None:
        self.Reduce(sendbuf, recvbuf, op=op, root=0)
        self.Bcast(recvbuf, root=0)

    def Reduce_scatter_block(
        self, sendbuf: np.ndarray, recvbuf: np.ndarray, op: Op = SUM
    ) -> None:
        """Reduce equal blocks, scatter block ``r`` to rank ``r``.

        ``sendbuf`` holds ``size`` blocks shaped like ``recvbuf``.
        """
        send = np.ascontiguousarray(sendbuf)
        recv_flat = recvbuf.reshape(-1)
        if send.size != recv_flat.size * self.size:
            raise CommunicatorError(
                f"Reduce_scatter_block: sendbuf has {send.size} elements, "
                f"expected {recv_flat.size} x {self.size}"
            )
        total = np.empty(send.size, dtype=send.dtype)
        self.Reduce(send, total if self._rank == 0 else None, op=op, root=0)
        block = recv_flat.size
        counts = [block] * self.size
        self.Scatterv(total if self._rank == 0 else None,
                      counts if self._rank == 0 else None, recvbuf, root=0)

    def Scan(self, sendbuf: np.ndarray, recvbuf: np.ndarray, op: Op = SUM) -> None:
        """Inclusive prefix reduction: rank r receives op(x_0, ..., x_r)."""
        seq = self._next_seq()
        send = np.ascontiguousarray(sendbuf)
        accum = send.astype(send.dtype, copy=True)
        if self._rank > 0:
            incoming = np.empty_like(accum)
            self._coll_recv(incoming, self._rank - 1, seq)
            accum = op.fn(incoming, accum)
        if self._rank + 1 < self.size:
            self._coll_send(accum, self._rank + 1, seq)
        np.copyto(recvbuf, accum.reshape(recvbuf.shape))

    def Exscan(self, sendbuf: np.ndarray, recvbuf: np.ndarray, op: Op = SUM) -> None:
        """Exclusive prefix reduction: rank r receives op(x_0, ..., x_{r-1});
        rank 0's recvbuf is left untouched (as in MPI)."""
        seq = self._next_seq()
        send = np.ascontiguousarray(sendbuf)
        if self._rank == 0:
            if self.size > 1:
                self._coll_send(send, 1, seq)
            return
        prefix = np.empty(send.reshape(-1).shape, dtype=send.dtype)
        self._coll_recv(prefix, self._rank - 1, seq)
        if self._rank + 1 < self.size:
            self._coll_send(op.fn(prefix.reshape(send.shape), send), self._rank + 1, seq)
        np.copyto(recvbuf, prefix.reshape(recvbuf.shape))

    def allreduce(self, value: Any, op: Op = SUM) -> Any:
        gathered = self.allgather(value)
        result = gathered[0]
        for item in gathered[1:]:
            result = op.fn(result, item)
        return result

    def Alltoallw(
        self,
        sendbuf: Optional[np.ndarray],
        sendtypes: Sequence[Optional[Datatype]],
        recvbuf: Optional[np.ndarray],
        recvtypes: Sequence[Optional[Datatype]],
        transport: Optional[str] = None,
    ) -> None:
        """General all-to-all with a per-peer datatype (DDR's workhorse).

        ``sendtypes[d]`` selects, out of ``sendbuf``, the elements destined
        for rank ``d``; ``None`` (or a zero-size type) means nothing moves on
        that lane.  Symmetrically for ``recvtypes``.

        On the zero-copy transport each lane is one direct copy from the
        sender's buffer view into the receiver's; the sender stays in the
        collective until every one of its lanes has been drained, which
        guarantees its buffer is stable for the whole exchange.  Pass
        ``transport="packed"`` to force the staged baseline for this call.
        """
        if TRACER.enabled:
            nbytes = 0
            if sendbuf is not None:
                itemsize = np.asarray(sendbuf).dtype.itemsize
                nbytes = itemsize * sum(
                    t.size_elements() for t in sendtypes if t is not None
                )
            lanes = sum(
                1 for t in sendtypes if t is not None and t.size_elements() > 0
            )
            with self._span(
                "mpi.Alltoallw",
                nbytes=nbytes,
                lanes=lanes,
                transport=self.resolve_transport(transport),
            ):
                return self._alltoallw(sendbuf, sendtypes, recvbuf, recvtypes, transport)
        return self._alltoallw(sendbuf, sendtypes, recvbuf, recvtypes, transport)

    def _alltoallw(
        self,
        sendbuf: Optional[np.ndarray],
        sendtypes: Sequence[Optional[Datatype]],
        recvbuf: Optional[np.ndarray],
        recvtypes: Sequence[Optional[Datatype]],
        transport: Optional[str],
    ) -> None:
        if len(sendtypes) != self.size or len(recvtypes) != self.size:
            raise CommunicatorError("Alltoallw requires one datatype slot per rank")
        mode = self.resolve_transport(transport)
        zero_copy = mode == TRANSPORT_ZEROCOPY
        shm_mode = mode == TRANSPORT_SHM
        seq = self._next_seq()
        tag = self._coll_tag(seq)

        # Self-exchange first: no mailbox round-trip.  The direct path is
        # taken only when the two buffers cannot alias; pack/unpack remains
        # the safe fallback for overlapping self-transfers.  The self lane
        # never leaves this process, so shm mode copies directly too.
        stype = sendtypes[self._rank]
        rtype = recvtypes[self._rank]
        if stype is not None and stype.size_elements() > 0:
            if rtype is None or rtype.size_elements() != stype.size_elements():
                raise CommunicatorError("self send/recv types disagree in Alltoallw")
            assert sendbuf is not None and recvbuf is not None
            if (zero_copy or shm_mode) and not np.may_share_memory(sendbuf, recvbuf):
                stype.copy_into(sendbuf, recvbuf, rtype)
            else:
                rtype.unpack(recvbuf, stype.pack(sendbuf))
        elif rtype is not None and rtype.size_elements() > 0:
            raise CommunicatorError("self send/recv types disagree in Alltoallw")

        handles: list[_ZeroCopyHandle] = []
        for dest in range(self.size):
            if dest == self._rank:
                continue
            datatype = sendtypes[dest]
            if datatype is None or datatype.size_elements() == 0:
                continue
            assert sendbuf is not None
            if zero_copy:
                # Validate geometry sender-side (as pack would) so errors
                # surface on the offending rank, then post the reference.
                datatype.view(sendbuf)
                handle = _ZeroCopyHandle(
                    sendbuf, datatype, dest_world=self._world_ranks[dest]
                )
                handles.append(handle)
                self._post(dest, _Message(self._rank, tag, True, handle))
                continue
            if shm_mode:
                staged = self._stage_shm(sendbuf, datatype)
                if staged is not None:
                    ticket, charged = staged
                    self._post(dest, self._staged_message(tag, True, ticket, charged))
                    continue
            nbytes = datatype.size_elements() * np.asarray(sendbuf).dtype.itemsize
            charged = self._charge_staging(nbytes, "Alltoallw lane")
            self._post(
                dest, self._staged_message(tag, True, datatype.pack(sendbuf), charged)
            )

        for source in range(self.size):
            if source == self._rank:
                continue
            datatype = recvtypes[source]
            if datatype is None or datatype.size_elements() == 0:
                continue
            assert recvbuf is not None
            message = self._consume(self._match(source, tag, internal=True), source)
            payload = message.payload
            try:
                if isinstance(payload, _ZeroCopyHandle):
                    got = payload.size_elements()
                elif isinstance(payload, ShmTicket):
                    got = payload.count
                else:
                    got = int(payload.size)
                if got != datatype.size_elements():
                    complete = getattr(payload, "complete", None)
                    if callable(complete):
                        complete()  # release the sender; the error is ours
                    raise TruncationError(
                        f"Alltoallw lane {source}->{self._rank}: got {got} "
                        f"elements, type expects {datatype.size_elements()}"
                    )
                if isinstance(payload, _ZeroCopyHandle):
                    _receive_rendezvous(recvbuf, datatype, payload)
                elif isinstance(payload, ShmTicket):
                    _receive_shm(recvbuf, datatype, payload)
                else:
                    datatype.unpack(recvbuf, payload)
            finally:
                _release_budget(message)

        if handles:
            self._await_handles(handles)

    def Alltoallv(
        self,
        sendbuf: np.ndarray,
        sendcounts: Sequence[int],
        sdispls: Sequence[int],
        recvbuf: np.ndarray,
        recvcounts: Sequence[int],
        rdispls: Sequence[int],
    ) -> None:
        """Vector all-to-all over flat element counts/displacements."""
        if TRACER.enabled:
            itemsize = np.asarray(sendbuf).dtype.itemsize
            with self._span(
                "mpi.Alltoallv",
                nbytes=itemsize * int(sum(int(c) for c in sendcounts)),
            ):
                return self._alltoallv(
                    sendbuf, sendcounts, sdispls, recvbuf, recvcounts, rdispls
                )
        return self._alltoallv(sendbuf, sendcounts, sdispls, recvbuf, recvcounts, rdispls)

    def _alltoallv(
        self,
        sendbuf: np.ndarray,
        sendcounts: Sequence[int],
        sdispls: Sequence[int],
        recvbuf: np.ndarray,
        recvcounts: Sequence[int],
        rdispls: Sequence[int],
    ) -> None:
        if not (
            len(sendcounts) == len(sdispls) == len(recvcounts) == len(rdispls) == self.size
        ):
            raise CommunicatorError("Alltoallv requires size-length count/displ arrays")
        seq = self._next_seq()
        tag = self._coll_tag(seq)
        sflat = np.ascontiguousarray(sendbuf).reshape(-1)
        rflat = recvbuf.reshape(-1)

        count = int(sendcounts[self._rank])
        if count:
            start_s, start_r = int(sdispls[self._rank]), int(rdispls[self._rank])
            if int(recvcounts[self._rank]) != count:
                raise CommunicatorError("self counts disagree in Alltoallv")
            rflat[start_r : start_r + count] = sflat[start_s : start_s + count]

        for dest in range(self.size):
            if dest == self._rank or not int(sendcounts[dest]):
                continue
            start = int(sdispls[dest])
            chunk = sflat[start : start + int(sendcounts[dest])].copy()
            self._post(dest, _Message(self._rank, tag, True, chunk))
        for source in range(self.size):
            if source == self._rank or not int(recvcounts[source]):
                continue
            message = self._consume(self._match(source, tag, internal=True), source)
            start = int(rdispls[source])
            expect = int(recvcounts[source])
            if message.payload.size != expect:
                raise TruncationError(
                    f"Alltoallv lane {source}->{self._rank}: got {message.payload.size}, "
                    f"expected {expect}"
                )
            rflat[start : start + expect] = message.payload

    # -- communicator management ---------------------------------------------

    def Split(self, color: int, key: int = 0) -> Optional["Communicator"]:
        """Partition by ``color``; rank order within a part follows ``key``.

        Returns ``None`` for ``color < 0`` (``MPI_UNDEFINED``).
        """
        seq = self._next_seq()
        triples = self.allgather((int(color), int(key), self._rank))
        if color < 0:
            return None
        members = sorted(
            (k, r) for c, k, r in triples if c == color
        )
        world_ranks = tuple(self._world_ranks[r] for _, r in members)
        my_index = next(i for i, (_, r) in enumerate(members) if r == self._rank)
        new_id = ("split", self.comm_id, seq, int(color))
        return Communicator(
            self.fabric, new_id, world_ranks, my_index, lineage=self._lineage
        )

    def Dup(self) -> "Communicator":
        seq = self._next_seq()
        new_id = ("dup", self.comm_id, seq)
        return Communicator(
            self.fabric, new_id, self._world_ranks, self._rank, lineage=self._lineage
        )

    # -- internals ---------------------------------------------------------------

    def _next_seq(self) -> int:
        self._coll_seq += 1
        return self._coll_seq

    @staticmethod
    def _coll_tag(seq: int) -> int:
        return seq

    def _post(self, dest: int, message: _Message) -> None:
        self.fabric.check_abort()
        if self.fabric.hazard:
            self.fabric.check_hazard(
                self._lineage, self._world_ranks[dest], self._world_ranks[self._rank]
            )
        if FAULTS.active and not FAULTS.on_send(
            self._world_ranks[self._rank], message
        ):
            # Dropped by the fault plan (rendezvous senders released); a
            # dropped staged payload is gone, so its charge comes back too.
            _release_budget(message)
            return
        self.fabric.post(self.comm_id, self._world_ranks[dest], message)

    def _post_rendezvous(
        self,
        buf: np.ndarray,
        dest: int,
        tag: int,
        datatype: Optional[Datatype],
        internal: bool,
    ) -> Optional[_ZeroCopyHandle]:
        """Post a zero-copy handle; returns ``None`` when ``buf`` cannot be
        shared safely (not contiguous), letting the caller fall back to the
        eager packed path."""
        arr = np.asarray(buf)
        if not arr.flags["C_CONTIGUOUS"]:
            return None
        if datatype is not None:
            # Sender-side geometry/dtype validation, exactly where pack
            # would have raised on the eager path.
            datatype.view(arr)
        handle = _ZeroCopyHandle(arr, datatype, dest_world=self._world_ranks[dest])
        self._post(dest, _Message(self._rank, tag, internal, handle))
        return handle

    def _await_handles(self, handles: Sequence[_ZeroCopyHandle]) -> None:
        """Block until every posted rendezvous lane has been drained.

        Polls with short waits so a peer failure (fabric abort) or a
        deadlock still surfaces instead of hanging forever.
        """
        if TRACER.enabled:
            with self._span("mpi.wait", lanes=len(handles)):
                return self._await_handles_impl(handles)
        return self._await_handles_impl(handles)

    def _await_handles_impl(self, handles: Sequence[_ZeroCopyHandle]) -> None:
        deadline = time.monotonic() + self.fabric.deadlock_timeout
        for handle in handles:
            while not handle.done.wait(timeout=0.05):
                self.fabric.check_abort()
                if self.fabric.hazard:
                    # A dead receiver will never drain this lane; a revoked
                    # communicator means nobody should wait on it at all.
                    self.fabric.check_hazard(
                        self._lineage,
                        handle.dest_world,
                        self._world_ranks[self._rank],
                    )
                if time.monotonic() > deadline:
                    raise DeadlineError(
                        f"rank {self._rank} blocked > {self.fabric.deadlock_timeout}s "
                        f"waiting for a zero-copy lane to drain; likely deadlock"
                    )

    def _consume(
        self, match: Callable[[_Message], bool], source: int = ANY_SOURCE
    ) -> _Message:
        deadline_s = None
        if FAULTS.active:
            deadline_s = FAULTS.on_recv(self._world_ranks[self._rank])
        source_world = None
        if source != ANY_SOURCE:
            source_world = self._world_ranks[source]
        message = self.fabric.consume(
            self.comm_id,
            self._world_ranks[self._rank],
            match,
            deadline_s=deadline_s,
            source_world=source_world,
            lineage=self._lineage,
        )
        if FAULTS.active:
            FAULTS.on_deliver(message)
        return message

    def _coll_send(self, buf: np.ndarray, dest: int, seq: int) -> None:
        payload = np.ascontiguousarray(buf).reshape(-1).copy()
        self._post(dest, _Message(self._rank, self._coll_tag(seq), True, payload))

    def _coll_recv(self, buf: np.ndarray, source: int, seq: int) -> None:
        message = self._consume(
            self._match(source, self._coll_tag(seq), internal=True), source
        )
        flat = np.asarray(buf).reshape(-1)
        if message.payload.size != flat.size:
            raise TruncationError(
                f"collective lane {source}->{self._rank}: got {message.payload.size} "
                f"elements, buffer holds {flat.size}"
            )
        flat[:] = message.payload.astype(flat.dtype, copy=False)

    def _match(self, source: int, tag: int, internal: bool) -> Callable[[_Message], bool]:
        def fn(message: _Message) -> bool:
            if message.internal != internal:
                return False
            if source != ANY_SOURCE and message.source != source:
                return False
            if tag != ANY_TAG and message.tag != tag:
                return False
            return True

        return fn


def _safe_copy(obj: Any) -> Any:
    """Isolate sender and receiver: arrays are copied, objects deep-copied.

    This mimics the serialization barrier of real MPI so tests catch
    accidental shared-state mutation between "processes".
    """
    if isinstance(obj, np.ndarray):
        return obj.copy()
    try:
        return _copy.deepcopy(obj)
    except Exception:
        return obj
