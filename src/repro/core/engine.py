"""Pluggable execution engines for ``DDR_ReorganizeData``.

All engines replay the same :class:`~repro.core.schedule.ExchangeSchedule`
IR and are bit-identical on the wire's *contents* (property-tested); they
differ only in how a round's lanes hit the network:

``AlltoallwEngine``
    One ``MPI_Alltoallw`` per round (paper §III-C) — the O(P) dense
    collective, with the self-transfer carried on the diagonal lane.
    Strict about memory: an over-budget round raises the typed
    ``MemoryBudgetError`` before any message is posted.
``P2PEngine``
    The paper's §V future work: only actual partners communicate.  A round
    lowers once (cached) into steps of ``(recv pieces, send pieces)``; per
    step it posts every ``Irecv``, then every ``Isend`` (rendezvous on the
    zero-copy transport), then waits on all of them.  Without a budget, or
    on a zero-copy round, that is one step holding every lane.  On a staged
    transport under a budget the lanes are cut into budget-sized pieces and
    the peers taken a window at a time (arXiv 2112.01075's
    memory-for-handshakes trade, as a parameter of the one lowering).
``AutoEngine``
    Per-round choice between the two (:func:`~repro.core.schedule.
    auto_backend`): the collective for dense rounds whose staging fits the
    budget, direct sends otherwise.  Every input is a global plan statistic
    or the static budget, so all ranks pick alike without communicating.

Each round reports the protocol it ran, and that is what the ``ddr.round``
span records.

The base class owns everything the engines share: staleness/communicator
validation, buffer normalisation and cached validation, transport
resolution, the per-round send-buffer selection, and the reliability loop:
every round runs through a retry harness that consults the installed fault
layer at round *entry* (before any message is posted, so a local retry
never desynchronises collective matching), backs off per the
:class:`~repro.faults.ReliabilityPolicy`, and records completed rounds in
an :class:`ExchangeProgress` so a failed exchange can be resumed without
re-running finished rounds.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from ..faults.injector import FAULTS
from ..faults.policy import ReliabilityPolicy
from ..mpisim.comm import TRANSPORT_PACKED, Communicator
from ..mpisim.errors import (
    MemoryBudgetError,
    RetriesExhaustedError,
    TransientFaultError,
)
from ..mpisim.request import wait_all
from ..obs.tracer import TRACER
from ..utils.membudget import MEMORY_BUDGET
from .mapping import LocalMapping
from .packing import check_buffers_cached
from .schedule import PIECE_INFLIGHT, RoundSchedule, Step, auto_backend, chunk_bytes_for

#: Environment override for the default backend (e.g. ``DDR_BACKEND=auto``).
ENV_BACKEND = "DDR_BACKEND"

Buffers = Union[np.ndarray, Sequence[np.ndarray], None]


@dataclass
class ExchangeProgress:
    """Resumable record of one exchange: which rounds finished, what retried.

    ``execute`` returns one of these; passing it back in after a failure
    resumes the exchange, skipping every round already in ``completed``.
    Skipping is safe because a round is recorded only after *this rank*
    finished all its sends and receives for the round, and round faults are
    injected strictly at round entry — a recorded round left no partner
    half-served.
    """

    #: Round indices this rank has fully completed.
    completed: set[int] = field(default_factory=set)
    #: round index -> number of entry retries it took to get through.
    retries: dict[int, int] = field(default_factory=dict)
    #: Tag epoch this exchange's direct-round messages are stamped with.
    #: Assigned on the first ``execute`` call and *reused* on resume, so
    #: messages already in flight from the failed attempt still match.
    tag_epoch: Optional[int] = None

    @property
    def total_retries(self) -> int:
        return sum(self.retries.values())

    def record_retry(self, round_index: int) -> None:
        self.retries[round_index] = self.retries.get(round_index, 0) + 1


def normalise_own(data_own: Buffers) -> list[np.ndarray]:
    """Accept one array, a sequence, or ``None`` for the owned-chunk buffers."""
    if data_own is None:
        return []
    if isinstance(data_own, np.ndarray):
        return [data_own]
    return list(data_own)


class ExchangeEngine:
    """Base class: shared validation/staging; subclasses run one round."""

    name: str = "abstract"

    def execute(
        self,
        comm: Communicator,
        mapping: LocalMapping,
        data_own: Buffers,
        data_need: Optional[np.ndarray],
        transport: Optional[str] = None,
        reliability: Optional[ReliabilityPolicy] = None,
        progress: Optional[ExchangeProgress] = None,
    ) -> ExchangeProgress:
        """Redistribute: fill ``data_need`` from everyone's ``data_own``.

        Collective over ``comm`` — every rank must call with the same
        engine and transport.  Repeat calls with the same arrays skip
        buffer revalidation (the mapping caches the accepted set) and, on
        the zero-copy transport, allocate no staging arrays at all.

        ``reliability`` configures the round retry harness (defaults to the
        installed fault layer's policy, else ``ReliabilityPolicy()``).
        ``progress`` resumes a previously failed exchange: rounds already
        in ``progress.completed`` are skipped.  The (possibly fresh)
        progress record is returned, fully populated on success.
        """
        mapping.check_usable(comm)
        own, need = check_buffers_cached(
            mapping.plan,
            mapping.dtype,
            normalise_own(data_own),
            data_need,
            mapping.components,
            mapping.buffer_cache,
        )
        # "Direct" here means: the self-lane may copy straight between the
        # user's buffers, and P2P sends request rendezvous.  True for both
        # zerocopy and shm (the self lane never leaves the process either
        # way); a rendezvous request under shm simply degrades to an shm-
        # staged eager send inside ``Isend``.
        zero_copy = comm.resolve_transport(transport) != TRANSPORT_PACKED
        policy = reliability if reliability is not None else FAULTS.policy
        if progress is None:
            progress = ExchangeProgress()
        if progress.tag_epoch is None:
            progress.tag_epoch = mapping.next_tag_epoch()
        nrounds = max(1, len(mapping.rounds))
        rank = comm.world_rank_of(comm.rank)
        if not TRACER.enabled:
            for rnd in mapping.rounds:
                if rnd.index in progress.completed:
                    continue
                sendbuf: Optional[np.ndarray] = None
                if rnd.chunk_index is not None:
                    sendbuf = own[rnd.chunk_index]
                self._run_round_reliable(
                    comm, rnd, sendbuf, need, transport, zero_copy,
                    rank, policy, progress,
                    progress.tag_epoch * nrounds + rnd.index,
                )
            return progress
        # Traced path: one span per exchange, one per round.  The round span
        # carries the wire protocol the round reports it ran (AutoEngine's
        # per-round decision becomes visible here), lane count, and bytes.
        with TRACER.span(
            "ddr.exchange",
            rank=rank,
            backend=self.name,
            rounds=len(mapping.rounds),
            transport=comm.resolve_transport(transport),
            resumed=len(progress.completed),
        ):
            for rnd in mapping.rounds:
                if rnd.index in progress.completed:
                    continue
                traced_sendbuf: Optional[np.ndarray] = None
                if rnd.chunk_index is not None:
                    traced_sendbuf = own[rnd.chunk_index]
                with TRACER.span(
                    "ddr.round",
                    rank=rank,
                    round=rnd.index,
                    lanes=len(rnd.sends) + len(rnd.recvs),
                    nbytes=rnd.bytes_out,
                    bytes_in=rnd.bytes_in,
                    max_partners=rnd.max_partners,
                ) as span:
                    span.set(backend=self._run_round_reliable(
                        comm, rnd, traced_sendbuf, need, transport, zero_copy,
                        rank, policy, progress,
                        progress.tag_epoch * nrounds + rnd.index,
                    ))
        return progress

    def _run_round_reliable(
        self,
        comm: Communicator,
        rnd: RoundSchedule,
        sendbuf: Optional[np.ndarray],
        need: Optional[np.ndarray],
        transport: Optional[str],
        zero_copy: bool,
        rank: int,
        policy: ReliabilityPolicy,
        progress: ExchangeProgress,
        tag: int,
    ) -> str:
        """One round through the retry harness; records completion and
        returns the protocol the round ran.

        Round-entry faults (:class:`TransientFaultError` from the fault
        layer's ``on_round_start`` hook) fire before any message of the
        round is posted, so retrying here is purely local: peers never see
        a half-executed attempt and collective matching stays aligned.
        Failures *inside* a round (timeouts, corruption, crashes) are not
        collectively safe to retry and propagate unchanged.
        """
        attempt = 0
        while True:
            try:
                if FAULTS.active:
                    FAULTS.on_round_start(rank, rnd.index, attempt)
                backend = self.run_round(
                    comm, rnd, sendbuf, need, transport, zero_copy, tag
                )
            except TransientFaultError as exc:
                attempt += 1
                if attempt > policy.max_retries:
                    raise RetriesExhaustedError(
                        f"rank {rank} round {rnd.index}: still failing after "
                        f"{policy.max_retries} retries: {exc}"
                    ) from exc
                progress.record_retry(rnd.index)
                backoff = policy.backoff_s(attempt)
                if TRACER.enabled:
                    with TRACER.span(
                        "fault.round_retry",
                        rank=rank, round=rnd.index,
                        attempt=attempt, backoff_s=backoff,
                    ):
                        time.sleep(backoff)
                else:
                    time.sleep(backoff)
            else:
                progress.completed.add(rnd.index)
                return backend

    def run_round(
        self,
        comm: Communicator,
        rnd: RoundSchedule,
        sendbuf: Optional[np.ndarray],
        need: Optional[np.ndarray],
        transport: Optional[str],
        zero_copy: bool,
        tag: int,
    ) -> str:
        """Run one round; return the protocol it ran (``alltoallw``/``p2p``)."""
        raise NotImplementedError


class AlltoallwEngine(ExchangeEngine):
    """Dense collective backend: one ``Alltoallw`` per round (paper §III-C)."""

    name = "alltoallw"

    def run_round(self, comm, rnd, sendbuf, need, transport, zero_copy, tag) -> str:
        limit = MEMORY_BUDGET.limit_bytes
        if limit is not None and (estimate := rnd.staging_estimate(zero_copy)) > limit:
            raise MemoryBudgetError(
                f"round {rnd.index}: estimated staging peak {estimate} bytes "
                f"exceeds the {limit}-byte DDR_MEM_BUDGET_MB budget; run the "
                "'p2p' (or 'auto') backend to lower the round into "
                "budget-sized pieces"
            )
        comm.Alltoallw(sendbuf, rnd.sendtypes(), need, rnd.recvtypes(), transport=transport)
        return self.name


class P2PEngine(ExchangeEngine):
    """Direct-send backend (paper §V): only actual partners communicate.

    On a staged transport under a budget the round runs in pieces of
    :func:`~repro.core.schedule.chunk_bytes_for` of the static limit, as
    many peers per step as ``PIECE_INFLIGHT`` pieces each fit the limit, so
    all ranks lower identically with no negotiation.
    """

    name = "p2p"

    def run_round(self, comm, rnd, sendbuf, need, transport, zero_copy, tag) -> str:
        piece_bytes = peer_window = None
        limit = MEMORY_BUDGET.limit_bytes
        if limit is not None and not zero_copy:
            piece_bytes = chunk_bytes_for(limit)
            peer_window = max(1, limit // (PIECE_INFLIGHT * piece_bytes))
        self._self_copy(rnd, sendbuf, need, zero_copy, piece_bytes)
        steps = rnd.lower(comm.rank, piece_bytes, peer_window)
        if len(steps) > 1 and TRACER.enabled:
            with TRACER.span(
                "ddr.lowering",
                round=rnd.index,
                chunk_bytes=piece_bytes,
                peer_window=peer_window,
                steps=len(steps),
                nbytes=rnd.bytes_out,
                bytes_in=rnd.bytes_in,
                peak_estimate=rnd.lowered_peak_bytes(
                    piece_bytes, peer_window=peer_window
                ),
            ):
                self._run_steps(comm, steps, sendbuf, need, zero_copy, tag)
        else:
            self._run_steps(comm, steps, sendbuf, need, zero_copy, tag)
        return self.name

    @staticmethod
    def _self_copy(
        rnd: RoundSchedule,
        sendbuf: Optional[np.ndarray],
        need: Optional[np.ndarray],
        zero_copy: bool,
        piece_bytes: Optional[int],
    ) -> None:
        """The self-transfer, without touching the mailbox: a direct copy on
        zero-copy transports, else pack/unpack one piece at a time."""
        send, recv = rnd.self_send, rnd.self_recv
        send_pieces = rnd.lane_pieces(send, piece_bytes)
        if not send_pieces:
            return
        assert sendbuf is not None and need is not None
        assert send is not None and recv is not None and recv.datatype is not None
        if zero_copy and not np.may_share_memory(sendbuf, need):
            send.datatype.copy_into(sendbuf, need, recv.datatype)
            return
        for send_type, recv_type in zip(send_pieces, rnd.lane_pieces(recv, piece_bytes)):
            recv_type.unpack(need, send_type.pack(sendbuf))

    @staticmethod
    def _run_steps(
        comm: Communicator,
        steps: list[Step],
        sendbuf: Optional[np.ndarray],
        need: Optional[np.ndarray],
        zero_copy: bool,
        tag: int,
    ) -> None:
        # Every receive of a step is posted before any send: a (source,
        # round) pair carries one lane and the tag is unique per (exchange
        # epoch, round), so matching is exact across repeated exchanges
        # through the same mapping — a message lost from one exchange can
        # never be satisfied by the next one's — and no rank blocks on
        # arrival order.
        for recvs, sends in steps:
            recv_requests = [
                comm.Irecv(need, peer, tag=tag, datatype=datatype)
                for peer, datatype in recvs
            ]
            send_requests = [
                comm.Isend(
                    sendbuf, peer, tag=tag, datatype=datatype, rendezvous=zero_copy
                )
                for peer, datatype in sends
            ]
            wait_all(recv_requests)
            # Rendezvous sends hold the buffer live until the peer has
            # copied; the step boundary is where that must be settled.
            wait_all(send_requests)


class AutoEngine(ExchangeEngine):
    """Plan-driven per-round selection between the two engines above.

    The decision (:func:`~repro.core.schedule.auto_backend`) keys on
    ``rnd.max_partners`` — the busiest rank's partner count for the round,
    computed from the global plan at setup time — and on whether the
    round's staging estimate fits the installed budget, so all ranks agree
    on each round's wire protocol with no negotiation.
    """

    name = "auto"

    def run_round(self, comm, rnd, sendbuf, need, transport, zero_copy, tag) -> str:
        choice = auto_backend(rnd, zero_copy, MEMORY_BUDGET.limit_bytes)
        return ENGINES[choice].run_round(
            comm, rnd, sendbuf, need, transport, zero_copy, tag
        )


ENGINES: dict[str, ExchangeEngine] = {
    engine.name: engine
    for engine in (AlltoallwEngine(), P2PEngine(), AutoEngine())
}


def get_engine(name: str) -> ExchangeEngine:
    try:
        return ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; choose one of {sorted(ENGINES)}"
        ) from None


def default_backend() -> str:
    """The process-wide default engine: ``DDR_BACKEND`` env var, else alltoallw."""
    value = os.environ.get(ENV_BACKEND)
    if value is None:
        return "alltoallw"
    if value not in ENGINES:
        raise ValueError(
            f"{ENV_BACKEND}={value!r} is not a backend; choose one of {sorted(ENGINES)}"
        )
    return value
