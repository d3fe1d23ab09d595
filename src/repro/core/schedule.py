"""The exchange-schedule IR: one rank's per-round communication lanes.

The planner (:mod:`repro.core.plan`) produces geometric send/recv entries;
the executors need per-peer datatypes and the network models need per-round
byte volumes and sparsity statistics.  Previously each consumer re-derived
its own view by rescanning the plan.  This module builds the shared
intermediate representation exactly once:

``RankPlan`` -> :func:`build_schedule` -> :class:`ExchangeSchedule`
(one :class:`RoundSchedule` per round, each a list of :class:`Lane`\\ s)

and every execution engine (:mod:`repro.core.engine`) and both network cost
models (:mod:`repro.netmodel.analytic`, :mod:`repro.netmodel.desnet`)
consume it identically.  A lane is (peer, byte volume, optional datatype);
schedules built for cost modeling omit the datatypes, so the full-scale
216-rank predictions never materialise subarray types.

The IR also carries the *global* per-round sparsity statistic
(``max_partners``: the busiest rank's partner count that round) that drives
the paper's §V future-work idea, made real by ``AutoEngine``: dense rounds
go through the ``Alltoallw`` collective, sparse rounds through direct
sends.  Because the statistic comes from the deterministic global plan,
every rank derives the same per-round decision without communicating.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..mpisim.datatypes import NamedType, SubarrayType
from .box import Box
from .packing import subarray_for
from .plan import GlobalPlan, RankPlan

#: One lowered step of a direct round: ``(recvs, sends)``, each a list of
#: ``(peer, datatype)`` pieces posted together and waited together.
Step = tuple[list[tuple[int, SubarrayType]], list[tuple[int, SubarrayType]]]

#: A round whose busiest rank talks to at least this fraction of the other
#: ranks is considered dense: the O(P) collective amortises better than
#: per-message handshakes.  Below it, direct sends win (paper §V).
AUTO_DENSITY_THRESHOLD = 0.5

#: Staging transports (packed payload copies / pooled shm segments) whose
#: round peak is modeled as every send payload plus every in-flight recv
#: payload; ``zerocopy`` stages nothing and peaks at the self-copy temp.
STAGED_TRANSPORTS = ("packed", "shm")

#: Pieces resident at once per peer of a lowered step: the eagerly staged
#: outgoing piece, the in-flight incoming piece, and the pack/unpack
#: temporaries on either side of them.
PIECE_INFLIGHT = 4

#: Lower bound on the lowered piece size.  Below this, per-message latency
#: dominates any memory saved, and the piece count per lane stays sane
#: even under absurd budgets.
MIN_CHUNK_BYTES = 64 * 1024


def chunk_bytes_for(limit_bytes: int) -> int:
    """Piece size a budgeted ``p2p`` round lowers with under ``limit_bytes``.

    Targets a lowered peak near half the limit (``PIECE_INFLIGHT`` resident
    pieces, times two for slack against estimate error), floored at
    :data:`MIN_CHUNK_BYTES`.  A pure function of the *static* limit — both
    ends of every lane derive the same piece decomposition from it with no
    communication.
    """
    return max(MIN_CHUNK_BYTES, int(limit_bytes) // (2 * PIECE_INFLIGHT))


def collective_preferred(
    max_partners: int, nprocs: int, threshold: float = AUTO_DENSITY_THRESHOLD
) -> bool:
    """The auto-selection rule: dense rounds -> collective, sparse -> direct.

    ``max_partners`` must be a *global* per-round statistic (identical on
    every rank) so that all ranks agree on the wire protocol for the round.
    """
    if nprocs <= 1:
        return False
    return max_partners >= threshold * (nprocs - 1)


def auto_backend(
    rnd: "RoundSchedule", zero_copy: bool = False, limit_bytes: Optional[int] = None
) -> str:
    """The ``auto`` engine's per-round decision: ``alltoallw`` or ``p2p``.

    Dense rounds take the collective when their staging estimate fits the
    budget; everything else takes the direct engine, which lowers into
    budget-sized pieces when it must.  Every input is a global plan
    statistic or the static limit, so all ranks agree with no negotiation.
    """
    if collective_preferred(rnd.max_partners, rnd.nprocs) and (
        limit_bytes is None or rnd.staging_estimate(zero_copy) <= limit_bytes
    ):
        return "alltoallw"
    return "p2p"


def _piece_regions(region: Box, nbytes: int, piece_bytes: int) -> list[Box]:
    """Split ``region`` into row-slices of at most ``piece_bytes`` along the
    slowest-varying axis (paper order: ``dims[-1]``).

    A pure function of ``(region, piece_bytes)`` — the sender and the
    receiver of a lane hold the same overlap box and the same static budget
    limit, so both derive the identical piece sequence without
    communicating.  A single row larger than ``piece_bytes`` stays one
    piece (the floor of what row-slicing can do).
    """
    rows = region.dims[-1]
    if rows <= 1 or nbytes <= piece_bytes:
        return [region]
    rows_per = max(1, piece_bytes // max(1, nbytes // rows))
    axis = region.ndim - 1
    pieces: list[Box] = []
    for start in range(0, rows, rows_per):
        offset = list(region.offset)
        offset[axis] += start
        dims = list(region.dims)
        dims[axis] = min(rows_per, rows - start)
        pieces.append(Box(tuple(offset), tuple(dims)))
    return pieces


@dataclass(frozen=True)
class Lane:
    """One point-to-point transfer of one round.

    ``datatype`` selects the moved cells out of the owning buffer (send
    lanes: the chunk buffer; recv lanes: the need buffer).  It is ``None``
    for schedules built purely for cost modeling.  ``container``/``region``
    keep the geometry the datatype was built from, so a budgeted round can
    re-slice the lane into budget-sized pieces without replanning.
    """

    peer: int
    nbytes: int
    datatype: Optional[SubarrayType] = None
    container: Optional[Box] = None
    region: Optional[Box] = None


@dataclass
class RoundSchedule:
    """Everything one rank does in one exchange round.

    ``sends``/``recvs`` hold only *remote* lanes, ordered by peer; the
    self-transfer (data a rank keeps across the redistribution) is split
    out because every engine handles it as a local copy, never a message.
    """

    index: int
    chunk_index: Optional[int]  # which owned buffer feeds this round (None: no send)
    nprocs: int
    sends: list[Lane] = field(default_factory=list)
    recvs: list[Lane] = field(default_factory=list)
    self_send: Optional[Lane] = None
    self_recv: Optional[Lane] = None
    #: Busiest rank's partner count this round, across the *whole* plan
    #: (0 when the schedule was built without global context).
    max_partners: int = 0
    #: Busiest rank's estimated staged-transport peak this round, across the
    #: *whole* plan (0 without global context).  Like ``max_partners`` this
    #: is identical on every rank, so budget-driven lowering decisions need
    #: no communication.
    max_round_bytes: int = 0
    #: Geometry context for peak estimates and lowering.
    element_size: int = 1
    components: int = 1
    mpi_type: Optional[NamedType] = field(default=None, repr=False)
    # Dense per-peer tables for the Alltoallw collective, built lazily and
    # cached: the repeated-exchange hot path must not rebuild them per call.
    _sendtypes: Optional[list[Optional[SubarrayType]]] = field(
        default=None, init=False, repr=False
    )
    _recvtypes: Optional[list[Optional[SubarrayType]]] = field(
        default=None, init=False, repr=False
    )
    # Piece datatypes lanes are sliced into, keyed by (container, region,
    # piece_bytes), and the direct engine's lowered steps, keyed by
    # (piece_bytes, peer_window); cached for the same reason as the dense
    # tables — repeated exchanges must not rebuild subarray types.
    _piece_cache: dict = field(default_factory=dict, init=False, repr=False)
    _step_cache: dict = field(default_factory=dict, init=False, repr=False)

    # -- sparsity statistics -------------------------------------------------

    @property
    def partners(self) -> int:
        """Distinct remote ranks this rank exchanges data with this round."""
        return len({lane.peer for lane in self.sends} | {lane.peer for lane in self.recvs})

    @property
    def density(self) -> float:
        """Partner count as a fraction of the possible ``P - 1`` peers."""
        if self.nprocs <= 1:
            return 0.0
        return self.partners / (self.nprocs - 1)

    @property
    def bytes_out(self) -> int:
        """Bytes this rank puts on the network this round (self excluded)."""
        return sum(lane.nbytes for lane in self.sends)

    @property
    def bytes_in(self) -> int:
        return sum(lane.nbytes for lane in self.recvs)

    @property
    def self_bytes(self) -> int:
        return self.self_send.nbytes if self.self_send is not None else 0

    @property
    def message_count(self) -> int:
        """Messages a direct-send engine posts for this round."""
        return len(self.sends)

    # -- peak-memory accounting ----------------------------------------------

    @property
    def largest_lane_bytes(self) -> int:
        """Largest single transfer this round (self-copy included)."""
        largest = max(
            (lane.nbytes for lane in self.sends), default=0
        )
        largest = max(largest, max((lane.nbytes for lane in self.recvs), default=0))
        return max(largest, self.self_bytes)

    def peak_bytes(self, transport: str = "packed") -> int:
        """Estimated per-rank staging high-water mark for this round.

        Staged transports (``packed``, ``shm``) copy every outgoing lane
        into a dense payload and hold every incoming payload until it is
        unpacked, so the worst instant is all sends staged while all recvs
        have arrived unconsumed — plus the self-transfer's packed payload,
        which exists once (posted to and drained from this rank's own
        mailbox).  ``zerocopy`` stages nothing; only the self-copy may
        materialise a pack temporary.  User buffers are never counted:
        the budget governs library staging, not the data itself.
        """
        if transport not in STAGED_TRANSPORTS:
            return self.self_bytes
        return self.bytes_out + self.bytes_in + self.self_bytes

    def staging_estimate(self, zero_copy: bool) -> int:
        """The round's budget-relevant peak: the *global* worst-rank
        statistic when the schedule carries one (so every rank reaches the
        same verdict), else this rank's own estimate (cost-model schedules
        only)."""
        if zero_copy:
            return self.self_bytes
        return self.max_round_bytes or self.peak_bytes()

    def lowered_peak_bytes(
        self, chunk_bytes: int, transport: str = "packed", peer_window: int = 1
    ) -> int:
        """Estimated staging peak when this round runs in pieces of at most
        ``chunk_bytes``, ``peer_window`` peers per step.

        At any lowered step only :data:`PIECE_INFLIGHT` pieces per peer are
        resident, so the peak is capped near ``peer_window *
        PIECE_INFLIGHT * piece`` where ``piece`` cannot exceed the largest
        lane.  Monotone non-decreasing in ``chunk_bytes`` and never above
        the unlowered :meth:`peak_bytes` — shrinking the budget's derived
        chunk can only shrink the footprint.
        """
        full = self.peak_bytes(transport)
        if chunk_bytes <= 0:
            return full
        largest = self.largest_lane_bytes
        if largest == 0:
            return 0
        return min(
            full, peer_window * PIECE_INFLIGHT * min(int(chunk_bytes), largest)
        )

    # -- direct-engine lowering ----------------------------------------------

    def lane_pieces(
        self, lane: Optional[Lane], piece_bytes: Optional[int]
    ) -> list[SubarrayType]:
        """Per-piece datatypes for ``lane``: none for an empty lane, the
        lane's own datatype when ``piece_bytes`` is ``None`` or the lane
        already fits (or lacks the geometry to re-slice), else one cached
        subarray type per row-slice of at most ``piece_bytes``."""
        if lane is None or lane.datatype is None or lane.datatype.size_elements() == 0:
            return []
        if (
            piece_bytes is None
            or lane.region is None
            or lane.container is None
            or self.mpi_type is None
            or lane.nbytes <= piece_bytes
        ):
            return [lane.datatype]
        key = (lane.container, lane.region, piece_bytes)
        cached = self._piece_cache.get(key)
        if cached is None:
            cached = self._piece_cache[key] = [
                subarray_for(lane.container, piece, self.mpi_type, self.components)
                for piece in _piece_regions(lane.region, lane.nbytes, piece_bytes)
            ]
        return cached

    def lower(
        self, rank: int, piece_bytes: Optional[int], peer_window: Optional[int]
    ) -> list[Step]:
        """This rank's remote lanes as a list of steps, cached per
        ``(piece_bytes, peer_window)``.

        With ``peer_window`` set, peers are taken in offset-ring order
        (send to ``rank + offset``, receive from ``rank - offset``),
        ``peer_window`` offsets at a time; ``None`` puts every lane, in
        peer order, in one window.  Each lane is cut into pieces of at most
        ``piece_bytes`` (``None``: one piece), and step ``k`` of a window
        moves piece ``k`` of every lane in it.  Without a budget that is a
        single step holding every lane.

        Both ends of a lane derive the same piece count from the same
        overlap box, and every rank walks windows in the same order, so a
        lane's send and receive fall in the same global step.  With eager
        sends that makes the executor deadlock-free by induction on the
        step order.  Pieces of one lane share the round tag; the mailbox
        is FIFO per (source, tag), so they match in order.
        """
        key = (piece_bytes, peer_window)
        steps = self._step_cache.get(key)
        if steps is not None:
            return steps
        if peer_window is None:
            windows = [(self.recvs, self.sends)]
        else:
            recvs = {lane.peer: lane for lane in self.recvs}
            sends = {lane.peer: lane for lane in self.sends}
            windows = []
            for start in range(1, self.nprocs, peer_window):
                group = range(start, min(start + peer_window, self.nprocs))
                srcs = ((rank - o) % self.nprocs for o in group)
                dests = ((rank + o) % self.nprocs for o in group)
                windows.append((
                    [recvs[src] for src in srcs if src in recvs],
                    [sends[dest] for dest in dests if dest in sends],
                ))
        steps = []
        for recv_lanes, send_lanes in windows:
            recv_pieces = [
                (lane.peer, self.lane_pieces(lane, piece_bytes)) for lane in recv_lanes
            ]
            send_pieces = [
                (lane.peer, self.lane_pieces(lane, piece_bytes)) for lane in send_lanes
            ]
            depth = max((len(p) for _, p in recv_pieces + send_pieces), default=0)
            for k in range(depth):
                steps.append((
                    [(peer, p[k]) for peer, p in recv_pieces if k < len(p)],
                    [(peer, p[k]) for peer, p in send_pieces if k < len(p)],
                ))
        self._step_cache[key] = steps
        return steps

    # -- dense tables for the collective engine ------------------------------

    def sendtypes(self) -> list[Optional[SubarrayType]]:
        """Per-peer send datatype table (slot ``d`` = lane to rank ``d``)."""
        if self._sendtypes is None:
            table: list[Optional[SubarrayType]] = [None] * self.nprocs
            for lane in self.sends:
                table[lane.peer] = lane.datatype
            if self.self_send is not None:
                table[self.self_send.peer] = self.self_send.datatype
            self._sendtypes = table
        return self._sendtypes

    def recvtypes(self) -> list[Optional[SubarrayType]]:
        """Per-peer recv datatype table (slot ``s`` = lane from rank ``s``)."""
        if self._recvtypes is None:
            table: list[Optional[SubarrayType]] = [None] * self.nprocs
            for lane in self.recvs:
                table[lane.peer] = lane.datatype
            if self.self_recv is not None:
                table[self.self_recv.peer] = self.self_recv.datatype
            self._recvtypes = table
        return self._recvtypes


@dataclass
class ExchangeSchedule:
    """One rank's complete, ready-to-execute exchange schedule."""

    rank: int
    nprocs: int
    nrounds: int
    element_size: int
    rounds: list[RoundSchedule]

    @property
    def max_partners(self) -> int:
        return max((r.partners for r in self.rounds), default=0)

    @property
    def total_bytes_out(self) -> int:
        return sum(r.bytes_out for r in self.rounds)

    @property
    def total_self_bytes(self) -> int:
        return sum(r.self_bytes for r in self.rounds)

    @property
    def message_count(self) -> int:
        return sum(r.message_count for r in self.rounds)

    def peak_bytes(self, transport: str = "packed") -> int:
        """Estimated per-rank staging peak across the exchange: rounds are
        sequential (each is drained before the next begins), so the
        schedule peak is the worst round, not the sum."""
        return max((r.peak_bytes(transport) for r in self.rounds), default=0)

    def engine_choices(
        self, zero_copy: bool = False, limit_bytes: Optional[int] = None
    ) -> list[str]:
        """Per-round engine :func:`auto_backend` selects (``alltoallw`` /
        ``p2p``) on a transport and under an optional budget limit."""
        return [auto_backend(r, zero_copy, limit_bytes) for r in self.rounds]


def build_schedule(
    plan: RankPlan,
    nprocs: int,
    nrounds: int,
    element_size: int,
    mpi_type: Optional[NamedType] = None,
    components: int = 1,
    round_max_partners: Optional[Sequence[int]] = None,
    round_peak_bytes: Optional[Sequence[int]] = None,
) -> ExchangeSchedule:
    """Lower one rank's plan slice into the exchange IR.

    With ``mpi_type`` given, every lane carries a prebuilt subarray datatype
    (the execution form — the paper's "setup once, reorganize repeatedly"
    property hinges on this happening exactly once).  Without it the lanes
    carry byte volumes only (the cost-model form).  ``round_max_partners``
    and ``round_peak_bytes`` inject the global per-round sparsity and
    peak-staging statistics; pass them whenever the full
    :class:`~repro.core.plan.GlobalPlan` is in hand so ``AutoEngine``, the
    memory budget, and the cost models share the same selection inputs.
    """
    rounds: list[RoundSchedule] = []
    for round_index in range(nrounds):
        chunk_index: Optional[int] = (
            round_index if round_index < len(plan.own_chunks) else None
        )
        rnd = RoundSchedule(
            index=round_index,
            chunk_index=chunk_index,
            nprocs=nprocs,
            max_partners=(
                int(round_max_partners[round_index])
                if round_max_partners is not None
                else 0
            ),
            max_round_bytes=(
                int(round_peak_bytes[round_index])
                if round_peak_bytes is not None
                else 0
            ),
            element_size=element_size,
            components=components,
            mpi_type=mpi_type,
        )
        for entry in plan.sends_in_round(round_index):
            datatype = (
                subarray_for(entry.chunk, entry.overlap, mpi_type, components)
                if mpi_type is not None
                else None
            )
            lane = Lane(
                entry.dest,
                entry.overlap.volume() * element_size,
                datatype,
                container=entry.chunk,
                region=entry.overlap,
            )
            if entry.dest == plan.rank:
                rnd.self_send = lane
            else:
                rnd.sends.append(lane)
        for entry in plan.recvs_in_round(round_index):
            if mpi_type is not None:
                assert plan.need is not None
                datatype = subarray_for(plan.need, entry.overlap, mpi_type, components)
            else:
                datatype = None
            lane = Lane(
                entry.source,
                entry.overlap.volume() * element_size,
                datatype,
                container=plan.need,
                region=entry.overlap,
            )
            if entry.source == plan.rank:
                rnd.self_recv = lane
            else:
                rnd.recvs.append(lane)
        rounds.append(rnd)
    return ExchangeSchedule(
        rank=plan.rank,
        nprocs=nprocs,
        nrounds=nrounds,
        element_size=element_size,
        rounds=rounds,
    )


def round_max_partners(global_plan: GlobalPlan) -> list[int]:
    """Per round, the busiest rank's remote-partner count (plan-wide).

    This is the statistic the auto-selection rule keys on: it is derived
    from the deterministic global plan, so every rank computes the same
    values and the per-round engine choice needs no extra communication.
    """
    out: list[int] = []
    for round_index in range(global_plan.nrounds):
        worst = 0
        for plan in global_plan.rank_plans:
            peers = {
                s.dest for s in plan.sends_in_round(round_index) if s.dest != plan.rank
            }
            peers |= {
                r.source
                for r in plan.recvs_in_round(round_index)
                if r.source != plan.rank
            }
            worst = max(worst, len(peers))
        out.append(worst)
    return out


def round_peak_stats(global_plan: GlobalPlan) -> list[int]:
    """Per round, the busiest rank's estimated staged-transport peak.

    The staged model from :meth:`RoundSchedule.peak_bytes` — all send
    payloads plus all in-flight recv payloads plus the self payload once —
    evaluated for every rank from the deterministic global plan, worst rank
    kept.  Every rank computes identical values, so budget comparisons
    (round fits / round must lower, and with what piece size) are wire
    decisions all ranks agree on without communicating.
    """
    element_size = global_plan.element_size
    out: list[int] = []
    for round_index in range(global_plan.nrounds):
        worst = 0
        for plan in global_plan.rank_plans:
            total = 0
            for entry in plan.sends_in_round(round_index):
                total += entry.overlap.volume() * element_size
            for entry in plan.recvs_in_round(round_index):
                if entry.source != plan.rank:
                    total += entry.overlap.volume() * element_size
            worst = max(worst, total)
        out.append(worst)
    return out


def global_schedules(global_plan: GlobalPlan) -> list[ExchangeSchedule]:
    """Datatype-free schedules for every rank (the cost-model view).

    The network models iterate lanes instead of rescanning raw plan
    entries; building all ranks here is one linear pass over the plan.
    """
    stats = round_max_partners(global_plan)
    peaks = round_peak_stats(global_plan)
    return [
        build_schedule(
            plan,
            global_plan.nprocs,
            global_plan.nrounds,
            global_plan.element_size,
            round_max_partners=stats,
            round_peak_bytes=peaks,
        )
        for plan in global_plan.rank_plans
    ]
