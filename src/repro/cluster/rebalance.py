"""Elastic shard rebalancing: split/merge/replica moves under traffic.

The paper's Figure 1(b) topology fixes the shard map at build time; a
production deployment cannot. This module makes the cluster elastic:
topology changes execute as *background maintenance traffic* — metered
sequential SCM reads of the moving interval's postings and sequential
writes of the rebuilt destination indexes — while the root keeps
serving, and the new shard map is installed in one atomic publish.

**Moves.** Three operations cover the elastic story:

* :class:`SplitShard` — one docID-interval shard becomes two at a chosen
  boundary (capacity: a hot shard splits so each half gets its own leaf);
* :class:`MergeShards` — two adjacent shards become one (consolidation:
  two cold intervals share a leaf);
* :class:`AddReplica` — a shard gains a failover engine, bootstrapped
  either by streaming the primary's postings or by replaying a WAL
  directory (the durable live index's op log — the path a rebooted leaf
  uses to catch up without touching the primary).

**Score identity.** Shard indexes carry corpus-global BM25 statistics
(:class:`~repro.index.builder.GlobalStatistics`), so a destination index
rebuilt from source postings must inherit them: the rebuild streams each
source list's postings and re-compresses them under the *source's stored
per-term IDF* and the *source's scorer* (global document-length
normalizers). A document therefore scores bit-identically before,
during, and after any move — the differential oracle pins cluster
rankings to the static monolith across the whole protocol.

**Protocol.** Every move walks ``planned -> streaming [-> catchup]
-> published``; the named kill-points ``rebalance_mid_stream``,
``rebalance_mid_catchup`` and ``rebalance_pre_publish``
(:data:`repro.faults.KILL_POINTS`) all sit *before* the publish, so a
crash anywhere mid-move cleanly aborts it: destinations being built off
to the side are abandoned, the old map keeps serving, and re-running the
move completes it. While a source shard streams, the root marks it
*draining* (:meth:`~repro.cluster.root.SearchCluster.set_draining`):
queries route replica-first around the busy primary via the existing
failover chain, with the primary as last resort.

**Conservation.** Each move's :class:`MoveReport` carries a byte/posting
conservation identity — every posting read out of a source must be
written into a destination, and the move's traffic counter must agree
with the reported byte totals — checked before publish and exported as
``rebalance.*`` metrics by the recording observer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.engine import BossAccelerator, BossConfig
from repro.errors import ConfigurationError, CrashError, RebalanceError
from repro.index.builder import IndexBuilder
from repro.index.index import InvertedIndex
from repro.observability.observer import NULL_OBSERVER, Observer
from repro.scm.device import OPTANE_NODE_4CH
from repro.scm.traffic import AccessClass, AccessPattern, TrafficCounter
from repro.serving.target import advance_to_arrival, queued_read_seconds

#: Protocol states a move walks through, in order.
MOVE_STATES = ("planned", "streaming", "catchup", "published")


# ----------------------------------------------------------------------
# Move operations
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SplitShard:
    """Split shard ``shard`` into ``[lo, at_doc_id)`` and ``[at_doc_id, hi)``."""

    shard: int
    at_doc_id: int

    kind = "split"

    def describe(self) -> str:
        return f"split shard {self.shard} at doc {self.at_doc_id}"


@dataclass(frozen=True)
class MergeShards:
    """Merge shard ``shard`` with its right neighbour ``shard + 1``."""

    shard: int

    kind = "merge"

    def describe(self) -> str:
        return f"merge shards {self.shard}+{self.shard + 1}"


@dataclass(frozen=True)
class AddReplica:
    """Give shard ``shard`` one more failover engine.

    With ``wal_dir`` the replica bootstraps from that directory's
    write-ahead log (the shard's op stream as the durable writer logged
    it) instead of streaming the primary — and must pass a postings-level
    parity check against the primary before it joins the failover chain.
    """

    shard: int
    wal_dir: Optional[str] = None

    kind = "add_replica"

    def describe(self) -> str:
        source = f" from WAL {self.wal_dir}" if self.wal_dir else ""
        return f"add replica to shard {self.shard}{source}"


RebalanceOp = Union[SplitShard, MergeShards, AddReplica]


def parse_rebalance_script(text: str) -> List[Tuple[float, RebalanceOp]]:
    """Parse a rebalance script into ``(at_seconds, op)`` pairs.

    One op per line; blank lines and ``#`` comments are skipped. An
    optional leading ``@SECONDS`` token schedules the op on the serving
    timeline (default 0.0 — before traffic):

    .. code-block:: text

        @0.05 split 0 300
        @0.10 merge 1
        @0.20 add-replica 0
        @0.30 add-replica 2 /path/to/wal-dir
    """
    ops: List[Tuple[float, RebalanceOp]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        at = 0.0
        if parts[0].startswith("@"):
            try:
                at = float(parts[0][1:])
            except ValueError:
                raise RebalanceError(
                    f"line {lineno}: bad arrival time {parts[0]!r}"
                ) from None
            parts = parts[1:]
        if not parts:
            raise RebalanceError(f"line {lineno}: arrival time without an op")
        verb, args = parts[0], parts[1:]
        try:
            if verb == "split" and len(args) == 2:
                op: RebalanceOp = SplitShard(int(args[0]), int(args[1]))
            elif verb == "merge" and len(args) == 1:
                op = MergeShards(int(args[0]))
            elif verb == "add-replica" and len(args) in (1, 2):
                op = AddReplica(int(args[0]),
                                args[1] if len(args) == 2 else None)
            else:
                raise RebalanceError(
                    f"line {lineno}: unknown op {line!r} (expected "
                    f"'split SHARD DOC', 'merge SHARD', or "
                    f"'add-replica SHARD [WAL_DIR]')"
                )
        except ValueError:
            raise RebalanceError(
                f"line {lineno}: non-integer argument in {line!r}"
            ) from None
        ops.append((at, op))
    return ops


# ----------------------------------------------------------------------
# Move accounting
# ----------------------------------------------------------------------


@dataclass
class MoveReport:
    """What one rebalance move read, wrote, and published."""

    kind: str
    shard: int
    detail: str = ""
    #: Protocol states reached, in order (see :data:`MOVE_STATES`).
    states: List[str] = field(default_factory=list)
    #: Sequential LD List bytes streamed out of sources (or the WAL).
    read_bytes: int = 0
    #: Sequential ST Index bytes written into destinations.
    write_bytes: int = 0
    #: Postings streamed out of source indexes / the WAL op stream.
    postings_out: int = 0
    #: Postings written into destination indexes.
    postings_in: int = 0
    #: Modeled device seconds the maintenance traffic occupies.
    modeled_seconds: float = 0.0
    #: Shard-map version installed by the publish (0 = never published).
    map_version: int = 0
    #: True when a crash or validation failure abandoned the move.
    aborted: bool = False
    error: Optional[str] = None
    #: The move's own maintenance traffic, for device pricing.
    traffic: TrafficCounter = field(default_factory=TrafficCounter)

    def check_conservation(self) -> None:
        """Assert the move's byte/posting conservation identity.

        Every posting streamed out of a source must land in a
        destination, and the traffic counter must agree with the
        reported byte totals — a violation means the move lost or
        invented data and must not publish.
        """
        if self.postings_in != self.postings_out:
            raise RebalanceError(
                f"{self.detail}: conservation violated — "
                f"{self.postings_out} postings out of sources but "
                f"{self.postings_in} into destinations"
            )
        read = self.traffic.bytes_for(AccessClass.LD_LIST)
        written = self.traffic.bytes_for(AccessClass.ST_INDEX)
        if read != self.read_bytes or written != self.write_bytes:
            raise RebalanceError(
                f"{self.detail}: traffic disagrees with the report — "
                f"counter LD {read}B / ST {written}B vs reported "
                f"{self.read_bytes}B / {self.write_bytes}B"
            )

    def publish_metrics(self, registry) -> None:
        steps = registry.counter(
            "rebalance.steps", "move protocol state transitions"
        )
        for state in self.states:
            steps.inc(kind=self.kind, state=state)
        registry.counter(
            "rebalance.moves", "topology moves, by kind and outcome"
        ).inc(kind=self.kind,
              outcome="aborted" if self.aborted else "published")
        registry.counter(
            "rebalance.read_bytes",
            "sequential LD List bytes streamed out of move sources",
        ).inc(self.read_bytes)
        registry.counter(
            "rebalance.write_bytes",
            "sequential ST Index bytes written into move destinations",
        ).inc(self.write_bytes)
        # The conservation identity, exported: out == in for every
        # published move (Rebalancer raises before publish otherwise).
        moved = registry.counter(
            "rebalance.postings_moved",
            "postings streamed during moves, by direction",
        )
        moved.inc(self.postings_out, direction="out")
        moved.inc(self.postings_in, direction="in")
        registry.counter(
            "rebalance.maintenance_seconds",
            "modeled device seconds spent on move traffic",
        ).inc(self.modeled_seconds)
        if not self.aborted:
            registry.gauge(
                "rebalance.map_version", "current shard-map generation"
            ).set(self.map_version)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "shard": self.shard,
            "detail": self.detail,
            "states": list(self.states),
            "read_bytes": self.read_bytes,
            "write_bytes": self.write_bytes,
            "postings_out": self.postings_out,
            "postings_in": self.postings_in,
            "modeled_seconds": self.modeled_seconds,
            "map_version": self.map_version,
            "aborted": self.aborted,
            "error": self.error,
        }


class _InheritedIdf:
    """Duck-typed ``GlobalStatistics`` replaying source-list IDFs.

    :class:`~repro.index.builder.IndexBuilder` consults exactly one
    method of its ``global_stats`` — ``idf(term, local_df)`` — so a
    rebuild can inherit the corpus-global IDF each source posting list
    already stores, keeping destination scores bit-identical to the
    sources'. Terms absent from every source (possible only for a WAL
    stream that outran its primary) fall back to the scorer's local IDF.
    """

    def __init__(self, idf_by_term: Dict[str, float], scorer) -> None:
        self._idf_by_term = idf_by_term
        self._scorer = scorer

    def idf(self, term: str, local_df: int) -> float:
        try:
            return self._idf_by_term[term]
        except KeyError:
            return self._scorer.idf(local_df)


# ----------------------------------------------------------------------
# The coordinator
# ----------------------------------------------------------------------


class Rebalancer:
    """Plans and executes topology moves over a live cluster.

    ``cluster`` is the serving :class:`~repro.cluster.root.SearchCluster`
    and ``sharded`` its :class:`~repro.cluster.sharding.ShardedCorpus`;
    both are updated in the atomic publish step. The 4-channel Optane
    node (``device``) prices the maintenance traffic, ``clock`` anchors
    the maintenance busy-window on the serving timeline, and ``crash``
    arms the ``rebalance_*`` kill-points. A destination index is rebuilt
    with the builder's per-list codec choice and served by a BOSS
    accelerator with top-``k`` = ``k``.
    """

    device = OPTANE_NODE_4CH

    def __init__(self, cluster, sharded, *, clock=None,
                 observer: Observer = NULL_OBSERVER, crash=None,
                 k: int = 10) -> None:
        self._cluster = cluster
        self._sharded = sharded
        self._clock = clock
        self._observer = observer
        self._crash = crash
        self._leaf_config = BossConfig(k=k)
        #: Timeline instant until which maintenance occupies the device.
        self.busy_until = 0.0
        #: Completed (or aborted) move reports, in execution order.
        self.reports: List[MoveReport] = []

    def _engine(self, index: InvertedIndex) -> BossAccelerator:
        """A leaf engine over a destination index."""
        return BossAccelerator(index, self._leaf_config)

    @property
    def clock(self):
        """The serving-timeline clock moves are anchored on (or None)."""
        return self._clock

    @property
    def map_version(self) -> int:
        return self._cluster.map_version

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(self, op: RebalanceOp) -> MoveReport:
        """Run one move end to end; returns its :class:`MoveReport`.

        Raises :class:`~repro.errors.RebalanceError` on an invalid plan
        or a conservation/parity violation, and re-raises an injected
        :class:`~repro.errors.CrashError` after recording the abort —
        in both cases *nothing was published* and the old shard map is
        still serving.
        """
        self._validate(op)
        report = MoveReport(kind=op.kind, shard=op.shard,
                            detail=op.describe())
        drained = [op.shard]
        if isinstance(op, MergeShards):
            drained.append(op.shard + 1)
        report.states.append("planned")
        for shard in drained:
            self._cluster.set_draining(shard, True)
        try:
            if isinstance(op, SplitShard):
                publish = self._split(op, report)
            elif isinstance(op, MergeShards):
                publish = self._merge(op, report)
            else:
                publish = self._add_replica(op, report)
            self._check(report, "rebalance_pre_publish")
            report.check_conservation()
        except BaseException as error:
            # Nothing published: drop the draining marks so the old map
            # serves exactly as before the move started, and record the
            # abort. The half-built destinations are garbage-collected.
            for shard in drained:
                self._cluster.set_draining(shard, False)
            report.aborted = True
            report.error = repr(error)
            self._finish(report)
            raise
        # Everything streamed and verified: install the new map in one
        # atomic step (which also clears the draining marks).
        publish()
        report.states.append("published")
        self._finish(report)
        return report

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def _validate(self, op: RebalanceOp) -> None:
        num_shards = self._sharded.num_shards
        if not 0 <= op.shard < num_shards:
            raise RebalanceError(
                f"{op.describe()}: no shard {op.shard} "
                f"(cluster has {num_shards})"
            )
        if isinstance(op, SplitShard):
            lo = self._sharded.boundaries[op.shard]
            hi = self._sharded.boundaries[op.shard + 1]
            if not lo < op.at_doc_id < hi:
                raise RebalanceError(
                    f"{op.describe()}: split point must fall strictly "
                    f"inside the shard's interval [{lo}, {hi})"
                )
        elif isinstance(op, MergeShards):
            if op.shard + 1 >= num_shards:
                raise RebalanceError(
                    f"{op.describe()}: shard {op.shard} has no right "
                    f"neighbour to merge with"
                )
        elif isinstance(op, AddReplica) and op.wal_dir is not None:
            if not Path(op.wal_dir).is_dir():
                raise RebalanceError(
                    f"{op.describe()}: WAL directory does not exist"
                )

    # ------------------------------------------------------------------
    # Streaming rebuilds
    # ------------------------------------------------------------------

    def _read_shard(self, index: InvertedIndex, report: MoveReport
                    ) -> Tuple[Dict[str, list], Dict[str, float]]:
        """Stream one source shard's postings (metered sequential reads)."""
        postings: Dict[str, list] = {}
        idf_by_term: Dict[str, float] = {}
        nbytes = 0
        for term in index.terms:
            plist = index.posting_list(term)
            decoded = [(p.doc_id, p.tf) for p in plist.decode_all()]
            postings[term] = decoded
            idf_by_term[term] = plist.idf
            nbytes += plist.compressed_bytes
            report.postings_out += len(decoded)
        report.traffic.record(AccessClass.LD_LIST,
                              AccessPattern.SEQUENTIAL, nbytes)
        report.read_bytes += nbytes
        return postings, idf_by_term

    def _build_destination(self, postings: Dict[str, list],
                           idf_by_term: Dict[str, float],
                           lo: int, hi: int, scorer,
                           report: MoveReport) -> InvertedIndex:
        """Rebuild the ``[lo, hi)`` interval (metered sequential writes)."""
        self._check(report, "rebalance_mid_stream")
        builder = IndexBuilder(scorer=scorer,
                               global_stats=_InheritedIdf(idf_by_term,
                                                          scorer))
        written = 0
        for term in sorted(postings):
            subset = [(doc_id, tf) for doc_id, tf in postings[term]
                      if lo <= doc_id < hi]
            if subset:
                builder.add_postings(term, subset)
                written += len(subset)
        index = builder.build()
        report.traffic.record(AccessClass.ST_INDEX,
                              AccessPattern.SEQUENTIAL,
                              index.compressed_bytes)
        report.write_bytes += index.compressed_bytes
        report.postings_in += written
        return index

    def _split(self, op: SplitShard, report: MoveReport) -> None:
        boundaries = self._sharded.boundaries
        lo, hi = boundaries[op.shard], boundaries[op.shard + 1]
        source = self._sharded.indexes[op.shard]
        report.states.append("streaming")
        postings, idfs = self._read_shard(source, report)
        left = self._build_destination(postings, idfs, lo, op.at_doc_id,
                                       source.scorer, report)
        right = self._build_destination(postings, idfs, op.at_doc_id, hi,
                                        source.scorer, report)
        new_indexes = (self._sharded.indexes[:op.shard] + [left, right]
                       + self._sharded.indexes[op.shard + 1:])
        new_boundaries = (boundaries[:op.shard + 1] + [op.at_doc_id]
                          + boundaries[op.shard + 1:])
        return self._prepare_publish(report, new_indexes, new_boundaries,
                                     replaced=slice(op.shard, op.shard + 1),
                                     fresh=[left, right])

    def _merge(self, op: MergeShards, report: MoveReport) -> None:
        boundaries = self._sharded.boundaries
        lo, hi = boundaries[op.shard], boundaries[op.shard + 2]
        left_src = self._sharded.indexes[op.shard]
        right_src = self._sharded.indexes[op.shard + 1]
        report.states.append("streaming")
        postings, idfs = self._read_shard(left_src, report)
        more, more_idfs = self._read_shard(right_src, report)
        for term, extra in more.items():
            # Disjoint docID intervals: concatenation stays sorted, and
            # both sources carry the same corpus-global IDF per term.
            postings.setdefault(term, []).extend(extra)
        idfs.update(more_idfs)
        merged = self._build_destination(postings, idfs, lo, hi,
                                         left_src.scorer, report)
        new_indexes = (self._sharded.indexes[:op.shard] + [merged]
                       + self._sharded.indexes[op.shard + 2:])
        new_boundaries = (boundaries[:op.shard + 1]
                          + boundaries[op.shard + 2:])
        return self._prepare_publish(report, new_indexes, new_boundaries,
                                     replaced=slice(op.shard, op.shard + 2),
                                     fresh=[merged])

    def _add_replica(self, op: AddReplica, report: MoveReport) -> None:
        primary = self._sharded.indexes[op.shard]
        report.states.append("streaming")
        if op.wal_dir is None:
            postings, idfs = self._read_shard(primary, report)
        else:
            postings, idfs = self._bootstrap_from_wal(op, primary, report)
        lo = self._sharded.boundaries[op.shard]
        hi = self._sharded.boundaries[op.shard + 1]
        replica_index = self._build_destination(postings, idfs, lo, hi,
                                                primary.scorer, report)
        self._validate_parity(op, primary, replica_index)
        new_replicas = [list(group) for group in self._cluster.replicas]
        new_replicas[op.shard] = (new_replicas[op.shard]
                                  + [self._engine(replica_index)])

        def publish():
            report.map_version = self._cluster.publish_topology(
                self._cluster.engines, new_replicas
            )

        return publish

    def _bootstrap_from_wal(self, op: AddReplica, primary: InvertedIndex,
                            report: MoveReport
                            ) -> Tuple[Dict[str, list], Dict[str, float]]:
        """Recover the shard's op stream from a WAL directory.

        Reuses the durable writer's log reader (:func:`repro.live.wal.
        read_wal` — framing, checksums, torn-tail detection) and its
        replay semantics for the mutation records: adds install a
        document, deletes remove it, and seal/merge records are segment
        bookkeeping a from-scratch replica does not need to reproduce
        (it serves one compacted index either way — the same equivalence
        the live layer's compaction oracle pins).
        """
        from collections import Counter

        from repro.live.durable import WAL_NAME
        from repro.live.wal import AddRecord, DeleteRecord, read_wal

        report.states.append("catchup")
        scan = read_wal(Path(op.wal_dir) / WAL_NAME)
        report.traffic.record(AccessClass.LD_LIST,
                              AccessPattern.SEQUENTIAL, scan.valid_bytes)
        report.read_bytes += scan.valid_bytes
        docs: Dict[int, Tuple[str, ...]] = {}
        for record in scan.records:
            if isinstance(record, AddRecord):
                docs[record.doc_id] = record.tokens
            elif isinstance(record, DeleteRecord):
                docs.pop(record.doc_id, None)
        self._check(report, "rebalance_mid_catchup")
        postings: Dict[str, list] = {}
        count = 0
        for doc_id in sorted(docs):
            for term, tf in sorted(Counter(docs[doc_id]).items()):
                postings.setdefault(term, []).append((doc_id, tf))
                count += 1
        report.postings_out += count
        # IDF inheritance comes from the primary the replica will mirror.
        idfs = {
            term: primary.posting_list(term).idf
            for term in postings if term in primary
        }
        return postings, idfs

    def _validate_parity(self, op: AddReplica, primary: InvertedIndex,
                         replica: InvertedIndex) -> None:
        """A bootstrap replica must mirror its primary exactly.

        Postings-level comparison: same terms, same (docID, tf) streams,
        same per-term IDF. A WAL that diverged from the primary's op
        stream fails here and the replica never joins the failover
        chain.
        """
        if list(primary.terms) != list(replica.terms):
            raise RebalanceError(
                f"{op.describe()}: bootstrap replica term set diverges "
                f"from the primary ({len(list(replica.terms))} vs "
                f"{len(list(primary.terms))} terms)"
            )
        for term in primary.terms:
            ours = primary.posting_list(term)
            theirs = replica.posting_list(term)
            if (ours.decode_all() != theirs.decode_all()
                    or ours.idf != theirs.idf):
                raise RebalanceError(
                    f"{op.describe()}: bootstrap replica postings for "
                    f"term {term!r} diverge from the primary"
                )

    # ------------------------------------------------------------------
    # Publish + accounting
    # ------------------------------------------------------------------

    def _prepare_publish(self, report: MoveReport,
                         new_indexes: List[InvertedIndex],
                         new_boundaries: List[int],
                         replaced: slice, fresh: List[InvertedIndex]):
        """Stage the new shard map; returns the atomic install step.

        Builds replacement engine/replica lists off to the side (each
        fresh shard gets ``replication_factor - 1`` fresh replica
        engines over its immutable index). The returned closure installs
        everything in one step — the corpus's boundaries/indexes swap
        with the cluster's engine lists so routing
        (:meth:`~repro.cluster.sharding.ShardedCorpus.shard_of`) and
        serving agree on the same generation — and runs only after the
        pre-publish kill-point and the conservation check pass.
        """
        replication = self._sharded.replication_factor
        fresh_engines = [self._engine(index) for index in fresh]
        fresh_replicas = [
            [self._engine(index) for _ in range(replication - 1)]
            for index in fresh
        ]
        engines = list(self._cluster.engines)
        replicas = [list(group) for group in self._cluster.replicas]
        engines[replaced] = fresh_engines
        replicas[replaced] = fresh_replicas

        def publish():
            report.map_version = self._cluster.publish_topology(engines,
                                                                replicas)
            self._sharded.indexes = list(new_indexes)
            self._sharded.boundaries = list(new_boundaries)

        return publish

    def _check(self, report: MoveReport, point: str) -> None:
        if self._crash is not None:
            self._crash.check(point)

    def _finish(self, report: MoveReport) -> None:
        report.modeled_seconds = self.device.service_time(report.traffic)
        now = self._clock.now() if self._clock is not None else 0.0
        self.busy_until = max(self.busy_until, now) + report.modeled_seconds
        self.reports.append(report)
        self._observer.emit(report)

    # ------------------------------------------------------------------
    # Aggregate views
    # ------------------------------------------------------------------

    @property
    def total_read_bytes(self) -> int:
        return sum(r.read_bytes for r in self.reports)

    @property
    def total_write_bytes(self) -> int:
        return sum(r.write_bytes for r in self.reports)

    @property
    def moves_published(self) -> int:
        return sum(1 for r in self.reports if not r.aborted)

    @property
    def moves_aborted(self) -> int:
        return sum(1 for r in self.reports if r.aborted)


# ----------------------------------------------------------------------
# Serving integration
# ----------------------------------------------------------------------


class RebalancingClusterTarget:
    """A cluster and its :class:`Rebalancer` behind the
    :class:`~repro.serving.target.ServingTarget` protocol.

    Queries go to the cluster; a request whose ``update`` payload is
    ``("rebalance", op)`` executes the move at its arrival instant. The
    modeled maintenance seconds open a busy-window on the shared
    device, and queries landing inside it queue behind the move exactly
    as live-index queries queue behind a merge.
    """

    def __init__(self, cluster, rebalancer: Rebalancer) -> None:
        self.cluster = cluster
        self.rebalancer = rebalancer

    @property
    def clock(self):
        return self.rebalancer.clock

    @property
    def engines(self):
        """Leaf engines of the *current* shard map (planner fan-out)."""
        return self.cluster.engines

    @property
    def replicas(self):
        return self.cluster.replicas

    def search(self, expression, k: Optional[int] = None):
        return self.cluster.search(expression, k=k)

    def apply_update(self, request) -> MoveReport:
        kind, op = request.update
        if kind != "rebalance":
            raise ConfigurationError(
                f"rebalancing cluster target cannot apply {kind!r} "
                f"updates (only ('rebalance', op))"
            )
        advance_to_arrival(self.clock, request)
        return self.rebalancer.execute(op)

    def service_time(self, request, result) -> float:
        """Timeline service time for both request kinds.

        A move costs its modeled maintenance seconds; a query costs its
        modeled read time behind whatever remains of an in-flight
        move's busy-window
        (:func:`~repro.serving.target.queued_read_seconds`).
        """
        if isinstance(result, MoveReport):
            return result.modeled_seconds
        return queued_read_seconds(self.rebalancer.device, result,
                                   self.rebalancer.busy_until, request)


#: Request id of the first move :func:`rebalance_requests` schedules, far
#: above any query workload's ids.
MOVE_REQUEST_ID = 1_000_000


def rebalance_requests(ops: Sequence[Tuple[float, RebalanceOp]]) -> list:
    """Wrap scheduled moves as serving-timeline update requests.

    Returns one :class:`~repro.serving.loadgen.Request` per ``(at, op)``
    pair, numbered from ``MOVE_REQUEST_ID`` and carrying
    ``update=("rebalance", op)`` — splice them into a
    query workload with :func:`repro.serving.loadgen.splice_requests`
    and the server will dispatch each move at its arrival instant.
    """
    from repro.serving.loadgen import Request

    return [
        Request(
            request_id=MOVE_REQUEST_ID + i,
            arrival_seconds=at,
            expression=f"<rebalance:{op.describe()}>",
            update=("rebalance", op),
        )
        for i, (at, op) in enumerate(sorted(ops, key=lambda pair: pair[0]))
    ]
