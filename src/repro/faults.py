"""Deterministic, seeded fault injection for cluster leaf engines.

Production deployments of the paper's Figure 1(b) topology lose leaves,
see latency spikes, and serve from corrupted media; this module lets the
reproduction study those regimes *deterministically*. A
:class:`FaultyEngine` wraps any leaf engine (BOSS, IIU, Lucene model)
and injects, per logical query:

* **latency spikes** — the attempt completes but takes an extra
  configurable wall-clock delay (drives the cluster's per-leaf timeout);
* **transient failures** — the first ``transient_failure_attempts``
  attempts of an afflicted query raise
  :class:`~repro.errors.FaultInjectionError`, then the query succeeds
  (drives the retry path);
* **permanent leaf death** — after ``permanent_failure_after`` logical
  queries every attempt raises (drives failover and degradation);
* **payload corruption** — an afflicted query decodes a *truncated*
  copy of a real compressed block payload through the leaf's own codec,
  raising the strict :class:`~repro.errors.CompressionError` the codecs
  guarantee on malformed input; corruption persists across attempts
  (the bytes on media stay bad), so only failover to a replica cures it.

Every decision is a pure function of ``(seed, shard_id, query key)`` —
repeated runs, and retries of the same query, see the same schedule.
The zero-fault configuration (:meth:`FaultConfig.zero_fault`) is a pure
pass-through: ``search()`` delegates directly with no RNG draws, no
sleeps, and no bookkeeping, so results are bit-identical to the
unwrapped engine (pinned by the differential suite).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.clock import WALL_CLOCK
from repro.observability.observer import NULL_OBSERVER
from repro.errors import (
    CompressionError,
    ConfigurationError,
    CrashError,
    FaultInjectionError,
)

#: The named process-death boundaries the durable live index exposes
#: (:mod:`repro.live.durable`). Every boundary is *after* the previous
#: durable step and *before* the next one, so together they cover each
#: window in which a crash leaves disk and memory disagreeing:
#:
#: ``before_seal``              buffer full, nothing durable yet
#: ``after_seal_pre_manifest``  segment file + WAL record durable,
#:                              manifest still points at the old set
#: ``mid_merge``                merge compute started, nothing durable
#: ``after_merge_pre_commit``   merge output + WAL record durable,
#:                              manifest/inputs not yet swapped
#: ``mid_wal_append``           a torn frame tail reaches the log
#: ``mid_recovery``             recovery itself dies (double crash)
#:
#: The elastic-cluster rebalancer (:mod:`repro.cluster.rebalance`) adds
#: three boundaries of its own. Every one is *before* the atomic map
#: publish, so a crash at any of them cleanly aborts the move — the old
#: shard map keeps serving, and re-running the move completes it:
#:
#: ``rebalance_mid_stream``     a destination index is part-built
#: ``rebalance_mid_catchup``    a WAL-bootstrap replica is part-replayed
#: ``rebalance_pre_publish``    destinations complete, map not yet swapped
KILL_POINTS = (
    "before_seal",
    "after_seal_pre_manifest",
    "mid_merge",
    "after_merge_pre_commit",
    "mid_wal_append",
    "mid_recovery",
    "rebalance_mid_stream",
    "rebalance_mid_catchup",
    "rebalance_pre_publish",
)


class CrashSchedule:
    """Deterministic process-death schedule for durability tests.

    Arms at most one kill-point: the ``occurrence``-th time execution
    reaches ``kill_point`` (counting from 1), :meth:`check` raises
    :class:`~repro.errors.CrashError` — after which the schedule is
    spent and never fires again, so the recovery that follows can reuse
    the writer configuration safely. ``kill_point=None`` is the inert
    schedule: every probe just counts.

    For ``mid_wal_append`` the death happens *inside* the frame write:
    :meth:`wal_tear` hands the log a deterministic (seeded) torn prefix
    — or, with ``torn_mode="corrupt"``, a bit-flipped copy — of the
    frame, so recovery must detect the damage via framing/checksum.
    """

    def __init__(self, kill_point: Optional[str] = None,
                 occurrence: int = 1, *, seed: int = 0,
                 torn_mode: str = "truncate") -> None:
        if kill_point is not None and kill_point not in KILL_POINTS:
            raise ConfigurationError(
                f"unknown kill point {kill_point!r} "
                f"(known: {', '.join(KILL_POINTS)})"
            )
        if occurrence < 1:
            raise ConfigurationError("occurrence counts from 1")
        if torn_mode not in ("truncate", "corrupt"):
            raise ConfigurationError(
                f"torn_mode must be 'truncate' or 'corrupt', "
                f"got {torn_mode!r}"
            )
        self.kill_point = kill_point
        self.occurrence = occurrence
        self.seed = seed
        self.torn_mode = torn_mode
        #: Probe counts per kill-point name (fired or not).
        self.counts: dict = {}
        self.fired = False

    def _hit(self, point: str) -> bool:
        self.counts[point] = self.counts.get(point, 0) + 1
        if self.fired or point != self.kill_point:
            return False
        return self.counts[point] >= self.occurrence

    def die(self, point: str) -> None:
        """Raise the crash for ``point`` unconditionally."""
        self.fired = True
        raise CrashError(
            f"injected crash at {point} "
            f"(occurrence {self.counts.get(point, 0)})",
            kill_point=point,
            occurrence=self.counts.get(point, 0),
        )

    def check(self, point: str) -> None:
        """Probe one kill-point; raises when the schedule fires."""
        if self._hit(point):
            self.die(point)

    def wal_tear(self, frame: bytes) -> Optional[bytes]:
        """Damaged bytes to write in place of ``frame``, if armed.

        Returns ``None`` when this append survives. Otherwise the
        caller writes the returned bytes and then :meth:`die`\\ s: a
        seeded strict prefix of the frame (``torn_mode="truncate"``) or
        the full frame with one payload byte flipped (``"corrupt"``),
        both guaranteed invalid under the frame checksum.
        """
        if not self._hit("mid_wal_append"):
            return None
        rng = random.Random(
            f"tear:{self.seed}:{self.counts['mid_wal_append']}"
        )
        if self.torn_mode == "corrupt" and len(frame) > 8:
            index = rng.randrange(8, len(frame))
            return (frame[:index] + bytes([frame[index] ^ 0x5A])
                    + frame[index + 1:])
        return frame[:rng.randrange(1, len(frame))]


@dataclass(frozen=True)
class FaultConfig:
    """Seeded fault schedule for one wrapped leaf engine.

    Probabilities are per *logical query* (retries of the same query
    re-evaluate the same draw, not a fresh one). All fields default to
    the zero-fault configuration.
    """

    seed: int = 0
    #: P(an afflicted query completes but sleeps ``latency_spike_seconds``).
    latency_spike_probability: float = 0.0
    latency_spike_seconds: float = 0.0
    #: P(a query's first attempts raise a transient fault).
    transient_failure_probability: float = 0.0
    #: How many attempts of an afflicted query fail before succeeding.
    transient_failure_attempts: int = 1
    #: Logical queries after which the leaf dies for good (None = never).
    permanent_failure_after: Optional[int] = None
    #: P(a query hits a corrupted compressed payload — persistent).
    corruption_probability: float = 0.0

    def __post_init__(self) -> None:
        for name in ("latency_spike_probability",
                     "transient_failure_probability",
                     "corruption_probability"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1], got {p}"
                )
        if self.latency_spike_seconds < 0:
            raise ConfigurationError("latency spike must be >= 0 seconds")
        if self.transient_failure_attempts < 1:
            raise ConfigurationError(
                "transient faults must fail at least one attempt"
            )
        if (self.permanent_failure_after is not None
                and self.permanent_failure_after < 0):
            raise ConfigurationError(
                "permanent_failure_after must be >= 0 (or None)"
            )

    @property
    def zero_fault(self) -> bool:
        """True when this schedule can never perturb execution."""
        return (
            self.latency_spike_probability == 0.0
            and self.transient_failure_probability == 0.0
            and self.corruption_probability == 0.0
            and self.permanent_failure_after is None
        )


#: The guaranteed-pass-through schedule.
ZERO_FAULTS = FaultConfig()


@dataclass
class FaultStats:
    """What a :class:`FaultyEngine` actually injected."""

    latency_spikes: int = 0
    transient_failures: int = 0
    permanent_failures: int = 0
    corruptions: int = 0
    #: Logical (first-attempt) queries seen.
    queries: int = 0
    #: Total search() attempts, including retries.
    attempts: int = 0


class FaultyEngine:
    """A leaf engine wrapper that injects a deterministic fault schedule.

    Exposes the same duck-typed surface the cluster relies on
    (``search(query, k)`` plus attribute delegation for ``index``,
    ``observer``, ``config``, ...), so it can stand wherever a real
    engine does.

    ``clock`` performs the latency-spike sleeps (wall clock by
    default); the fault-matrix tests pass a
    :class:`repro.clock.VirtualClock` so spikes cost no real time.
    """

    def __init__(self, engine, faults: FaultConfig = ZERO_FAULTS,
                 shard_id: int = 0, clock=None) -> None:
        self._engine = engine
        self._faults = faults
        self._clock = WALL_CLOCK if clock is None else clock
        self.shard_id = shard_id
        self.stats = FaultStats()
        #: Attempt count per logical-query key (retries re-key here).
        self._attempts_by_key: dict = {}

    @property
    def engine(self):
        """The wrapped leaf engine."""
        return self._engine

    @property
    def faults(self) -> FaultConfig:
        return self._faults

    def __getattr__(self, name):
        # Everything the wrapper does not define delegates to the leaf
        # (index, observer, decoded_cache, config, ...).
        return getattr(self._engine, name)

    # ------------------------------------------------------------------
    # Fault schedule
    # ------------------------------------------------------------------

    @staticmethod
    def _query_key(query) -> str:
        return query if isinstance(query, str) else str(query)

    def _draws(self, key: str) -> tuple:
        """The (spike, transient, corrupt) decisions for one query key.

        Uses a CRC32 of the key (stable across processes, unlike
        ``hash()``) mixed with the seed and shard id, so the schedule is
        reproducible and independent of arrival order.
        """
        faults = self._faults
        rng = random.Random(
            f"{faults.seed}:{self.shard_id}:{zlib.crc32(key.encode('utf-8'))}"
        )
        spike = rng.random() < faults.latency_spike_probability
        transient = rng.random() < faults.transient_failure_probability
        corrupt = rng.random() < faults.corruption_probability
        return spike, transient, corrupt

    def would_fault(self, query) -> bool:
        """Whether ``query`` is on the (non-permanent) fault schedule."""
        if self._faults.zero_fault:
            return False
        _spike, transient, corrupt = self._draws(self._query_key(query))
        return transient or corrupt

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def search(self, query, k: Optional[int] = None):
        if self._faults.zero_fault:
            return self._engine.search(query, k=k)

        key = self._query_key(query)
        attempt = self._attempts_by_key.get(key, 0)
        self._attempts_by_key[key] = attempt + 1
        self.stats.attempts += 1
        if attempt == 0:
            self.stats.queries += 1

        faults = self._faults
        if (faults.permanent_failure_after is not None
                and self.stats.queries > faults.permanent_failure_after):
            self.stats.permanent_failures += 1
            raise FaultInjectionError(
                f"shard {self.shard_id}: leaf is dead (died after "
                f"{faults.permanent_failure_after} queries)",
                kind="permanent",
            )

        spike, transient, corrupt = self._draws(key)
        if corrupt:
            self.stats.corruptions += 1
            self._raise_corrupted(query)
        if transient and attempt < faults.transient_failure_attempts:
            self.stats.transient_failures += 1
            raise FaultInjectionError(
                f"shard {self.shard_id}: transient failure on "
                f"{key!r} (attempt {attempt + 1})",
                kind="transient",
            )
        if spike and faults.latency_spike_seconds > 0:
            self.stats.latency_spikes += 1
            self._clock.sleep(faults.latency_spike_seconds)
        return self._engine.search(query, k=k)

    def _raise_corrupted(self, query) -> None:
        """Decode a truncated real payload through the leaf's codec.

        Exercises the codecs' strict malformed-input paths: the first
        query term's first block payload is cut short and fed back to
        the scheme's own decoder, which must raise
        :class:`CompressionError`. If the truncation happens to still
        parse, the injection raises explicitly — corruption is part of
        the schedule either way.
        """
        term = self._pick_term(query)
        if term is not None:
            plist = self._engine.index.posting_list(term)
            block = plist.blocks[0]
            payload = block.doc_payload
            truncated = payload[:max(0, len(payload) - 1)]
            try:
                plist.codec.decode_block(truncated, block.metadata.count)
            except CompressionError as error:
                raise CompressionError(
                    f"shard {self.shard_id}: corrupted payload for term "
                    f"{term!r} block 0: {error}"
                ) from error
        raise CompressionError(
            f"shard {self.shard_id}: corrupted payload for query "
            f"{self._query_key(query)!r}"
        )

    def _pick_term(self, query) -> Optional[str]:
        from repro.core.query import as_query

        try:
            terms = as_query(query).terms()
        except Exception:
            return None
        index = self._engine.index
        for term in terms:
            if term in index and index.posting_list(term).blocks:
                return term
        return None


def wrap_shards(engines, faults: Union[FaultConfig, list, tuple],
                clock=None) -> list:
    """Wrap a cluster's leaf engines in :class:`FaultyEngine` instances.

    ``faults`` is one :class:`FaultConfig` applied to every shard, or a
    per-shard sequence where ``None`` entries get the zero-fault
    schedule. Shard ids follow list order, matching cluster indices.
    ``clock`` is shared by every wrapper (latency-spike sleeps).
    """
    if isinstance(faults, FaultConfig):
        faults = [faults] * len(engines)
    if len(faults) != len(engines):
        raise ConfigurationError(
            f"{len(faults)} fault configs for {len(engines)} shards"
        )
    return [
        FaultyEngine(engine, config if config is not None else ZERO_FAULTS,
                     shard_id=i, clock=clock)
        for i, (engine, config) in enumerate(zip(engines, faults))
    ]


def make_faulty_cluster(documents, num_shards: int, *,
                        faults: Union[FaultConfig, list, tuple] = ZERO_FAULTS,
                        policy=None, replication_factor: int = 1,
                        k: int = 10, observer=NULL_OBSERVER,
                        replica_faults: Optional[FaultConfig] = None,
                        clock=None):
    """Build a fault-injected, resilient cluster over ``documents``.

    The shared assembly behind the fault-tolerance benchmark, the CLI's
    cluster modes, and the fault-matrix tests: shard the documents
    (building each shard index once), stand up one BOSS engine per
    shard wrapped in a :class:`FaultyEngine`, and give every shard
    ``replication_factor - 1`` replica engines over the *same* shard
    index — each replica with its own fault-schedule stream, so a
    primary's corruption does not afflict its backups. ``faults`` is
    one config for every shard or a per-shard list; ``replica_faults``
    overrides the replicas' schedule (e.g. ``ZERO_FAULTS`` to study
    failover out of a dying primary). ``clock`` is shared by the fault
    wrappers (spike sleeps) and the cluster's resilience path (backoff
    sleeps, attempt timing); the default is the wall clock.

    Returns ``(cluster, sharded_corpus)``.
    """
    from repro.cluster.root import SearchCluster
    from repro.cluster.sharding import shard_documents
    from repro.core.engine import BossAccelerator, BossConfig

    sharded = shard_documents(documents, num_shards,
                              replication_factor=replication_factor)
    if isinstance(faults, FaultConfig):
        per_shard = [faults] * sharded.num_shards
    else:
        per_shard = [
            config if config is not None else ZERO_FAULTS
            for config in faults
        ]
    config = BossConfig(k=k)
    primaries = wrap_shards(
        [BossAccelerator(index, config) for index in sharded.indexes],
        per_shard, clock=clock,
    )
    replicas = []
    for shard_index in range(sharded.num_shards):
        group = []
        for rank, index in enumerate(sharded.replica_indexes(shard_index)):
            group.append(FaultyEngine(
                BossAccelerator(index, config),
                (replica_faults if replica_faults is not None
                 else per_shard[shard_index]),
                # Distinct stream per replica: same schedule *shape*,
                # independent draws from the primary's.
                shard_id=(rank + 1) * sharded.num_shards + shard_index,
                clock=clock,
            ))
        replicas.append(group)
    cluster = SearchCluster(primaries, observer=observer, policy=policy,
                            replicas=replicas, clock=clock)
    return cluster, sharded
