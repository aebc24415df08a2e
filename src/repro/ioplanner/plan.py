"""Window planning: dedup, run coalescing, and time attribution.

One planning window collects the block demands of every query admitted
in it (the fetches its engines recorded) and rewrites them into a fetch
plan. A block is keyed by ``(node, term, block)``: one term's posting
list on one node (a *list key*) and a block index within it. Equal
terms on different shards are different lists and never share a
fetch.

1. **Dedup** — the first demand of a key fetches it; every later
   demand in the window reads the staged copy at DRAM speed.
   Zipf-skewed logs make this the planner's cheapest win.
2. **Tier probe** — keys resident in the shared DRAM tier are hits and
   never touch SCM.
3. **Coalescing** — the remaining (miss) keys are grouped per list
   and sorted; consecutive block indices become one sequential SCM run.
   Two runs of the same list separated by a small gap are bridged when
   reading the gap sequentially is cheaper than paying the next run's
   random seek (**gap-fill**): the gap bytes are honest overhead,
   reported separately, never attributed to any query's demand.
4. **Attribution** — each demand is charged at the rate of the path
   that served it (DRAM hit / dedup copy / sequential run member /
   random singleton); a run's first block pays the random rate as its
   seek, the run rule :func:`repro.ioplanner.tier.replay_fetches` uses.

The plan's byte accounting obeys a conservation identity checked by
:meth:`RoutedBytes.check_conservation` — for one window's
:class:`FetchPlan` and for a whole run's tally alike:

    ``dram_hit + dedup + scm_seq + scm_rand == sum(demand bytes)``

i.e. the planner may *re-route* traffic between tiers and patterns but
can neither invent nor lose demanded bytes (gap-fill bytes are
accounted on top, not inside).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

from repro.scm.device import DDR4_4CH, OPTANE_NODE_4CH
from repro.scm.traffic import AccessPattern

#: Largest intra-run gap (in blocks) gap-fill may bridge.
MAX_GAP_BLOCKS = 2

#: How one demand was served. An SCM miss's pattern is decided by the
#: runs it coalesces into.
SOURCE_DRAM = "dram"
SOURCE_DEDUP = "dedup"
SOURCE_SCM = "scm"

#: One term's posting list on one node: ``(node, term)``.
ListKey = Tuple[int, str]
#: One block of a list: ``(node, term, block_index)``.
BlockKey = Tuple[int, str, int]


@dataclass(frozen=True)
class BlockDemand:
    """One block fetch demanded by one admitted query."""

    request_id: int
    tenant: str
    #: The engine that fetched the block, numbered per serving run.
    node: int
    term: str
    block_index: int
    size: int
    #: The engine-observed pattern (used by the planner-off baseline).
    pattern: AccessPattern

    @property
    def list_key(self) -> ListKey:
        return (self.node, self.term)


@dataclass(frozen=True)
class FetchRun:
    """One coalesced SCM transfer of one list's blocks."""

    list_key: ListKey
    blocks: Tuple[int, ...]
    nbytes: int

    @property
    def length(self) -> int:
        return len(self.blocks)


@dataclass
class RoutedBytes:
    """Where demanded block bytes went: one window's, or a run's tally."""

    demand_blocks: int = 0
    demand_bytes: int = 0
    dram_hit_bytes: int = 0
    dedup_bytes: int = 0
    scm_seq_bytes: int = 0
    scm_rand_bytes: int = 0
    gap_bytes: int = 0

    @property
    def scm_bytes(self) -> int:
        return self.scm_seq_bytes + self.scm_rand_bytes

    @property
    def sequential_share(self) -> float:
        """Share of SCM miss bytes moved at the sequential rate."""
        total = self.scm_bytes
        return self.scm_seq_bytes / total if total else 0.0

    def absorb(self, other: "RoutedBytes") -> None:
        """Add ``other``'s byte counts to this tally."""
        for spec in fields(RoutedBytes):
            setattr(self, spec.name,
                    getattr(self, spec.name) + getattr(other, spec.name))

    def check_conservation(self) -> None:
        """Routed bytes must equal the queries' demanded bytes."""
        routed = (self.dram_hit_bytes + self.dedup_bytes
                  + self.scm_seq_bytes + self.scm_rand_bytes)
        if routed != self.demand_bytes:
            raise AssertionError(
                f"planner lost bytes: routed {routed} != demanded "
                f"{self.demand_bytes} (dram={self.dram_hit_bytes} "
                f"dedup={self.dedup_bytes} seq={self.scm_seq_bytes} "
                f"rand={self.scm_rand_bytes})"
            )


@dataclass
class FetchPlan(RoutedBytes):
    """Accounting for one planning window."""

    runs: List[FetchRun] = field(default_factory=list)
    #: Unique blocks actually fetched from SCM: (list key, block, size).
    fetched: List[Tuple[ListKey, int, int]] = field(default_factory=list)
    per_request_seconds: Dict[int, float] = field(default_factory=dict)
    per_request_bytes: Dict[int, int] = field(default_factory=dict)
    tenant_bytes: Dict[str, int] = field(default_factory=dict)

    @property
    def num_sequential_runs(self) -> int:
        return sum(1 for run in self.runs if run.length > 1)

    def publish_metrics(self, registry) -> None:
        registry.counter(
            "planner.windows", "planning windows closed with demand"
        ).inc()
        registry.counter(
            "planner.demand_bytes", "block bytes demanded by queries"
        ).inc(self.demand_bytes)
        routed = registry.counter(
            "planner.bytes", "demand bytes by routed source"
        )
        routed.inc(self.dram_hit_bytes, source="dram")
        routed.inc(self.dedup_bytes, source="dedup")
        routed.inc(self.scm_seq_bytes, source="scm_seq")
        routed.inc(self.scm_rand_bytes, source="scm_rand")
        registry.counter(
            "planner.gap_bytes", "sequential gap-fill overhead bytes"
        ).inc(self.gap_bytes)
        runs = registry.counter(
            "planner.runs", "SCM transfers issued, by shape"
        )
        coalesced = self.num_sequential_runs
        if coalesced:
            runs.inc(coalesced, shape="coalesced")
        singletons = len(self.runs) - coalesced
        if singletons:
            runs.inc(singletons, shape="singleton")
        registry.gauge(
            "planner.last_sequential_share",
            "last window's sequential share of SCM miss bytes",
        ).set(self.sequential_share)
        tenant_bytes = registry.counter(
            "planner.tenant_bytes", "demand bytes charged per tenant"
        )
        for tenant, nbytes in self.tenant_bytes.items():
            tenant_bytes.inc(nbytes, tenant=tenant)

    def check_conservation(self) -> None:
        """As the base check, and every byte is attributed to a query."""
        super().check_conservation()
        attributed = sum(self.per_request_bytes.values())
        if attributed != self.demand_bytes:
            raise AssertionError(
                f"per-query bytes {attributed} != demanded "
                f"{self.demand_bytes}"
            )


def plan_window(demands: Sequence[BlockDemand],
                tier=None,
                enabled: bool = True) -> FetchPlan:
    """Plan one window of block demands (SCM: Table I's Optane node;
    staged copies and tier hits: DDR4).

    With ``enabled`` false this is the planner-off baseline: every
    demand goes to SCM at its engine-recorded pattern, with no dedup,
    no tier, and no coalescing — the exact traffic the per-query
    engines would have issued, which is what makes on/off comparisons
    an apples-to-apples re-routing story.
    """
    plan = FetchPlan()
    for demand in demands:
        plan.demand_blocks += 1
        plan.demand_bytes += demand.size
        plan.per_request_bytes[demand.request_id] = (
            plan.per_request_bytes.get(demand.request_id, 0) + demand.size
        )
        plan.tenant_bytes[demand.tenant] = (
            plan.tenant_bytes.get(demand.tenant, 0) + demand.size
        )
    if not enabled:
        _plan_unrouted(plan, demands)
        return plan

    # Classify demands in admission order: dedup, tier hit, or miss.
    sources: List[str] = []
    first_toucher: Dict[BlockKey, int] = {}
    miss_keys: Dict[BlockKey, int] = {}
    for position, demand in enumerate(demands):
        key = (demand.node, demand.term, demand.block_index)
        if key in first_toucher:
            sources.append(SOURCE_DEDUP)
            plan.dedup_bytes += demand.size
            continue
        first_toucher[key] = position
        if tier is not None and tier.lookup(demand.list_key,
                                            demand.block_index,
                                            demand.size):
            sources.append(SOURCE_DRAM)
            plan.dram_hit_bytes += demand.size
            continue
        sources.append(SOURCE_SCM)
        miss_keys[key] = demand.size

    # Coalesce misses into per-list runs with cost-aware gap-fill.
    key_pattern, key_gap_seconds = _coalesce(plan, miss_keys)

    # Attribute service time (and final pattern) per demand.
    for demand, source in zip(demands, sources):
        key = (demand.node, demand.term, demand.block_index)
        if source in (SOURCE_DEDUP, SOURCE_DRAM):
            seconds = DDR4_4CH.read_time(demand.size, AccessPattern.RANDOM)
        else:
            pattern = key_pattern[key]
            if pattern is AccessPattern.SEQUENTIAL:
                plan.scm_seq_bytes += demand.size
            else:
                plan.scm_rand_bytes += demand.size
            seconds = (OPTANE_NODE_4CH.read_time(demand.size, pattern)
                       + key_gap_seconds.get(key, 0.0))
        plan.per_request_seconds[demand.request_id] = (
            plan.per_request_seconds.get(demand.request_id, 0.0) + seconds
        )
    plan.check_conservation()
    return plan


def _plan_unrouted(plan: FetchPlan,
                   demands: Sequence[BlockDemand]) -> None:
    """Planner-off: charge every demand at its engine pattern."""
    for demand in demands:
        if demand.pattern is AccessPattern.SEQUENTIAL:
            plan.scm_seq_bytes += demand.size
        else:
            plan.scm_rand_bytes += demand.size
        seconds = OPTANE_NODE_4CH.read_time(demand.size, demand.pattern)
        plan.per_request_seconds[demand.request_id] = (
            plan.per_request_seconds.get(demand.request_id, 0.0) + seconds
        )
    plan.check_conservation()


def _coalesce(plan: FetchPlan, miss_keys: Dict[BlockKey, int],
              ) -> Tuple[Dict[BlockKey, AccessPattern],
                         Dict[BlockKey, float]]:
    """Group misses into runs; return per-key pattern and gap share.

    A run's first block is its seek and pays the random rate; the rest
    stream sequentially. Adjacent chunks of the same list merge
    across a gap of at most :data:`MAX_GAP_BLOCKS` blocks when reading
    the gap sequentially costs less than the seek it eliminates.
    """
    scm = OPTANE_NODE_4CH
    by_list: Dict[ListKey, List[int]] = {}
    for node, term, block in miss_keys:
        by_list.setdefault((node, term), []).append(block)

    key_pattern: Dict[BlockKey, AccessPattern] = {}
    key_gap_seconds: Dict[BlockKey, float] = {}
    for list_key in sorted(by_list):
        blocks = sorted(by_list[list_key])
        sizes = [miss_keys[(*list_key, b)] for b in blocks]
        mean_size = max(1, sum(sizes) // len(sizes))
        # Maximal consecutive chunks first.
        chunks: List[List[int]] = [[blocks[0]]]
        for block in blocks[1:]:
            if block == chunks[-1][-1] + 1:
                chunks[-1].append(block)
            else:
                chunks.append([block])
        # Bridge a chunk into the current run when the gap's streaming
        # cost undercuts the seek it saves (the next chunk's first
        # block downgrading random -> sequential).
        runs: List[Tuple[List[int], int]] = []  # (blocks, gap_bytes)
        current, gap_bytes = chunks[0], 0
        for chunk in chunks[1:]:
            gap_blocks = chunk[0] - current[-1] - 1
            bridge_bytes = gap_blocks * mean_size
            seek_size = miss_keys[(*list_key, chunk[0])]
            saved = (scm.read_time(seek_size, AccessPattern.RANDOM)
                     - scm.read_time(seek_size, AccessPattern.SEQUENTIAL))
            if (gap_blocks <= MAX_GAP_BLOCKS
                    and scm.read_time(bridge_bytes,
                                      AccessPattern.SEQUENTIAL) <= saved):
                gap_bytes += bridge_bytes
                current.extend(chunk)
            else:
                runs.append((current, gap_bytes))
                current, gap_bytes = chunk, 0
        runs.append((current, gap_bytes))

        for blocks_in_run, run_gap_bytes in runs:
            run_sizes = [miss_keys[(*list_key, b)] for b in blocks_in_run]
            run_bytes = sum(run_sizes)
            plan.runs.append(FetchRun(
                list_key=list_key, blocks=tuple(blocks_in_run),
                nbytes=run_bytes,
            ))
            plan.gap_bytes += run_gap_bytes
            gap_seconds = scm.read_time(run_gap_bytes,
                                        AccessPattern.SEQUENTIAL)
            for position, block in enumerate(blocks_in_run):
                key = (*list_key, block)
                key_pattern[key] = (
                    AccessPattern.RANDOM if position == 0
                    else AccessPattern.SEQUENTIAL
                )
                if run_gap_bytes:
                    # Pro-rata by payload share of the run.
                    key_gap_seconds[key] = (
                        gap_seconds * miss_keys[key] / run_bytes
                    )
                plan.fetched.append((list_key, block, miss_keys[key]))
    return key_pattern, key_gap_seconds
