"""Command-line interface: build, inspect, query, and profile indexes.

Installed as the ``repro-boss`` console script (``repro`` is an alias)::

    repro-boss build   --input docs.txt --output corpus.boss
    repro-boss info    --index corpus.boss
    repro-boss search  --index corpus.boss --query '"memory" AND "search"'
    repro-boss trace   --index corpus.boss --query '"memory"'
    repro-boss metrics --index corpus.boss --query '"memory"' --query '"a"'
    repro-boss bench   --queries 128 --repeat 2
    repro-boss serve   --rate 200 --queries 256 --admission reject
    repro-boss rebalance --shards 4 --replication 2
    repro-boss demo

``build`` reads one whitespace-tokenized document per line. ``search``
runs any of the three engines and reports the hits plus the performance
model's traffic/latency estimates. ``trace`` profiles one query through
the observability layer — a per-stage time/byte breakdown with the
bottleneck stage flagged (``--json`` emits the full trace schema).
``metrics`` executes a query list under a recording observer and dumps
the metrics registry. ``bench`` runs a Zipf-skewed query batch through
the worker-pool driver (:mod:`repro.batch`) and reports wall-clock
throughput per pass (later passes hit the warm decoded-block cache).
``serve`` drives the online serving layer (:mod:`repro.serving`) with
an open-loop Poisson workload: bounded admission queue, configurable
admission policy (``reject`` / ``shed-oldest`` / ``deadline``),
per-query SLO deadlines, and shed/degraded accounting. It is one code
path: a base target (synthetic corpus, ``--index``, ``--shards`` or
``--update-mix``), an optional ``--rebalance-script`` / ``--hybrid``
layer, and ``--planner`` choosing the windowed server; flag pairs that
do not compose are refused by one table (:data:`SERVE_REFUSALS`) — see
``docs/serving.md``. ``demo`` builds a small synthetic corpus and
prints the BOSS/IIU/Lucene comparison.

Cluster resilience (``--shards N`` on ``bench`` and ``trace``): both
commands can stand up a sharded cluster over a synthetic document set
(vocabulary ``t0`` ... ``t39``) with deterministic fault injection
(``--fault-rate``, ``--corruption-rate``, ``--kill-shard``) and a
retry/timeout/failover policy (``--retries``, ``--timeout-ms``,
``--replication``). ``bench --shards`` reports p50/p95/p99 plus
retry/timeout/failover counts and the degraded-result fraction;
``trace --shards`` prints the per-shard resilience breakdown of one
query. See ``docs/robustness.md``.

Elastic topology: ``rebalance`` runs shard split/merge and replica
add/catch-up moves back to back over a synthetic sharded cluster and
checks a differential ranking oracle against a monolithic index after
every move. ``serve --rebalance-script FILE`` splices the same moves
into a live serving workload as background maintenance traffic on a
shared virtual clock — queries route around a draining shard via its
replicas while the move streams, and the new shard map is published
atomically (:mod:`repro.cluster.rebalance`).
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from typing import List, Optional

from repro.baselines import IIUAccelerator, IIUConfig, LuceneConfig, LuceneEngine
from repro.core import BossAccelerator, BossConfig
from repro.errors import ReproError
from repro.index import IndexBuilder
from repro.index.binaryio import FORMAT_VERSION, save_index_binary
from repro.index.blocks import BLOCK_METADATA_BYTES
from repro.index.mmapio import STORAGE_MODES, open_index
from repro.sim.timing import BossTimingModel, IIUTimingModel, LuceneTimingModel


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-boss",
        description="BOSS (ISCA 2021) reproduction: inverted-index "
                    "search on simulated SCM pooled memory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="index a document file")
    build.add_argument("--input", required=True,
                       help="text file, one document per line")
    build.add_argument("--output", required=True, help="index file to write")
    build.add_argument("--scheme", default=None,
                       help="pin one compression scheme (default: hybrid)")
    build.add_argument("--analyze", action="store_true",
                       help="run the full analysis chain (lowercase, "
                            "stop words, S-stemming) instead of "
                            "whitespace tokenization")

    info = sub.add_parser("info", help="describe an index file")
    info.add_argument("--index", required=True)
    _add_storage_arguments(info)

    search = sub.add_parser("search", help="query an index file")
    search.add_argument("--index", required=True)
    search.add_argument("--query", required=True,
                        help='paper syntax, e.g. \'"a" AND ("b" OR "c")\'')
    search.add_argument("-k", type=int, default=10)
    search.add_argument("--engine", choices=("boss", "iiu", "lucene"),
                        default="boss")
    search.add_argument("--hybrid", choices=("rerank", "rrf"),
                        default=None,
                        help="hybrid retrieval: BM25 candidates + "
                             "vector rerank, or RRF fusion of lexical "
                             "and ANN rankings (builds the vector lane "
                             "over the index; boss engine only)")
    search.add_argument("--first-stage-k", type=int, default=100,
                        help="hybrid candidate depth (rerank: first-"
                             "stage k; rrf: per-retriever depth)")
    search.add_argument("--codec", choices=("fp32", "int8"),
                        default="fp32",
                        help="vector codec for --hybrid")
    _add_storage_arguments(search)

    vsearch = sub.add_parser(
        "vsearch",
        help="ANN vector search over an IVF layout on the SCM model")
    vsearch.add_argument("--preset", default="ccnews-like",
                         help="synthetic corpus preset")
    vsearch.add_argument("--scale", type=float, default=0.1,
                         help="synthetic corpus scale factor")
    vsearch.add_argument("--query", default=None,
                         help="one query expression (embedded via its "
                              "terms); default: a sampled query set "
                              "with a recall report")
    vsearch.add_argument("--queries", type=int, default=16,
                         help="sampled queries for the recall report")
    vsearch.add_argument("--clusters", type=int, default=None,
                         help="IVF cluster count (default sqrt(docs))")
    vsearch.add_argument("--codec", choices=("fp32", "int8"),
                         default="fp32", help="vector storage codec")
    vsearch.add_argument("--nprobe", type=int, default=None,
                         help="clusters probed per query "
                              "(default: clusters/4)")
    vsearch.add_argument("-k", type=int, default=10)
    vsearch.add_argument("--device", choices=("scm", "dram"),
                         default="scm",
                         help="device model holding the cluster layout")
    vsearch.add_argument("--save", default=None,
                         help="write the IVF layout to this .bossv file")
    vsearch.add_argument("--ivf", default=None,
                         help="load a pre-built .bossv layout instead "
                              "of clustering")
    vsearch.add_argument("--seed", type=int, default=1,
                         help="query-sampling seed")
    vsearch.add_argument("--json", action="store_true",
                         help="emit the report as JSON")

    check = sub.add_parser("validate",
                           help="integrity-check an index file")
    check.add_argument("--index", required=True)
    check.add_argument("--fast", action="store_true",
                       help="structural checks only (skip score bounds)")
    _add_storage_arguments(check)

    trace = sub.add_parser(
        "trace", help="per-stage profile of one query (observability)")
    trace.add_argument("--index", default=None,
                       help="index file (required unless --shards)")
    trace.add_argument("--query", required=True,
                       help='paper syntax, e.g. \'"a" AND "b"\'')
    trace.add_argument("-k", type=int, default=10)
    trace.add_argument("--engine", choices=("boss", "iiu"), default="boss")
    trace.add_argument("--json", action="store_true",
                       help="emit the full trace record as JSON")
    _add_storage_arguments(trace)
    _add_fault_arguments(trace)

    metrics = sub.add_parser(
        "metrics", help="run queries and dump the metrics registry")
    metrics.add_argument("--index", required=True)
    metrics.add_argument("--query", action="append", required=True,
                         help="query expression (repeatable)")
    metrics.add_argument("-k", type=int, default=10)
    metrics.add_argument("--json", action="store_true",
                         help="emit the registry snapshot as JSON")
    _add_storage_arguments(metrics)

    bench = sub.add_parser(
        "bench",
        help="wall-clock throughput of a query batch (worker processes)")
    bench.add_argument("--index", default=None,
                       help="index file (default: synthetic corpus)")
    bench.add_argument("--preset", default="ccnews-like",
                       help="synthetic corpus preset when no --index")
    bench.add_argument("--scale", type=float, default=0.2,
                       help="synthetic corpus scale factor")
    bench.add_argument("--queries", type=int, default=64,
                       help="queries in the batch (Zipf-skewed log)")
    bench.add_argument("--unique", type=int, default=16,
                       help="distinct queries behind the Zipf log")
    bench.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: 1)")
    bench.add_argument("-k", type=int, default=10)
    bench.add_argument("--repeat", type=int, default=2,
                       help="passes over the batch")
    bench.add_argument("--seed", type=int, default=1)
    bench.add_argument("--json", action="store_true",
                       help="emit the reports as JSON")
    _add_storage_arguments(bench)
    _add_fault_arguments(bench)

    serve = sub.add_parser(
        "serve",
        help="sustained-load serving with admission control and SLOs")
    serve.add_argument("--index", default=None,
                       help="index file (default: synthetic corpus)")
    serve.add_argument("--preset", default="ccnews-like",
                       help="synthetic corpus preset when no --index")
    serve.add_argument("--scale", type=float, default=0.2,
                       help="synthetic corpus scale factor")
    serve.add_argument("--rate", type=float, default=200.0,
                       help="offered load (queries/second, Poisson)")
    serve.add_argument("--queries", type=int, default=256,
                       help="requests in the open-loop workload")
    serve.add_argument("--unique", type=int, default=32,
                       help="distinct queries behind the Zipf log")
    serve.add_argument("--workers", type=int, default=4,
                       help="serving worker pool size")
    serve.add_argument("--queue", type=int, default=32,
                       help="admission queue capacity")
    serve.add_argument("--admission",
                       choices=("reject", "shed-oldest", "deadline"),
                       default="reject",
                       help="policy when the admission queue is full")
    serve.add_argument("--deadline-ms", type=float, default=None,
                       help="per-query SLO deadline (required for the "
                            "deadline admission policy)")
    serve.add_argument("-k", type=int, default=10)
    serve.add_argument("--seed", type=int, default=1)
    serve.add_argument("--update-mix", type=float, default=0.0,
                       help="fraction of requests that mutate a live "
                            "index (adds + oldest-doc deletes); runs "
                            "the serving timeline on a virtual clock "
                            "with background merges interleaved")
    serve.add_argument("--device", choices=("scm", "dram"),
                       default="scm",
                       help="maintenance device model for --update-mix")
    serve.add_argument("--planner", action="store_true",
                       help="serve through the global I/O planner: "
                            "windowed cross-query block coalescing, a "
                            "shared DRAM tier, and per-tenant quotas "
                            "(see docs/io_planner.md)")
    serve.add_argument("--no-planning", action="store_true",
                       help="with --planner: keep the windowed loop "
                            "but disable dedup/tier/coalescing (the "
                            "planner-off baseline)")
    serve.add_argument("--plan-window", type=float, default=2.0,
                       help="planning window in milliseconds "
                            "(default 2.0)")
    serve.add_argument("--dram-mb", type=float, default=64.0,
                       help="shared DRAM tier capacity in MiB "
                            "(0 disables the tier)")
    serve.add_argument("--tenants", default=None,
                       help="comma-separated tenant quotas as "
                            "NAME=BYTES_PER_WINDOW (e.g. "
                            "'web=65536,batch=16384'); requests are "
                            "assigned round-robin")
    serve.add_argument("--hybrid", choices=("rerank", "rrf"),
                       default=None,
                       help="serve hybrid lexical+vector traffic: the "
                            "vector lane is built over the corpus and "
                            "each request pays lexical device time + "
                            "ANN scan time + host rerank time on the "
                            "virtual timeline")
    serve.add_argument("--rebalance-script", default=None,
                       help="splice elastic topology moves (split/merge/"
                            "add-replica) into the workload as background "
                            "maintenance traffic; requires --shards. "
                            "Script lines: '@SECONDS split SHARD DOC', "
                            "'@SECONDS merge SHARD', "
                            "'@SECONDS add-replica SHARD [WAL_DIR]'")
    serve.add_argument("--json", action="store_true",
                       help="emit the serving report as JSON")
    _add_storage_arguments(serve)
    _add_fault_arguments(serve)

    rebalance = sub.add_parser(
        "rebalance",
        help="elastic shard moves with a differential ranking oracle")
    rebalance.add_argument("--script", default=None,
                           help="rebalance script file (lines: "
                                "'split SHARD DOC', 'merge SHARD', "
                                "'add-replica SHARD [WAL_DIR]'; optional "
                                "'@SECONDS' prefix is ignored here — "
                                "moves run back to back). Default: a "
                                "split -> merge -> add-replica demo "
                                "sequence")
    rebalance.add_argument("-k", type=int, default=10)
    rebalance.add_argument("--oracle-queries", type=int, default=24,
                           help="Zipf-sampled queries checked against "
                                "the monolithic index after every move "
                                "(0 disables the oracle)")
    rebalance.add_argument("--json", action="store_true",
                           help="emit per-move reports as JSON")
    _add_fault_arguments(rebalance)

    ingest = sub.add_parser(
        "ingest",
        help="live-index ingest: buffered adds, seals, tiered merges")
    ingest.add_argument("--docs", type=int, default=2000,
                        help="documents to ingest")
    ingest.add_argument("--delete-every", type=int, default=0,
                        help="delete the oldest live doc every N adds "
                             "(0 = append-only)")
    ingest.add_argument("--buffer", type=int, default=128,
                        help="write-buffer capacity in documents")
    ingest.add_argument("--fanout", type=int, default=4,
                        help="merge-policy fanout (segments per merge)")
    ingest.add_argument("--vocab", type=int, default=64,
                        help="synthetic vocabulary size")
    ingest.add_argument("--device", choices=("scm", "dram"),
                        default="scm",
                        help="device model timing the seals and merges")
    ingest.add_argument("--seed", type=int, default=1)
    ingest.add_argument("--wal-dir", default=None,
                        help="durable mode: WAL + manifest + segment "
                             "files in this directory; an existing log "
                             "is crash-recovered before ingest continues")
    ingest.add_argument("--json", action="store_true",
                        help="emit the ingest report as JSON")

    sub.add_parser("demo", help="synthetic-corpus engine comparison")
    return parser


def _add_storage_arguments(command) -> None:
    """Index-loading flag shared by every command that takes --index."""
    command.add_argument("--storage", choices=STORAGE_MODES,
                         default="mmap",
                         help="how the .bossx index is held in memory "
                              "(mmap: zero-copy views of the file; "
                              "binary: read fully into memory)")


def _load_cli_index(args):
    """Open ``args.index`` honoring the storage flag."""
    return open_index(args.index, storage=args.storage)


def _add_fault_arguments(command) -> None:
    """Cluster fault-injection / resilience flags (bench and trace)."""
    group = command.add_argument_group(
        "cluster resilience",
        "run a sharded cluster with deterministic fault injection "
        "(--shards enables the mode; synthetic documents, no --index)",
    )
    group.add_argument("--shards", type=int, default=0,
                       help="leaf shards (0 = single engine, the default)")
    group.add_argument("--replication", type=int, default=1,
                       help="leaf nodes per shard (1 = no replicas)")
    group.add_argument("--fault-rate", type=float, default=0.0,
                       help="transient leaf-failure probability per query")
    group.add_argument("--corruption-rate", type=float, default=0.0,
                       help="corrupted-payload probability per query")
    group.add_argument("--kill-shard", type=int, default=None,
                       help="shard whose primary dies after the first "
                            "query (replicas stay healthy)")
    group.add_argument("--fault-seed", type=int, default=7,
                       help="fault schedule seed")
    group.add_argument("--retries", type=int, default=2,
                       help="extra attempts per leaf engine")
    group.add_argument("--timeout-ms", type=float, default=None,
                       help="per-attempt leaf timeout (ms)")
    group.add_argument("--cluster-docs", type=int, default=1200,
                       help="synthetic documents behind the cluster")


#: Query vocabulary of the synthetic documents behind ``--shards``.
_CLUSTER_VOCAB = [f"t{i}" for i in range(40)]


def _terms_by_df(index) -> List[str]:
    """An index file's vocabulary, most frequent term first."""
    return sorted(
        index.terms,
        key=lambda t: index.posting_list(t).document_frequency,
        reverse=True,
    )


def _engine_target(args):
    """One engine over ``--index`` or the ``--preset`` synthetic corpus.

    Returns ``(engine, terms_by_df, corpus)``; ``corpus`` is None for
    an index file.
    """
    if args.index:
        index = _load_cli_index(args)
        return (BossAccelerator(index, BossConfig(k=args.k)),
                _terms_by_df(index), None)
    from repro.workloads import make_corpus

    corpus = make_corpus(args.preset, scale=args.scale)
    return (BossAccelerator(corpus.index, BossConfig(k=args.k)),
            corpus.terms_by_df(), corpus)


def _build_fault_cluster(args, k: int, clock=None):
    """Assemble the faulty resilient cluster the CLI flags describe."""
    from repro.cluster.resilience import ResiliencePolicy
    from repro.faults import ZERO_FAULTS, FaultConfig, make_faulty_cluster
    from repro.workloads import synthetic_documents

    base = FaultConfig(
        seed=args.fault_seed,
        transient_failure_probability=args.fault_rate,
        corruption_probability=args.corruption_rate,
    )
    if args.kill_shard is not None:
        from dataclasses import replace

        faults = [
            replace(base, permanent_failure_after=0)
            if shard == args.kill_shard else base
            for shard in range(args.shards)
        ]
    else:
        faults = base
    policy = ResiliencePolicy(
        timeout_seconds=(args.timeout_ms / 1e3
                         if args.timeout_ms is not None else None),
        max_retries=args.retries,
        allow_degraded=True,
    )
    cluster, sharded = make_faulty_cluster(
        synthetic_documents(num_docs=args.cluster_docs, seed=args.fault_seed),
        args.shards, faults=faults, policy=policy,
        replication_factor=args.replication, k=k,
        replica_faults=ZERO_FAULTS if args.kill_shard is not None else None,
        clock=clock,
    )
    return cluster, sharded


def _cmd_build(args) -> int:
    builder = IndexBuilder(
        schemes=[args.scheme] if args.scheme else None
    )
    if args.analyze:
        from repro.text import analyze
    count = 0
    with open(args.input) as handle:
        for line in handle:
            if not line.strip():
                continue
            tokens = analyze(line) if args.analyze else line.split()
            builder.add_document(tokens if tokens else ["__empty__"])
            count += 1
    index = builder.build()
    save_index_binary(index, args.output)
    print(f"indexed {count} documents, {index.num_terms} terms, "
          f"{index.compressed_bytes} compressed bytes -> {args.output}")
    return 0


def _cmd_info(args) -> int:
    index = _load_cli_index(args)
    stats = index.stats
    print(f"format:           .bossx v{FORMAT_VERSION}, "
          f"{BLOCK_METADATA_BYTES} B block records")
    print(f"documents:        {stats.num_docs}")
    print(f"terms:            {index.num_terms}")
    print(f"avg doc length:   {stats.avgdl:.1f} tokens")
    print(f"compressed size:  {index.compressed_bytes} B")
    print(f"raw size:         {index.uncompressed_bytes} B "
          f"(ratio {index.uncompressed_bytes / max(1, index.compressed_bytes):.2f}x)")
    schemes = {}
    for term in index:
        scheme = index.posting_list(term).scheme
        schemes[scheme] = schemes.get(scheme, 0) + 1
    print("scheme mix:       " + ", ".join(
        f"{s}={n}" for s, n in sorted(schemes.items())
    ))
    return 0


def _cmd_search(args) -> int:
    index = _load_cli_index(args)
    if args.hybrid:
        return _search_hybrid(args, index)
    if args.engine == "boss":
        engine = BossAccelerator(index, BossConfig(k=args.k))
        model = BossTimingModel()
    elif args.engine == "iiu":
        engine = IIUAccelerator(index, IIUConfig(k=args.k))
        model = IIUTimingModel()
    else:
        engine = LuceneEngine(index, LuceneConfig(k=args.k))
        model = LuceneTimingModel()
    result = engine.search(args.query, k=args.k)
    print(f"[{result.query_type}] {args.query} on {args.engine}")
    for rank, hit in enumerate(result.hits, start=1):
        print(f"{rank:>3}. doc {hit.doc_id:<8} score {hit.score:.4f}")
    if not result.hits:
        print("  (no matching documents)")
    latency = model.query_seconds(result)
    print(f"traffic: {result.traffic.total_bytes} B device, "
          f"{result.interconnect_bytes} B host link; "
          f"modeled latency {latency * 1e6:.1f} us")
    return 0


def _search_hybrid(args, index) -> int:
    """``search --hybrid``: lexical + vector retrieval over one index."""
    from repro.errors import ConfigurationError

    if args.engine != "boss":
        raise ConfigurationError(
            "--hybrid runs on the boss engine; drop --engine"
        )
    from repro.api import BossSession

    session = BossSession(BossConfig(k=args.k))
    session.init(index)
    session.init_vectors(codec=args.codec)
    result = session.search_hybrid(
        args.query, k=args.k, mode=args.hybrid,
        first_stage_k=args.first_stage_k,
    )
    print(f"[hybrid:{result.mode}] {args.query}")
    for rank, hit in enumerate(result.hits, start=1):
        print(f"{rank:>3}. doc {hit.doc_id:<8} score {hit.score:.4f}")
    if not result.hits:
        print("  (no matching documents)")
    if result.mode == "rerank":
        print(f"{result.candidates} candidates rescored, "
              f"rerank {result.rerank_seconds * 1e6:.1f} us host")
    else:
        vec = result.vector
        print(f"fused {result.candidates} candidates; ANN probed "
              f"{vec.clusters_probed} clusters / "
              f"{vec.vectors_scanned} vectors "
              f"({vec.demand_bytes} B demand)")
    print(f"modeled end-to-end latency "
          f"{result.modeled_seconds * 1e6:.1f} us")
    return 0


def _cmd_vsearch(args) -> int:
    """``vsearch``: the ANN lane standalone, with its traffic ledger."""
    import json

    from repro.errors import ConfigurationError
    from repro.vector import VectorEngine, build_ivf, embed_corpus
    from repro.workloads import make_corpus

    corpus = make_corpus(args.preset, scale=args.scale)
    embeddings = embed_corpus(corpus)
    if args.ivf:
        from repro.vector import load_ivf

        ivf = load_ivf(args.ivf)
        if ivf.num_docs != embeddings.num_docs:
            raise ConfigurationError(
                f"{args.ivf} holds {ivf.num_docs} vectors but the "
                f"corpus has {embeddings.num_docs} documents"
            )
    else:
        ivf = build_ivf(embeddings, num_clusters=args.clusters,
                        codec=args.codec)
    if args.save:
        from repro.vector import save_ivf

        nbytes = save_ivf(ivf, args.save)
        print(f"wrote {args.save} ({nbytes} B)")
    engine = VectorEngine(ivf, embeddings,
                          device=_live_device(args.device),
                          nprobe=args.nprobe)

    if args.query:
        result = engine.search(args.query, k=args.k)
        oracle = engine.brute_force(args.query, k=args.k)
        oracle_ids = [hit.doc_id for hit in oracle]
        if args.json:
            print(json.dumps({
                "query": args.query, "hits": [
                    {"doc_id": h.doc_id, "score": h.score}
                    for h in result.hits
                ],
                "nprobe": result.nprobe,
                "clusters_probed": result.clusters_probed,
                "vectors_scanned": result.vectors_scanned,
                "centroid_bytes": result.centroid_bytes,
                "cluster_seq_bytes": result.cluster_seq_bytes,
                "cluster_hop_bytes": result.cluster_hop_bytes,
                "demand_bytes": result.demand_bytes,
                "modeled_seconds": result.modeled_seconds,
                "brute_force": oracle_ids,
            }, indent=2))
            return 0
        print(f"[vector] {args.query} on {ivf.num_clusters} clusters "
              f"({ivf.codec}), nprobe={result.nprobe}, "
              f"device={args.device}")
        for rank, hit in enumerate(result.hits, start=1):
            marker = " " if hit.doc_id in oracle_ids else "*"
            print(f"{rank:>3}.{marker}doc {hit.doc_id:<8} "
                  f"cosine {hit.score:.4f}")
        print(f"probed {result.clusters_probed} clusters / "
              f"{result.vectors_scanned} vectors "
              f"({result.coalesced_probes} probes coalesced)")
        print(f"traffic: centroid {result.centroid_bytes} B seq + "
              f"cluster {result.cluster_seq_bytes} B seq + "
              f"{result.cluster_hop_bytes} B random hops "
              f"= {result.demand_bytes} B demand (conserved)")
        print(f"modeled latency {result.modeled_seconds * 1e6:.2f} us")
        return 0

    # Query-set mode: sampled term queries, recall + latency report.
    from repro.batch import percentile
    from repro.workloads.queries import QuerySampler

    sampler = QuerySampler(corpus.terms_by_df(), seed=args.seed)
    queries = [
        spec.expression
        for spec in sampler.sample_zipf_log(
            max(1, args.queries), unique_queries=max(1, args.queries)
        )
    ]
    recall = engine.recall_at_k(queries, k=args.k)
    latencies = sorted(
        engine.search(q, k=args.k).modeled_seconds for q in queries
    )
    p50 = percentile(latencies, 0.50)
    p99 = percentile(latencies, 0.99)
    payload = {
        "preset": args.preset, "scale": args.scale,
        "num_docs": embeddings.num_docs, "dim": embeddings.dim,
        "clusters": ivf.num_clusters, "codec": ivf.codec,
        "nprobe": engine.nprobe, "device": args.device,
        "queries": len(queries), "k": args.k,
        f"recall_at_{args.k}": recall,
        "p50_modeled_us": p50 * 1e6, "p99_modeled_us": p99 * 1e6,
        "packed_bytes": ivf.packed_bytes,
        "centroid_bytes": ivf.centroid_bytes,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(f"{embeddings.num_docs} docs x dim {embeddings.dim} -> "
          f"{ivf.num_clusters} clusters ({ivf.codec}), "
          f"layout {ivf.packed_bytes} B on {args.device} + "
          f"{ivf.centroid_bytes} B centroids in DRAM")
    print(f"{len(queries)} queries, nprobe={engine.nprobe}: "
          f"recall@{args.k} {recall:.3f} vs exact")
    print(f"modeled latency p50={p50 * 1e6:.2f} us "
          f"p99={p99 * 1e6:.2f} us")
    return 0


def _cmd_validate(args) -> int:
    from repro.index.validate import validate_index

    index = _load_cli_index(args)
    report = validate_index(index, check_scores=not args.fast)
    print(f"terms: {report.terms_checked}, blocks: "
          f"{report.blocks_checked}, postings: {report.postings_checked}")
    for warning in report.warnings[:10]:
        print(f"warning: {warning}")
    if report.ok:
        print("index OK")
        return 0
    for error in report.errors[:20]:
        print(f"ERROR: {error}")
    print(f"{len(report.errors)} integrity errors")
    return 1


def _cmd_trace(args) -> int:
    import json

    from repro.observability import RecordingObserver, build_trace, render_trace

    if args.shards:
        return _cmd_trace_cluster(args)
    if not args.index:
        from repro.errors import ConfigurationError

        raise ConfigurationError("trace needs --index (or --shards)")
    index = _load_cli_index(args)
    if args.engine == "boss":
        from repro.api import BossSession

        observer = RecordingObserver()
        session = BossSession(BossConfig(k=args.k), observer=observer)
        session.init(index)
        session.search(args.query, k=args.k)
        trace = observer.last_trace
    else:
        engine = IIUAccelerator(index, IIUConfig(k=args.k))
        result = engine.search(args.query, k=args.k)
        trace = build_trace(IIUTimingModel(), result, engine="IIU")
    if args.json:
        print(json.dumps(trace.to_dict(), indent=2))
    else:
        print(render_trace(trace))
    return 0


def _cmd_trace_cluster(args) -> int:
    """``trace --shards N``: per-shard resilience breakdown of a query."""
    import json

    from repro.cluster.resilience import describe_outcomes

    cluster, _sharded = _build_fault_cluster(args, args.k)
    merged = cluster.search(args.query, k=args.k)
    if args.json:
        record = {
            "query": args.query,
            "shards": args.shards,
            "replication": args.replication,
            "degraded": merged.degraded,
            "shards_failed": list(merged.shards_failed),
            "leaf_retries": merged.leaf_retries,
            "leaf_timeouts": merged.leaf_timeouts,
            "leaf_failovers": merged.leaf_failovers,
            "hits": [
                {"doc_id": hit.doc_id, "score": hit.score}
                for hit in merged.hits
            ],
            "leaves": [
                None if outcome is None else {
                    "shard": outcome.shard_index,
                    "failed": outcome.failed,
                    "attempts": outcome.attempts,
                    "retries": outcome.retries,
                    "timeouts": outcome.timeouts,
                    "failovers": outcome.failovers,
                    "elapsed_seconds": outcome.elapsed_seconds,
                    "error": outcome.error,
                }
                for outcome in merged.leaf_outcomes
            ],
        }
        print(json.dumps(record, indent=2))
        return 0
    state = "DEGRADED" if merged.degraded else "complete"
    print(f"{args.query} over {args.shards} shards "
          f"x{args.replication}: {state}, {len(merged.hits)} hits")
    print(describe_outcomes(merged.leaf_outcomes))
    if merged.shards_failed:
        print(f"failed shards: {sorted(merged.shards_failed)}")
    print(f"resilience: retries={merged.leaf_retries} "
          f"timeouts={merged.leaf_timeouts} "
          f"failovers={merged.leaf_failovers}")
    return 0


def _cmd_metrics(args) -> int:
    import json

    from repro.api import BossSession
    from repro.observability import RecordingObserver, render_metrics
    from repro.scm.pool import MemoryPool

    index = _load_cli_index(args)
    observer = RecordingObserver()
    MemoryPool().publish_metrics(observer.registry)
    session = BossSession(BossConfig(k=args.k), observer=observer)
    session.init(index)
    for expression in args.query:
        session.search(expression, k=args.k)
    if args.json:
        print(json.dumps(observer.registry.snapshot(), indent=2))
    else:
        print(f"{len(observer.traces)} queries recorded")
        print(render_metrics(observer.registry))
    return 0


def _cmd_bench(args) -> int:
    """``bench``: passes of one sampled batch through the batch driver.

    One engine (``--index`` or a synthetic corpus) or, with
    ``--shards``, a resilient cluster under injected faults — the
    driver takes either, so only the target and the columns its
    results add to the report differ.
    """
    import json

    from repro.batch import run_query_batch
    from repro.errors import ConfigurationError
    from repro.workloads import QuerySampler

    if args.shards:
        if args.index:
            raise ConfigurationError(
                "--shards benches a synthetic sharded corpus; drop --index"
            )
        target, _sharded = _build_fault_cluster(args, args.k)
        terms_by_df = _CLUSTER_VOCAB
    else:
        target, terms_by_df, _corpus = _engine_target(args)
    sampler = QuerySampler(terms_by_df, seed=args.seed)
    unique = max(1, min(args.unique, args.queries))
    queries = [
        spec.expression
        for spec in sampler.sample_zipf_log(args.queries,
                                            unique_queries=unique)
    ]
    passes = []
    for _ in range(max(1, args.repeat)):
        batch = run_query_batch(target, queries, k=args.k,
                                workers=args.workers)
        record = batch.report.to_dict()
        if args.shards:
            for key in ("leaf_retries", "leaf_timeouts", "leaf_failovers"):
                record[key] = sum(getattr(r, key) for r in batch.results)
            record["failed_shards"] = sorted({
                shard for r in batch.results for shard in r.shards_failed
            })
        passes.append(record)
    workers = passes[0]["workers"]

    #: (title, pass-record key, display scale, format) per table column.
    columns = [("qps", "queries_per_second", 1, ".1f"),
               ("p50 (ms)", "p50_seconds", 1e3, ".2f"),
               ("p95 (ms)", "p95_seconds", 1e3, ".2f")]
    if args.shards:
        payload = {
            "shards": args.shards,
            "replication": args.replication,
            "fault_rate": args.fault_rate,
            "corruption_rate": args.corruption_rate,
            "retries_budget": args.retries,
            "timeout_ms": args.timeout_ms,
        }
        where = (f" over {args.shards} shards x{args.replication}, "
                 f"fault rate {args.fault_rate:g}, "
                 f"corruption {args.corruption_rate:g}, "
                 f"retries {args.retries}")
        columns += [("p99 (ms)", "p99_seconds", 1e3, ".2f"),
                    ("retries", "leaf_retries", 1, "d"),
                    ("timeouts", "leaf_timeouts", 1, "d"),
                    ("failover", "leaf_failovers", 1, "d"),
                    ("degraded", "degraded_fraction", 1, ".1%")]
        footer = []
    else:
        cache = target.decoded_cache
        payload = {"executor": target.executor, "decoded_cache": None}
        where = f", {target.executor} executor"
        # Forked workers warm and count their own copies of the cache.
        footer = ["decoded-block cache: one per worker process, "
                  "not reported"]
        if workers == 1:
            payload["decoded_cache"] = {"hits": cache.hits,
                                        "misses": cache.misses,
                                        "hit_rate": cache.hit_rate}
            footer = [f"decoded-block cache: {cache.hits} hits / "
                      f"{cache.misses} misses ({cache.hit_rate:.1%})"]
    payload["passes"] = passes
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(f"{len(queries)} queries ({unique} unique){where}, "
          f"workers={workers}")
    print(f"{'pass':<6}"
          + "".join(f"{title:>10}" for title, _, _, _ in columns))
    for number, record in enumerate(passes, start=1):
        # One process's passes differ by its cache state; cluster
        # passes (by the fault schedule's draws) and forked passes
        # (each worker's own cache) are just numbered.
        label = number if args.shards or workers > 1 else (
            "cold" if number == 1 else "warm")
        print(f"{label:<6}" + "".join(
            f"{format(record[key] * scale, spec):>10}"
            for _, key, scale, spec in columns))
        if record.get("failed_shards"):
            print(f"      failed shards: {record['failed_shards']}")
    for line in footer:
        print(line)
    return 0


def _live_device(name: str):
    """Maintenance device model for the live-index commands."""
    from repro.scm.device import DDR4_4CH, OPTANE_NODE_4CH

    return OPTANE_NODE_4CH if name == "scm" else DDR4_4CH


def _live_corpus(tag: str, num_docs: int, vocab_size: int):
    """``(vocab, documents)``: a synthetic live corpus drawn from
    ``random.Random(tag)``.

    Document ``i`` always contains vocabulary term ``i mod vocab_size``
    (plus 3–23 seeded random filler terms), so every term keeps live
    coverage even under oldest-document churn — queries over the
    vocabulary never hit a dead term. The sizes are checked here, before
    the caller builds anything; the documents are drawn lazily.
    """
    import random as _random

    from repro.errors import ConfigurationError

    if vocab_size < 1:
        raise ConfigurationError(
            f"vocabulary size must be >= 1, got {vocab_size}")
    if num_docs < 0:
        raise ConfigurationError(
            f"document count must be >= 0, got {num_docs}")
    vocab = [f"t{i}" for i in range(vocab_size)]
    rng = _random.Random(tag)

    def documents():
        for i in range(num_docs):
            length = rng.randint(4, 24)
            tokens = [vocab[i % vocab_size]]
            tokens += [rng.choice(vocab) for _ in range(length - 1)]
            yield tokens

    return vocab, documents()


def _build_live_writer(seed: int, num_docs: int, vocab_size: int, device):
    """A live writer (128-document buffer, the default merge fanout)
    pre-loaded with :func:`_live_corpus`."""
    from repro.live import LiveIndexWriter

    vocab, documents = _live_corpus(f"live-corpus:{seed}", num_docs,
                                    vocab_size)
    writer = LiveIndexWriter(device=device, buffer_docs=128)
    for tokens in documents:
        writer.add_document(tokens)
    writer.flush()
    return writer, vocab


#: ``serve`` flag pairs that do not compose, and why. A pair is either
#: in this table or it is served (``docs/serving.md`` mirrors it).
SERVE_REFUSALS = (
    ("shards", "index",
     "--shards serves a synthetic sharded corpus"),
    ("update_mix", "index",
     "--update-mix serves a live synthetic corpus"),
    ("update_mix", "shards",
     "the live index is not sharded"),
    ("hybrid", "index",
     "--hybrid builds its vector lane over a synthetic corpus"),
    ("hybrid", "shards",
     "the vector lane is not sharded"),
    ("hybrid", "update_mix",
     "the vector lane is built once over a read-only corpus"),
    ("hybrid", "planner",
     "the planner does not see the vector lane's traffic"),
)


def _cmd_serve(args) -> int:
    """``serve``: sustained open-loop load through the serving layer.

    One path for every flag set: build the base target, layer
    rebalance / hybrid over it, build the requests, pick the server,
    and print one report — a shared section plus one per layer.
    """
    import json

    from repro.errors import ConfigurationError
    from repro.serving import splice_requests, zipf_workload

    for first, second, why in SERVE_REFUSALS:
        if getattr(args, first) and getattr(args, second):
            raise ConfigurationError(
                f"serve cannot combine --{first.replace('_', '-')} with "
                f"--{second.replace('_', '-')}: {why}"
            )
    if args.rebalance_script and not args.shards:
        raise ConfigurationError("--rebalance-script requires --shards")
    timed_ops = (_load_rebalance_ops(args.rebalance_script)
                 if args.rebalance_script else [])
    target, vocab, where, sections = _serve_target(args, timed_ops)
    config = _serve_config(args)
    requests = zipf_workload(
        vocab, args.queries, args.rate, unique_queries=args.unique,
        seed=args.seed, update_mix=args.update_mix,
        tenants=[t.name for t in config.tenants] if args.planner else None,
    )
    if timed_ops:
        from repro.cluster import rebalance_requests

        requests = splice_requests(requests, rebalance_requests(timed_ops))
    if args.planner:
        sections.append(partial(_planner_section, config))
    result = _serve_server(target, config).serve(requests)
    report = result.report
    layers = [section(requests, result) for section in sections]

    if args.json:
        payload = dict(report.to_dict(), rate_qps=args.rate,
                       workers=args.workers, shards=args.shards,
                       queue_capacity=config.queue_capacity)
        if not args.planner:
            payload["admission"] = args.admission
        for stats, _lines in layers:
            payload.update(stats)
        print(json.dumps(payload, indent=2))
        return 0
    if args.planner:
        mode = "planning on" if config.enabled else "planning OFF (baseline)"
        how = (f"through the I/O planner ({mode}), "
               f"window={args.plan_window:g}ms, dram={args.dram_mb:g}MiB, "
               f"workers={args.workers}")
    else:
        how = (f"workers={args.workers}, queue={args.queue}, "
               f"admission={args.admission}")
    print(f"{args.queries} requests at {args.rate:g} qps offered "
          f"({where}), {how}")
    print(f"served {report.served} ({report.served_degraded} degraded), "
          f"shed {report.shed} ({report.shed_fraction:.1%})")
    if report.shed_by_reason:
        detail = ", ".join(f"{reason}={count}" for reason, count
                           in sorted(report.shed_by_reason.items()))
        print(f"shed by reason: {detail}")
    if report.deadline_seconds is not None:
        print(f"SLO {report.deadline_seconds * 1e3:g}ms: "
              f"{report.slo_attained} attained, "
              f"{report.slo_violated} violated "
              f"({report.slo_violation_fraction:.1%} violation incl. shed)")
    print(f"throughput: {report.achieved_qps:.1f} qps achieved vs "
          f"{report.offered_qps:.1f} offered")
    print(f"latency ms: p50={report.p50_latency_seconds * 1e3:.3f} "
          f"p95={report.p95_latency_seconds * 1e3:.3f} "
          f"p99={report.p99_latency_seconds * 1e3:.3f}")
    print(f"queue depth: mean={report.mean_queue_depth:.2f} "
          f"max={report.max_queue_depth}")
    for _stats, lines in layers:
        print("\n".join(lines))
    return 0


def _serve_target(args, timed_ops):
    """Steps 1-2 of ``serve``: the base target, then its layer.

    Returns ``(target, vocab, where, sections)``: the query vocabulary
    in descending document frequency, the header's description of what
    is being served, and the per-layer report sections — callables
    ``(requests, result) -> (json_stats, text_lines)``.

    The live, rebalancing and hybrid targets carry a modeled
    ``service_time`` (the first two on a maintenance timeline), so those runs
    are pure functions of the seeds; a bare engine or cluster is timed
    on the wall clock.
    """
    if args.update_mix:
        from repro.live import LiveServingTarget

        num_docs = max(64, int(1600 * args.scale))
        writer, vocab = _build_live_writer(
            args.seed, num_docs, vocab_size=32,
            device=_live_device(args.device))
        return (LiveServingTarget(writer), vocab,
                f"live index, {num_docs} initial docs on {args.device}",
                [partial(_live_section, args, writer)])
    if args.shards:
        from repro.clock import VirtualClock
        from repro.cluster import Rebalancer, RebalancingClusterTarget

        where = f"{args.shards} shards x{args.replication}"
        clock = VirtualClock() if timed_ops else None
        cluster, sharded = _build_fault_cluster(args, args.k, clock=clock)
        if not timed_ops:
            return cluster, _CLUSTER_VOCAB, where, []
        rebalancer = Rebalancer(cluster, sharded, clock=clock, k=args.k)
        return (RebalancingClusterTarget(cluster, rebalancer),
                _CLUSTER_VOCAB,
                f"{where} + {len(timed_ops)} rebalance moves",
                [partial(_rebalance_section, timed_ops, rebalancer,
                         cluster, sharded)])
    engine, vocab, corpus = _engine_target(args)
    if not args.hybrid:
        return engine, vocab, "single engine", []
    from repro.vector import (
        HybridSearch,
        HybridServingTarget,
        VectorEngine,
        build_ivf,
        embed_corpus,
    )

    embeddings = embed_corpus(corpus)
    vectors = VectorEngine(build_ivf(embeddings), embeddings,
                           device=_live_device(args.device))
    target = HybridServingTarget(
        HybridSearch(engine, vectors, mode=args.hybrid))
    return (target, vocab, "single engine",
            [partial(_hybrid_section, args, vectors)])


def _serve_config(args):
    """The one ``serve`` option -> server config mapping."""
    deadline = (args.deadline_ms / 1e3
                if args.deadline_ms is not None else None)
    if not args.planner:
        from repro.serving import ServingConfig

        return ServingConfig(
            workers=args.workers, queue_capacity=args.queue,
            admission=args.admission, deadline_seconds=deadline, k=args.k,
        )
    from repro.ioplanner import PlannerConfig

    return PlannerConfig(
        window_seconds=args.plan_window / 1e3,
        dram_bytes=int(args.dram_mb * (1 << 20)),
        enabled=not args.no_planning,
        workers=args.workers,
        queue_capacity=max(1, args.queue),
        deadline_seconds=deadline,
        k=args.k,
        tenants=_parse_tenants(args.tenants) if args.tenants else (),
    )


def _serve_server(target, config):
    """Step 4 of ``serve``: the server ``config`` was built for.

    A :class:`~repro.serving.ServingTarget` brings its modeled service
    time; anything else is timed on the wall clock.
    """
    from repro.ioplanner import PlannedQueryServer, PlannerConfig
    from repro.serving import QueryServer, ServingTarget

    if isinstance(config, PlannerConfig):
        return PlannedQueryServer(target, config)
    if isinstance(target, ServingTarget):
        return QueryServer(target, config,
                           service_time=target.service_time)
    return QueryServer(target, config)


def _parse_tenants(spec: str):
    """Parse ``--tenants`` NAME=BYTES_PER_WINDOW pairs."""
    from repro.errors import ConfigurationError
    from repro.ioplanner import TenantSpec

    tenants = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, sep, quota = chunk.partition("=")
        if not sep:
            raise ConfigurationError(
                f"--tenants entry {chunk!r} is not NAME=BYTES_PER_WINDOW"
            )
        try:
            quota_bytes = int(quota)
        except ValueError:
            raise ConfigurationError(
                f"--tenants quota {quota!r} is not an integer"
            ) from None
        tenants.append(TenantSpec(name.strip(), quota_bytes))
    if not tenants:
        raise ConfigurationError("--tenants parsed no tenant specs")
    return tuple(tenants)


def _load_rebalance_ops(path: str):
    """Read and parse a rebalance script file; error if it holds no ops."""
    from repro.cluster import parse_rebalance_script
    from repro.errors import ConfigurationError

    with open(path) as handle:
        timed_ops = parse_rebalance_script(handle.read())
    if not timed_ops:
        raise ConfigurationError(
            f"rebalance script {path!r} holds no operations"
        )
    return timed_ops


def _live_section(args, writer, requests, _result):
    """``serve --update-mix``: what the mutations did to the index."""
    updates = sum(1 for r in requests if r.update is not None)
    stats = {
        "update_mix": args.update_mix,
        "updates_offered": updates,
        "device": args.device,
        "live_docs": writer.index.num_docs,
        "segments": writer.index.num_segments,
        "seals": len(writer.scheduler.seals),
        "merges": len(writer.scheduler.records),
        "write_amplification": round(writer.write_amplification, 4),
        "index_write_bytes": writer.index_write_bytes,
        "maintenance_seconds": writer.scheduler.busy_seconds,
    }
    return stats, [
        f"updates: {updates} offered ({args.update_mix:.0%} mix)",
        f"live index: {stats['live_docs']} docs in {stats['segments']} "
        f"segments after {stats['seals']} seals + {stats['merges']} "
        f"merges; write amplification "
        f"{stats['write_amplification']:.2f}",
        f"maintenance: {writer.index_write_bytes} B written, "
        f"{writer.scheduler.busy_seconds * 1e3:.3f} ms of device time",
    ]


def _rebalance_section(timed_ops, rebalancer, cluster, sharded,
                       _requests, _result):
    """``serve --rebalance-script``: the moves next to the latencies."""
    stats = {
        "moves_offered": len(timed_ops),
        "moves_published": rebalancer.moves_published,
        "moves_aborted": rebalancer.moves_aborted,
        "rebalance_read_bytes": rebalancer.total_read_bytes,
        "rebalance_write_bytes": rebalancer.total_write_bytes,
        "map_version": cluster.map_version,
        "final_shards": sharded.num_shards,
        "moves": [move.to_dict() for move in rebalancer.reports],
    }
    lines = [
        f"rebalance: {rebalancer.moves_published} published, "
        f"{rebalancer.moves_aborted} aborted; "
        f"{rebalancer.total_read_bytes} B read + "
        f"{rebalancer.total_write_bytes} B written; shard map "
        f"v{cluster.map_version}, {sharded.num_shards} shards"
    ]
    for move in rebalancer.reports:
        outcome = "aborted" if move.aborted else "published"
        lines.append(
            f"  {move.kind} shard {move.shard} ({move.detail}): "
            f"{outcome}, {move.postings_out} postings moved, "
            f"{move.modeled_seconds * 1e3:.3f} ms maintenance")
    return stats, lines


def _hybrid_section(args, vectors, _requests, _result):
    """``serve --hybrid``: the vector lane the requests went through."""
    ivf = vectors.ivf
    stats = {"hybrid": args.hybrid, "device": args.device,
             "clusters": ivf.num_clusters, "nprobe": vectors.nprobe}
    return stats, [
        f"hybrid ({args.hybrid}) requests on {args.device}; vector lane: "
        f"{ivf.num_clusters} clusters ({ivf.codec}), "
        f"nprobe={vectors.nprobe}"
    ]


def _planner_section(config, _requests, result):
    """``serve --planner``: where the planner routed the block demand."""
    planner = result.planner
    mib = 1 / (1 << 20)
    lines = [
        f"demand {planner.demand_bytes * mib:.2f}MiB over "
        f"{planner.windows} windows: "
        f"{planner.staged_fraction:.1%} staged in DRAM "
        f"(tier {planner.dram_hit_bytes * mib:.2f}MiB + dedup "
        f"{planner.dedup_bytes * mib:.2f}MiB)",
        f"SCM miss traffic: {planner.scm_seq_bytes * mib:.2f}MiB "
        f"sequential + {planner.scm_rand_bytes * mib:.2f}MiB random "
        f"(sequential share {planner.sequential_share:.1%}) in "
        f"{planner.runs} transfers ({planner.sequential_runs} "
        f"coalesced), gap-fill {planner.gap_bytes * mib:.3f}MiB",
    ]
    for tenant in config.tenants:
        served = planner.tenant_served.get(tenant.name, 0)
        shed = planner.tenant_shed.get(tenant.name, 0)
        nbytes = planner.tenant_bytes.get(tenant.name, 0)
        lines.append(
            f"tenant {tenant.name}: served {served}, shed {shed}, "
            f"{nbytes * mib:.2f}MiB charged "
            f"(quota {tenant.quota_bytes_per_window}B/window)")
    return {"planner": planner.to_dict()}, lines


def _cmd_rebalance(args) -> int:
    """``rebalance``: run moves back to back with a ranking oracle.

    Every move is followed (and the run preceded) by a differential
    check: the sharded cluster's rankings must be bit-identical to a
    monolithic index over the same documents — the invariant the
    elastic protocol promises (docs/robustness.md).
    """
    import json

    from repro.clock import VirtualClock
    from repro.cluster import (
        AddReplica,
        MergeShards,
        Rebalancer,
        SplitShard,
        shard_documents,
    )
    from repro.errors import RebalanceError
    from repro.workloads import QuerySampler, synthetic_documents

    if not args.shards:
        args.shards = 4
    clock = VirtualClock()
    cluster, sharded = _build_fault_cluster(args, args.k, clock=clock)
    rebalancer = Rebalancer(cluster, sharded, clock=clock, k=args.k)

    if args.script:
        ops = [op for _at, op in _load_rebalance_ops(args.script)]
    else:
        # Demo sequence: split the first shard at its midpoint, merge
        # the halves back, then add a catch-up replica to the last shard.
        lo, hi = sharded.boundaries[0], sharded.boundaries[1]
        ops = [
            SplitShard(0, (lo + hi) // 2),
            MergeShards(0),
            AddReplica(sharded.num_shards - 1),
        ]

    oracle = None
    if args.oracle_queries:
        documents = synthetic_documents(num_docs=args.cluster_docs,
                                        seed=args.fault_seed)
        monolith = BossAccelerator(shard_documents(documents, 1).indexes[0],
                                   BossConfig(k=args.k))
        sampler = QuerySampler(_CLUSTER_VOCAB, seed=args.fault_seed)
        expressions = [
            spec.expression
            for spec in sampler.sample_zipf_log(
                args.oracle_queries,
                unique_queries=max(1, args.oracle_queries // 2))
        ]

        def oracle():
            for expression in expressions:
                expected = [(hit.doc_id, round(hit.score, 12))
                            for hit in monolith.search(expression).hits]
                got = [(hit.doc_id, round(hit.score, 12))
                       for hit in cluster.search(expression, k=args.k).hits]
                if got != expected:
                    raise RebalanceError(
                        f"oracle: cluster ranking diverged from the "
                        f"monolith on {expression!r}"
                    )

    if oracle is not None:
        oracle()
    reports = []
    for op in ops:
        report = rebalancer.execute(op)
        reports.append(report)
        if oracle is not None:
            oracle()

    if args.json:
        payload = {
            "shards_before": args.shards,
            "shards_after": sharded.num_shards,
            "map_version": cluster.map_version,
            "moves_published": rebalancer.moves_published,
            "moves_aborted": rebalancer.moves_aborted,
            "read_bytes": rebalancer.total_read_bytes,
            "write_bytes": rebalancer.total_write_bytes,
            "oracle_queries": args.oracle_queries,
            "moves": [move.to_dict() for move in reports],
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"{len(reports)} moves on {args.shards} shards "
          f"x{args.replication} ({args.cluster_docs} docs) -> "
          f"{sharded.num_shards} shards, map v{cluster.map_version}")
    for move in reports:
        print(f"  {move.kind} shard {move.shard} ({move.detail}): "
              f"{' -> '.join(move.states)}; {move.postings_out} postings "
              f"out / {move.postings_in} in, {move.read_bytes} B read, "
              f"{move.write_bytes} B written, "
              f"{move.modeled_seconds * 1e3:.3f} ms maintenance")
    if args.oracle_queries:
        print(f"oracle: rankings bit-identical to the monolith across "
              f"{args.oracle_queries} queries after every move")
    print(f"totals: {rebalancer.total_read_bytes} B read, "
          f"{rebalancer.total_write_bytes} B written, "
          f"{rebalancer.moves_published} published / "
          f"{rebalancer.moves_aborted} aborted")
    return 0


def _cmd_ingest(args) -> int:
    """``ingest``: drive the live index and report write traffic."""
    import json

    from repro.errors import ConfigurationError
    from repro.index.validate import validate_segmented
    from repro.live import LiveIndexWriter, MergePolicy
    from repro.scm.traffic import AccessClass

    if args.delete_every < 0:
        raise ConfigurationError(
            f"--delete-every must be >= 0, got {args.delete_every}")
    _, documents = _live_corpus(f"ingest:{args.seed}", args.docs,
                                args.vocab)
    device = _live_device(args.device)
    recovery = None
    if args.wal_dir:
        from repro.live import recover_live_index

        # On recovery the manifest's recorded configuration wins, so
        # the CLI flags only shape a freshly created directory.
        writer, recovery = recover_live_index(
            args.wal_dir, device=device, buffer_docs=args.buffer,
            policy=MergePolicy(fanout=args.fanout),
        )
    else:
        writer = LiveIndexWriter(device=device, buffer_docs=args.buffer,
                                 policy=MergePolicy(fanout=args.fanout))
    deleted = 0
    for i, tokens in enumerate(documents):
        writer.add_document(tokens)
        if (args.delete_every and (i + 1) % args.delete_every == 0
                and writer.index.num_docs > 1):
            writer.delete_oldest()
            deleted += 1
    writer.flush()
    if args.wal_dir:
        from repro.live import load_manifest

        report = validate_segmented(
            writer.index, check_scores=False,
            manifest=load_manifest(writer.manifest_path),
            segment_dir=writer.wal_dir,
        )
    else:
        report = validate_segmented(writer.index, check_scores=False)
    if args.wal_dir:
        writer.close()

    tiers = writer.bytes_written_by_tier
    payload = {
        "docs_ingested": args.docs,
        "docs_deleted": deleted,
        "live_docs": writer.index.num_docs,
        "segments": writer.index.num_segments,
        "seals": len(writer.scheduler.seals),
        "merges": len(writer.scheduler.records),
        "device": args.device,
        "sealed_bytes": writer.sealed_bytes,
        "index_write_bytes": writer.index_write_bytes,
        "merge_read_bytes": writer.traffic.bytes_for(AccessClass.LD_LIST),
        "write_amplification": round(writer.write_amplification, 4),
        "bytes_by_tier": {str(t): b for t, b in sorted(tiers.items())},
        "maintenance_seconds": writer.scheduler.busy_seconds,
        "validation_ok": report.ok,
    }
    if args.wal_dir:
        payload["wal"] = {
            "dir": str(writer.wal_dir),
            "records_logged": writer.wal.records_logged,
            "bytes_logged": writer.wal.bytes_logged,
            "manifest_writes": writer.manifest_writes,
            "manifest_bytes": writer.manifest_bytes,
        }
        payload["recovery"] = None if recovery is None else {
            "records_replayed": recovery.records_replayed,
            "mutations_replayed": recovery.mutations_replayed,
            "seals_replayed": recovery.seals_replayed,
            "merges_replayed": recovery.merges_replayed,
            "segments_loaded": recovery.segments_loaded,
            "segments_rebuilt": recovery.segments_rebuilt,
            "torn": recovery.torn,
            "torn_bytes": recovery.torn_bytes,
            "orphans_removed": recovery.orphans_removed,
            "modeled_seconds": recovery.modeled_seconds,
        }
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(f"ingested {args.docs} docs ({deleted} deleted) on "
          f"{args.device}: {payload['live_docs']} live in "
          f"{payload['segments']} segments")
    print(f"seals: {payload['seals']}  merges: {payload['merges']}  "
          f"validation: {'ok' if report.ok else 'FAILED'}")
    print(f"ST Index bytes: {payload['index_write_bytes']} "
          f"(tier-0 {payload['sealed_bytes']}), write amplification "
          f"{payload['write_amplification']:.2f}")
    for tier, num_bytes in sorted(tiers.items()):
        print(f"  tier {tier}: {num_bytes} B")
    print(f"merge reads: {payload['merge_read_bytes']} B (LD List); "
          f"device time {writer.scheduler.busy_seconds * 1e3:.3f} ms")
    if args.wal_dir:
        wal = payload["wal"]
        print(f"WAL: {wal['records_logged']} records, "
              f"{wal['bytes_logged']} B; manifest: "
              f"{wal['manifest_writes']} writes, "
              f"{wal['manifest_bytes']} B -> {wal['dir']}")
        if recovery is not None:
            print(f"recovered: {recovery.records_replayed} records "
                  f"({recovery.seals_replayed} seals, "
                  f"{recovery.merges_replayed} merges; "
                  f"{recovery.segments_loaded} loaded / "
                  f"{recovery.segments_rebuilt} rebuilt), torn tail "
                  f"{recovery.torn_bytes} B, "
                  f"{recovery.modeled_seconds * 1e3:.3f} ms modeled")
    if not report.ok:
        for error in report.errors[:5]:
            print(f"  error: {error}")
        return 1
    return 0


def _cmd_demo(_args) -> int:
    from repro.workloads import QuerySampler, make_corpus

    corpus = make_corpus("ccnews-like", scale=0.2)
    index = corpus.index
    sampler = QuerySampler(corpus.terms_by_df(), seed=1)
    queries = list(sampler.sample(queries_per_term_count=8))
    engines = {
        "Lucene": (LuceneEngine(index, LuceneConfig(k=10)),
                   LuceneTimingModel()),
        "IIU": (IIUAccelerator(index, IIUConfig(k=10)), IIUTimingModel()),
        "BOSS": (BossAccelerator(index, BossConfig(k=10)),
                 BossTimingModel()),
    }
    print(f"corpus: {index.stats.num_docs} docs, {index.num_terms} terms; "
          f"{len(queries)} queries\n")
    baseline_qps = None
    print(f"{'engine':<8}{'qps':>12}{'speedup':>9}{'bottleneck':>12}")
    for name, (engine, model) in engines.items():
        results = [engine.search(q.expression) for q in queries]
        report = model.batch(results, 8)
        if baseline_qps is None:
            baseline_qps = report.throughput_qps
        print(f"{name:<8}{report.throughput_qps:>12.0f}"
              f"{report.throughput_qps / baseline_qps:>8.1f}x"
              f"{report.bottleneck:>12}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "build": _cmd_build,
        "info": _cmd_info,
        "search": _cmd_search,
        "vsearch": _cmd_vsearch,
        "validate": _cmd_validate,
        "trace": _cmd_trace,
        "metrics": _cmd_metrics,
        "bench": _cmd_bench,
        "serve": _cmd_serve,
        "rebalance": _cmd_rebalance,
        "ingest": _cmd_ingest,
        "demo": _cmd_demo,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
