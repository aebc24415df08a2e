"""Cross-engine integration tests on generated corpora.

The single most important invariant of the reproduction: BOSS (all ET
configurations), IIU, and the Lucene model return *identical* top-k
results for every query — they differ only in work and traffic. These
tests exercise that equivalence on realistic synthetic corpora and check
the headline paper trends end to end.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines import IIUAccelerator, IIUConfig, LuceneConfig, LuceneEngine
from repro.core import BossAccelerator, BossConfig
from repro.hwmodel.energy import EnergyModel
from repro.sim.timing import BossTimingModel, IIUTimingModel, LuceneTimingModel
from repro.workloads import QuerySampler, make_corpus
from tests.conftest import hits_as_pairs


@pytest.fixture(scope="module")
def corpus():
    return make_corpus("ccnews-like", scale=0.15)


@pytest.fixture(scope="module")
def engines(corpus):
    index = corpus.index
    return {
        "BOSS": BossAccelerator(index, BossConfig(k=15)),
        "BOSS-exhaustive": BossAccelerator(index,
                                           BossConfig(k=15).exhaustive()),
        "IIU": IIUAccelerator(index, IIUConfig(k=15)),
        "Lucene": LuceneEngine(index, LuceneConfig(k=15)),
    }


@pytest.fixture(scope="module")
def query_batch(corpus):
    sampler = QuerySampler(corpus.terms_by_df(), seed=11)
    return list(sampler.sample(queries_per_term_count=6))


class TestCrossEngineEquivalence:
    def test_all_engines_agree_on_sampled_batch(self, engines, query_batch):
        for query in query_batch:
            reference = None
            for name, engine in engines.items():
                hits = hits_as_pairs(engine.search(query.expression), 8)
                if reference is None:
                    reference = hits
                else:
                    assert hits == reference, (name, query.expression)

    def test_engines_agree_per_type(self, corpus, engines):
        sampler = QuerySampler(corpus.terms_by_df(), seed=23)
        for qtype in ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6"):
            for query in sampler.sample_of_type(qtype, 3):
                results = {
                    name: hits_as_pairs(engine.search(query.expression), 8)
                    for name, engine in engines.items()
                }
                assert len(set(map(tuple, results.values()))) == 1, qtype


class TestPaperHeadlines:
    def test_throughput_ordering_at_8_cores(self, engines, query_batch):
        """BOSS > IIU > Lucene at the paper's 8-core operating point."""
        results = {
            name: [engines[name].search(q.expression) for q in query_batch]
            for name in ("BOSS", "IIU", "Lucene")
        }
        boss = BossTimingModel().batch(results["BOSS"], 8)
        iiu = IIUTimingModel().batch(results["IIU"], 8)
        lucene = LuceneTimingModel().batch(results["Lucene"], 8)
        assert boss.throughput_qps > iiu.throughput_qps > lucene.throughput_qps

    def test_boss_traffic_below_iiu_on_every_query(self, engines,
                                                   query_batch):
        for query in query_batch:
            boss_bytes = engines["BOSS"].search(
                query.expression
            ).traffic.total_bytes
            iiu_bytes = engines["IIU"].search(
                query.expression
            ).traffic.total_bytes
            assert boss_bytes <= iiu_bytes, query.expression

    def test_boss_interconnect_traffic_is_tiny(self, engines, query_batch):
        """Only top-k crosses the link — orders below the Lucene path."""
        for query in query_batch:
            boss = engines["BOSS"].search(query.expression)
            lucene = engines["Lucene"].search(query.expression)
            assert boss.interconnect_bytes <= lucene.interconnect_bytes

    def test_energy_savings_direction(self, engines, query_batch):
        """Figure 17's direction: BOSS saves orders of magnitude."""
        boss_results = [engines["BOSS"].search(q.expression)
                        for q in query_batch]
        lucene_results = [engines["Lucene"].search(q.expression)
                          for q in query_batch]
        model = EnergyModel()
        boss_energy = model.energy(BossTimingModel().batch(boss_results, 8))
        lucene_energy = model.energy(
            LuceneTimingModel().batch(lucene_results, 8)
        )
        assert boss_energy.savings_over(lucene_energy) > 20


_PROPERTY_CORPUS = []


# Each example draws a flat OR with a repeated term, e.g.
# ("term0017" OR "term0017"): a term scores once on every path.
@example(seed=799)
@example(seed=1240)
@example(seed=1280)
@example(seed=1869)
@example(seed=2568)
@example(seed=4008)
@example(seed=4438)
@example(seed=4803)
@example(seed=4807)
@example(seed=4840)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=1_000_000))
def test_property_random_queries_agree(seed):
    """Randomized query shapes: every engine returns the same top-k."""
    if not _PROPERTY_CORPUS:
        _PROPERTY_CORPUS.append(make_corpus("clueweb12-like", scale=0.08))
    corpus = _PROPERTY_CORPUS[0]
    index = corpus.index
    rng = random.Random(seed)
    terms = corpus.terms_by_df()

    def random_expr(depth=0):
        if depth >= 2 or rng.random() < 0.5:
            return f'"{rng.choice(terms)}"'
        op = rng.choice([" AND ", " OR "])
        children = [random_expr(depth + 1)
                    for _ in range(rng.randrange(2, 4))]
        return "(" + op.join(children) + ")"

    expression = random_expr()
    k = rng.choice([1, 5, 20])
    engines = [
        BossAccelerator(index, BossConfig(k=k)),
        BossAccelerator(index, BossConfig(k=k).exhaustive()),
        BossAccelerator(index, BossConfig(k=k), executor="reference"),
        IIUAccelerator(index, IIUConfig(k=k)),
        LuceneEngine(index, LuceneConfig(k=k)),
    ]
    outcomes = {
        tuple(hits_as_pairs(engine.search(expression), 8))
        for engine in engines
    }
    assert len(outcomes) == 1, expression
