"""TREC-like query sampling with the paper's Table II type mix.

The paper randomly selects 100 one-term, 100 two-term, and 100 four-term
queries from the TREC 2005/2006 Terabyte Track topics and randomly
assigns each a Table II type (Q1–Q6). We reproduce the procedure against
a synthetic corpus: terms are drawn stratified by document frequency
(real query terms mix common and rare words), then each query gets its
type's operator structure:

====  ===============================
Q1    ``"A"``
Q2    ``"A" AND "B"``
Q3    ``"A" OR "B"``
Q4    ``"A" AND "B" AND "C" AND "D"``
Q5    ``"A" OR "B" OR "C" OR "D"``
Q6    ``"A" AND ("B" OR "C" OR "D")``
====  ===============================
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.errors import ConfigurationError

QUERY_TYPES = ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6")

#: Term count per type (Table II).
TYPE_TERMS = {"Q1": 1, "Q2": 2, "Q3": 2, "Q4": 4, "Q5": 4, "Q6": 4}

#: Popularity skew of a sampled query log: the query of rank ``r`` is
#: drawn with weight ``1 / r**ZIPF_EXPONENT``.
ZIPF_EXPONENT = 1.0


@dataclass(frozen=True)
class QuerySpec:
    """One generated query."""

    qtype: str
    terms: tuple

    @property
    def expression(self) -> str:
        """The offloading-API expression string for this query."""
        quoted = [f'"{t}"' for t in self.terms]
        if self.qtype == "Q1":
            return quoted[0]
        if self.qtype == "Q2":
            return f"{quoted[0]} AND {quoted[1]}"
        if self.qtype == "Q3":
            return f"{quoted[0]} OR {quoted[1]}"
        if self.qtype == "Q4":
            return " AND ".join(quoted)
        if self.qtype == "Q5":
            return " OR ".join(quoted)
        if self.qtype == "Q6":
            return f"{quoted[0]} AND ({' OR '.join(quoted[1:])})"
        raise ConfigurationError(f"unknown query type {self.qtype}")


@dataclass
class QuerySet:
    """A generated batch of queries grouped by type."""

    queries: List[QuerySpec] = field(default_factory=list)

    def by_type(self) -> Dict[str, List[QuerySpec]]:
        grouped: Dict[str, List[QuerySpec]] = {t: [] for t in QUERY_TYPES}
        for q in self.queries:
            grouped.setdefault(q.qtype, []).append(q)
        return grouped

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self):
        return iter(self.queries)


class QuerySampler:
    """Draws query terms stratified by document frequency.

    Terms are split into frequency strata (head / torso / tail by df
    rank); each query mixes strata the way TREC topic words do — at
    least one reasonably common word, the rest drawn across strata.
    """

    def __init__(self, terms_by_df: Sequence[str], seed: int = 0) -> None:
        if len(terms_by_df) < 8:
            raise ConfigurationError("need at least 8 terms to sample from")
        self._terms = list(terms_by_df)
        self._rng = random.Random(seed)
        n = len(self._terms)
        self._head = self._terms[: max(2, n // 10)]
        self._torso = self._terms[max(2, n // 10): max(4, n // 2)]
        self._tail = self._terms[max(4, n // 2):]

    def sample_terms(self, count: int) -> List[str]:
        """Distinct terms for one query: one head word, rest mixed."""
        chosen: List[str] = [self._rng.choice(self._head)]
        pools = [self._torso, self._torso, self._tail]
        while len(chosen) < count:
            pool = self._rng.choice(pools)
            term = self._rng.choice(pool)
            if term not in chosen:
                chosen.append(term)
        self._rng.shuffle(chosen)
        return chosen

    def sample(self, queries_per_term_count: int = 100) -> QuerySet:
        """The paper's batch: N one-term, N two-term, N four-term queries,
        each randomly assigned a compatible Table II type."""
        queries: List[QuerySpec] = []
        for num_terms, types in ((1, ("Q1",)), (2, ("Q2", "Q3")),
                                 (4, ("Q4", "Q5", "Q6"))):
            for _ in range(queries_per_term_count):
                qtype = self._rng.choice(types)
                terms = tuple(self.sample_terms(num_terms))
                queries.append(QuerySpec(qtype=qtype, terms=terms))
        return QuerySet(queries)

    def sample_of_type(self, qtype: str, count: int) -> QuerySet:
        """A batch of one specific Table II type."""
        if qtype not in TYPE_TERMS:
            raise ConfigurationError(f"unknown query type {qtype!r}")
        queries = [
            QuerySpec(qtype=qtype,
                      terms=tuple(self.sample_terms(TYPE_TERMS[qtype])))
            for _ in range(count)
        ]
        return QuerySet(queries)

    def sample_zipf_log(self, num_queries: int,
                        unique_queries: int = 50) -> QuerySet:
        """A skewed query *log*: repeated queries with Zipf popularity.

        Production query logs repeat heavily (the head query can be a
        few percent of all traffic) — the property posting-list caches
        exploit. Draws ``unique_queries`` distinct Table II queries and
        samples ``num_queries`` of them with popularity proportional to
        ``1 / rank**ZIPF_EXPONENT``.
        """
        if num_queries <= 0 or unique_queries <= 0:
            raise ConfigurationError("query counts must be positive")
        pool = list(self.sample(
            queries_per_term_count=(unique_queries + 2) // 3
        ))[:unique_queries]
        weights = [1.0 / (rank ** ZIPF_EXPONENT)
                   for rank in range(1, len(pool) + 1)]
        drawn = self._rng.choices(pool, weights=weights, k=num_queries)
        return QuerySet(list(drawn))
