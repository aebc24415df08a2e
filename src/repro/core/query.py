"""Query expressions: AST, parser, and classification.

The offloading API (paper Section IV-D) expresses queries as strings in
which query terms are quoted and combined with ``AND`` / ``OR`` and round
brackets, e.g. ``"A" AND ("B" OR "C")``. This module provides:

* the AST node types (:class:`TermNode`, :class:`AndNode`,
  :class:`OrNode`);
* a recursive-descent parser for the string syntax (``AND`` binds
  tighter than ``OR``, matching the paper's "executes the query
  according to the priority of the set operation");
* the normal form every engine runs (:func:`as_query`): nested
  same-type operators flattened and repeated siblings dropped, so a
  term scores once and a string is the same tree as its AST;
* normalization used by BOSS's mixed-query strategy: intersections are
  pushed below unions (``A AND (B OR C)`` -> ``(A AND B) OR (A AND C)``,
  the paper's Section IV-B example), so execution always runs
  intersections first;
* query-type classification into the paper's Table II types Q1–Q6.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

from repro.errors import QueryError


@dataclass(frozen=True)
class TermNode:
    """A single query term."""

    term: str

    def terms(self) -> List[str]:
        return [self.term]

    def __str__(self) -> str:
        return f'"{self.term}"'


@dataclass(frozen=True)
class AndNode:
    """Intersection of sub-expressions."""

    children: Tuple["QueryNode", ...]

    def terms(self) -> List[str]:
        return [t for child in self.children for t in child.terms()]

    def __str__(self) -> str:
        return "(" + " AND ".join(str(c) for c in self.children) + ")"


@dataclass(frozen=True)
class OrNode:
    """Union of sub-expressions."""

    children: Tuple["QueryNode", ...]

    def terms(self) -> List[str]:
        return [t for child in self.children for t in child.terms()]

    def __str__(self) -> str:
        return "(" + " OR ".join(str(c) for c in self.children) + ")"


QueryNode = Union[TermNode, AndNode, OrNode]

_TOKEN_RE = re.compile(
    r'\s*(?:(?P<term>"[^"]+")|(?P<op>AND|OR)|(?P<lparen>\()|(?P<rparen>\)))'
)


def _tokenize(expression: str) -> List[Tuple[str, str]]:
    tokens: List[Tuple[str, str]] = []
    position = 0
    while position < len(expression):
        match = _TOKEN_RE.match(expression, position)
        if match is None:
            rest = expression[position:].strip()
            if not rest:
                break
            raise QueryError(
                f"cannot tokenize query at ...{expression[position:position+20]!r}"
            )
        position = match.end()
        if match.lastgroup == "term":
            tokens.append(("term", match.group("term")[1:-1]))
        elif match.lastgroup == "op":
            tokens.append(("op", match.group("op")))
        elif match.lastgroup == "lparen":
            tokens.append(("lparen", "("))
        else:
            tokens.append(("rparen", ")"))
    return tokens


class _Parser:
    """Recursive-descent parser: OR has lowest precedence."""

    def __init__(self, tokens: List[Tuple[str, str]]) -> None:
        self._tokens = tokens
        self._position = 0

    def parse(self) -> QueryNode:
        node = self._parse_or()
        if self._position != len(self._tokens):
            raise QueryError("trailing tokens after query expression")
        return node

    def _peek(self) -> Tuple[str, str]:
        if self._position < len(self._tokens):
            return self._tokens[self._position]
        return ("eof", "")

    def _advance(self) -> Tuple[str, str]:
        token = self._peek()
        self._position += 1
        return token

    def _parse_or(self) -> QueryNode:
        children = [self._parse_and()]
        while self._peek() == ("op", "OR"):
            self._advance()
            children.append(self._parse_and())
        if len(children) == 1:
            return children[0]
        return OrNode(tuple(children))

    def _parse_and(self) -> QueryNode:
        children = [self._parse_atom()]
        while self._peek() == ("op", "AND"):
            self._advance()
            children.append(self._parse_atom())
        if len(children) == 1:
            return children[0]
        return AndNode(tuple(children))

    def _parse_atom(self) -> QueryNode:
        kind, value = self._advance()
        if kind == "term":
            return TermNode(value)
        if kind == "lparen":
            node = self._parse_or()
            if self._advance()[0] != "rparen":
                raise QueryError("unbalanced parentheses in query")
            return node
        raise QueryError(f"unexpected token {value!r} in query")


def parse_query(expression: str) -> QueryNode:
    """Parse a paper-syntax query expression into its normal form.

    >>> parse_query('"a" AND ("b" OR "c")')
    AndNode(children=(TermNode(term='a'), OrNode(...)))
    """
    tokens = _tokenize(expression)
    if not tokens:
        raise QueryError("empty query expression")
    return flatten(_Parser(tokens).parse())


def as_query(query: Union[str, QueryNode]) -> QueryNode:
    """The normal form of a query given as a string or an AST."""
    return parse_query(query) if isinstance(query, str) else flatten(query)


def flatten(node: QueryNode) -> QueryNode:
    """Merge nested same-type operators and drop repeated siblings.

    ``(a AND b) AND c`` -> 3-way AND; ``a OR a OR b`` -> ``a OR b``
    (the first occurrence stays). AND and OR are idempotent, so a term
    scores once however often the query names it.
    """
    if isinstance(node, TermNode):
        return node
    flat_children: List[QueryNode] = []
    for child in node.children:
        child = flatten(child)
        if type(child) is type(node):
            flat_children.extend(child.children)  # type: ignore[union-attr]
        else:
            flat_children.append(child)
    unique = tuple(dict.fromkeys(flat_children))
    if len(unique) == 1:
        return unique[0]
    return type(node)(unique)


def prune_query(node: QueryNode,
                present: Callable[[str], bool]) -> Optional[QueryNode]:
    """Restrict a query to terms one index partition actually holds.

    The algebra shared by the cluster root's per-shard dissection and
    the live index's per-segment execution: a missing term annihilates
    an AND (its intersection is empty there) and drops out of an OR.
    Returns ``None`` when nothing in the partition can match.
    """
    if isinstance(node, TermNode):
        return node if present(node.term) else None
    pruned = [prune_query(child, present) for child in node.children]
    if isinstance(node, AndNode):
        if any(child is None for child in pruned):
            return None
        return AndNode(tuple(pruned))
    kept = [child for child in pruned if child is not None]
    if not kept:
        return None
    if len(kept) == 1:
        return kept[0]
    return OrNode(tuple(kept))


def prune_query_scored(node: QueryNode,
                       present: Callable[[str], bool]
                       ) -> Optional[QueryNode]:
    """Match-preserving prune that keeps score parity with a monolith.

    :func:`prune_query` alone is exact for *matching* but not for
    *scoring*: the engine's general path scores every query term a
    matching document contains, including terms of branches the
    document does not satisfy. Annihilating an AND branch because one
    of its terms is absent from this partition would also drop the
    branch's *present* terms from that probe set, under-scoring
    documents matched through other branches. So when pruning discards
    present terms, re-attach them in a branch that cannot add matches —
    ``OR(pruned, AND(extras..., pruned))`` has exactly ``match(pruned)``
    but carries every present query term for the scoring probes.
    """
    pruned = prune_query(node, present)
    if pruned is None:
        return None
    kept = set(pruned.terms())
    extras = sorted({
        term for term in node.terms()
        if term not in kept and present(term)
    })
    if not extras:
        return pruned
    score_branch = AndNode(
        tuple(TermNode(term) for term in extras) + (pruned,)
    )
    return OrNode((pruned, score_branch))


def push_intersections_down(node: QueryNode) -> QueryNode:
    """Rewrite so intersections execute first (paper Section IV-B).

    BOSS processes mixed queries by distributing AND over OR:
    ``A AND (B OR C)`` becomes ``(A AND B) OR (A AND C)``. The result is a
    union of pure intersections (disjunctive normal form), which is
    bandwidth-friendly because intersections always shrink posting lists.
    """
    node = flatten(node)
    if isinstance(node, TermNode):
        return node
    if isinstance(node, OrNode):
        return flatten(OrNode(tuple(
            push_intersections_down(c) for c in node.children
        )))
    # AND node: distribute over any OR child (cartesian product of the
    # children's alternatives).
    normalized_children = [push_intersections_down(c) for c in node.children]
    combos: List[List[QueryNode]] = [[]]
    for child in normalized_children:
        alternatives = (
            list(child.children) if isinstance(child, OrNode) else [child]
        )
        combos = [prefix + [alt] for prefix in combos for alt in alternatives]
    conjunctions: List[QueryNode] = []
    for combo in combos:
        if len(combo) == 1:
            conjunctions.append(combo[0])
        else:
            conjunctions.append(flatten(AndNode(tuple(combo))))
    if len(conjunctions) == 1:
        return conjunctions[0]
    return flatten(OrNode(tuple(conjunctions)))


def classify_query(node: QueryNode) -> str:
    """Map an AST onto the paper's Table II query types Q1–Q6.

    ====  =====================  =======================
    type  number of terms        operation
    ====  =====================  =======================
    Q1    1                      A
    Q2    2                      A AND B
    Q3    2                      A OR B
    Q4    4                      A AND B AND C AND D
    Q5    4                      A OR B OR C OR D
    Q6    4                      A AND (B OR C OR D)
    ====  =====================  =======================

    Queries outside the table are classified as ``"mixed"`` (more terms)
    or by their top-level shape.
    """
    node = flatten(node)
    n_terms = len(node.terms())
    if isinstance(node, TermNode):
        return "Q1"
    if isinstance(node, AndNode):
        if all(isinstance(c, TermNode) for c in node.children):
            if n_terms == 2:
                return "Q2"
            if n_terms == 4:
                return "Q4"
        if (
            n_terms == 4
            and len(node.children) == 2
            and any(isinstance(c, TermNode) for c in node.children)
            and any(
                isinstance(c, OrNode)
                and all(isinstance(g, TermNode) for g in c.children)
                for c in node.children
            )
        ):
            return "Q6"
        return "mixed"
    if isinstance(node, OrNode):
        if all(isinstance(c, TermNode) for c in node.children):
            if n_terms == 2:
                return "Q3"
            if n_terms == 4:
                return "Q5"
        return "mixed"
    return "mixed"
