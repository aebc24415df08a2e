"""Text analysis: turning raw text into index terms.

The paper consumes pre-built inverted indexes; a usable library also
needs the step before that. This module provides a small, deterministic
analysis chain in the style of Lucene's ``StandardAnalyzer``:

1. **tokenize** — Unicode-aware word splitting (letters/digits runs,
   with inner apostrophes kept: ``don't`` stays one token);
2. **lowercase**;
3. **stop-word removal** — a compact English list (configurable);
4. **light stemming** — the S-stemmer (Harman 1991): plural suffix
   stripping only. It is deliberately conservative — no Porter rules —
   so stems stay readable and the mapping is easy to reason about in
   tests.

All steps are optional and composable via :class:`Analyzer`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import FrozenSet, List, Optional

from repro.errors import ConfigurationError

#: Compact English stop-word list (the classic Lucene default set).
ENGLISH_STOPWORDS: FrozenSet[str] = frozenset({
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "if",
    "in", "into", "is", "it", "no", "not", "of", "on", "or", "such",
    "that", "the", "their", "then", "there", "these", "they", "this",
    "to", "was", "will", "with",
})

_TOKEN_RE = re.compile(r"[^\W_]+(?:'[^\W_]+)*", re.UNICODE)


def tokenize(text: str) -> List[str]:
    """Split ``text`` into word tokens (keeps inner apostrophes)."""
    return _TOKEN_RE.findall(text)


def s_stem(token: str) -> str:
    """Harman's S-stemmer: conservative English plural stripping.

    * ``...ies`` -> ``...y``   (unless preceded by ``a`` or ``e``)
    * ``...es``  -> ``...e``   (unless ending ``aes``/``ees``/``oes``)
    * ``...s``   -> drop       (unless ending ``us``/``ss`` or too short)
    """
    if len(token) > 4 and token.endswith("ies"):
        if token[-4] not in ("a", "e"):
            return token[:-3] + "y"
        return token
    if len(token) > 3 and token.endswith("es"):
        if token[-3] not in ("a", "e", "o"):
            return token[:-1]
        return token
    if len(token) > 3 and token.endswith("s"):
        if token[-2] not in ("u", "s"):
            return token[:-1]
    return token


@dataclass(frozen=True)
class Analyzer:
    """Composable text-analysis chain."""

    lowercase: bool = True
    stopwords: Optional[FrozenSet[str]] = ENGLISH_STOPWORDS
    stem: bool = True
    min_token_length: int = 1
    max_token_length: int = 64

    def __post_init__(self) -> None:
        if self.min_token_length < 1:
            raise ConfigurationError("min_token_length must be >= 1")
        if self.max_token_length < self.min_token_length:
            raise ConfigurationError(
                "max_token_length below min_token_length"
            )

    def analyze(self, text: str) -> List[str]:
        """Raw text -> index terms."""
        terms: List[str] = []
        for token in tokenize(text):
            if self.lowercase:
                token = token.lower()
            if not (self.min_token_length <= len(token)
                    <= self.max_token_length):
                continue
            if self.stopwords is not None and token in self.stopwords:
                continue
            if self.stem:
                token = s_stem(token)
            terms.append(token)
        return terms

    def __call__(self, text: str) -> List[str]:
        return self.analyze(text)


#: An analyzer that only tokenizes and lowercases (no stop/stem), for
#: exact-term applications.
KEYWORD_ANALYZER = Analyzer(stopwords=None, stem=False)
