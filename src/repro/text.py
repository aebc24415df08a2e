"""Text analysis: turning raw text into index terms.

The paper consumes pre-built inverted indexes; a usable library also
needs the step before that. This module provides a small, deterministic
analysis chain in the style of Lucene's ``StandardAnalyzer``:

1. **tokenize** — Unicode-aware word splitting (letters/digits runs,
   with inner apostrophes kept: ``don't`` stays one token);
2. **lowercase**, dropping tokens longer than 64 characters;
3. **stop-word removal** — a compact English list;
4. **light stemming** — the S-stemmer (Harman 1991): plural suffix
   stripping only. It is deliberately conservative — no Porter rules —
   so stems stay readable and the mapping is easy to reason about in
   tests.

:func:`analyze` runs the whole chain.
"""

from __future__ import annotations

import re
from typing import FrozenSet, List

#: Compact English stop-word list (the classic Lucene default set).
ENGLISH_STOPWORDS: FrozenSet[str] = frozenset({
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "if",
    "in", "into", "is", "it", "no", "not", "of", "on", "or", "such",
    "that", "the", "their", "then", "there", "these", "they", "this",
    "to", "was", "will", "with",
})

#: Longer tokens (base64 blobs, run-together URLs) are not terms.
MAX_TOKEN_LENGTH = 64

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


def analyze(text: str) -> List[str]:
    """Raw text -> index terms: tokenize, lowercase, keep tokens of at
    most :data:`MAX_TOKEN_LENGTH` characters, drop
    :data:`ENGLISH_STOPWORDS`, S-stem."""
    terms: List[str] = []
    for token in tokenize(text):
        token = token.lower()
        if len(token) > MAX_TOKEN_LENGTH or token in ENGLISH_STOPWORDS:
            continue
        terms.append(s_stem(token))
    return terms
