"""Seeded inputs and committed digests that pin the write side's bytes.

The encode side's contract is byte identity: every payload, every
``.bossx`` and every segment file must come out exactly as the
per-value reference encoders produced them. This module draws the
seeded inputs (value streams, small corpora, a merge with tombstones)
and digests what the library makes of them; ``golden/write_side.json``
holds the digests as computed **at the commit before the width-pass
encoders landed** (PR 19), so the tests that read it compare today's
bytes with that commit's.

Regenerate only when the on-disk format changes on purpose::

    PYTHONPATH=src:. python -m tests.write_side_golden
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.compression.base import get_codec, list_codecs
from repro.errors import CompressionError
from repro.index.binaryio import save_index_binary
from repro.live import MergePolicy, SegmentedIndex
from repro.live.merge import merge_segments
from repro.live.segfile import encode_segment
from repro.workloads.corpus import make_corpus, synthetic_documents

GOLDEN_PATH = Path(__file__).parent / "golden" / "write_side.json"

#: Around every word / frame / zero-run capacity of the seven codecs.
LENGTHS = (0, 1, 2, 27, 28, 29, 59, 60, 61, 119, 120, 121, 127, 128, 129,
           239, 240, 241, 1000)

#: Zero-run lengths straddling S8b's 60-value tail rule and its
#: 120- and 240-value run words.
ZERO_RUNS = (59, 60, 61, 62, 119, 120, 121, 239, 240, 241, 300, 480, 481)

#: Scale of the per-preset ``.bossx`` corpora.
BOSSX_SCALE = 0.05

#: The corpus ``repro-boss build`` is given.
CLI_CORPUS = {"num_docs": 400, "vocab_size": 40, "seed": 7}


def _family(name: str, length: int, max_bits: int) -> List[int]:
    rng = random.Random(f"{name}/{length}")
    if name == "tf":  # tf - 1: mostly zero
        return rng.choices((0, 1, 2), weights=(70, 20, 10), k=length)
    if name == "dense":  # d-gaps of a very common term
        return [int(rng.expovariate(1.5)) for _ in range(length)]
    if name == "clustered":  # runs of tiny gaps between long jumps
        values: List[int] = []
        while len(values) < length:
            values.extend(rng.randrange(3)
                          for _ in range(rng.randrange(4, 40)))
            values.append(rng.randrange(1 << 10, 1 << 18))
        return values[:length]
    if name == "exponential":
        return [int(rng.expovariate(1 / 300)) for _ in range(length)]
    if name == "loguniform":  # every field width a layout offers
        return [int(2 ** rng.uniform(0, max_bits)) - 1
                for _ in range(length)]
    if name == "uniform":
        return [rng.randrange(1 << max_bits) for _ in range(length)]
    raise ValueError(name)


FAMILIES = ("tf", "dense", "clustered", "exponential", "loguniform",
            "uniform")


def streams(max_bits: int) -> Iterator[Tuple[str, List[int]]]:
    """Every ``(name, values)`` a codec of ``max_bits`` is pinned on.

    The seeded families stay inside ``max_bits``; the edge cases do
    not, on purpose — a stream a codec must refuse is pinned by its
    exception.
    """
    for family in FAMILIES:
        for length in LENGTHS:
            yield f"{family}/{length}", _family(family, length, max_bits)
    for run in ZERO_RUNS:
        zeros = [0] * run
        yield f"zeros/{run}", zeros
        yield f"zeros/{run}+7", zeros + [7]
        yield f"zeros/7+{run}", [7] + zeros
        yield f"zeros/{run}+7+{run}", zeros + [7] + zeros
    top28 = (1 << 28) - 1
    yield "edge/top28", [top28]
    yield "edge/top28x3", [top28] * 3
    yield "edge/1,top28,1", [1, top28, 1]
    yield "edge/14bit-pairs", [(1 << 14) - 1, 1 << 13, 1 << 14, 3]
    yield "edge/ones-then-top28", [1] * 27 + [top28]
    yield "edge/bit28", [1 << 28]
    yield "edge/1,2,bit28,3", [1, 2, 1 << 28, 3]
    yield "edge/top32", [1 << 31, (1 << 32) - 1]
    yield "bad/negative", [-1]
    yield "bad/3,negative,5", [3, -1, 5]
    yield "bad/late-negative", [5] * 200 + [-7]
    yield "bad/bit32", [1 << 32]
    yield "bad/wide-before-negative", [0, 1 << 32, -1]
    yield "bad/negative-before-wide", [0, -1, 1 << 32]
    yield "bad/bit300", [1 << 300]


def encode_outcome(codec, values) -> str:
    """sha256 of the payload, or the refusal as ``Type: message``."""
    try:
        return hashlib.sha256(codec.encode(values)).hexdigest()
    except CompressionError as error:
        return f"{type(error).__name__}: {error}"


def encode_outcomes() -> Dict[str, Dict[str, str]]:
    table: Dict[str, Dict[str, str]] = {}
    for name in list_codecs():
        codec = get_codec(name)
        table[name] = {
            stream: encode_outcome(codec, values)
            for stream, values in streams(codec.max_value_bits)
        }
    return table


def _file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


PRESETS = ("ccnews-like", "clueweb12-like")


def bossx_digest(preset: str, workdir: Path) -> str:
    """sha256 of ``preset``'s ``.bossx`` at :data:`BOSSX_SCALE`."""
    path = workdir / f"{preset}.bossx"
    save_index_binary(make_corpus(preset, scale=BOSSX_SCALE).index, path)
    return _file_sha256(path)


def write_cli_corpus(path: Path) -> None:
    """The text file ``repro-boss build --input`` reads, one doc a line."""
    documents = synthetic_documents(**CLI_CORPUS)
    path.write_text("".join(" ".join(doc) + "\n" for doc in documents))


def cli_build_digest(workdir: Path) -> str:
    from repro.cli import main

    corpus, output = workdir / "seeded.txt", workdir / "seeded.bossx"
    write_cli_corpus(corpus)
    status = main(["build", "--input", str(corpus),
                   "--output", str(output)])
    assert status == 0
    return _file_sha256(output)


def merged_segment_digest() -> str:
    """A tier merge over tombstoned inputs, as its segment file's bytes.

    Five sealed buffers of seeded documents, every seventh document
    deleted after sealing (so the tombstones sit in sealed payloads),
    merged into one segment exactly as the scheduler would.
    """
    live = SegmentedIndex(buffer_docs=60)
    for tokens in synthetic_documents(num_docs=300, vocab_size=48, seed=19):
        if live.add_document(tokens) % 60 == 59:
            live.seal()
    for doc_id in range(0, 300, 7):
        live.delete_document(doc_id)
    inputs = MergePolicy(fanout=5).plan(live.segments).inputs
    assert any(segment.tombstones for segment in inputs)
    merged = merge_segments(live, inputs, output_tier=1)
    return hashlib.sha256(encode_segment(merged)).hexdigest()


def load() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _main() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {
            "encode": encode_outcomes(),
            # The preset corpora are drawn by numpy's Generator, whose
            # streams are only promised stable within a numpy version.
            "bossx": {
                "numpy": np.__version__,
                "sha256": {preset: bossx_digest(preset, Path(tmp))
                           for preset in PRESETS},
            },
            "cli_build": cli_build_digest(Path(tmp)),
            "merged_segment": merged_segment_digest(),
        }
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(record, indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    _main()
