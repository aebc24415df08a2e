"""The hit lists of one ``repro-boss serve --update-mix`` run, pinned.

``serve --json`` reports what a run cost, not what it returned; this
module replays the same CLI run (``repro.cli.main`` itself, with the
server's ``serve`` watched) and keeps every query's ranked hits.
``golden/live_serve.json`` holds them as computed **at the commit
before admission at the queue landed** (PR 23), when every segment was
searched for ``k + tombstones`` results from an empty queue and
filtered afterwards: how the live index arrives at its top-k may change
what a run costs, never what it returns. Scores are stored as
``float.hex`` — the contract is bit identity.

One line of that commit was pinned to generate the file: its write
buffer summed a document's term scores in the iteration order of a
``set`` of strings, so the last bit of a buffered document's multi-term
score moved with ``PYTHONHASHSEED``. The golden is that commit with the
sum taken in query order (``dict.fromkeys(node.terms())``), which is
what the tree does now; it was generated under two hash seeds and came
out the same file.

    PYTHONPATH=src:. python -m tests.live_serve_golden --check

exits non-zero on the first differing request (CI runs this).
Regenerate only when rankings change on purpose::

    PYTHONPATH=src:. python -m tests.live_serve_golden
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path
from typing import List
from unittest import mock

from repro import cli
from repro.serving import QueryServer

GOLDEN_PATH = Path(__file__).parent / "golden" / "live_serve.json"

#: The live-index serve run the golden records (seed and k: defaults).
CLI_ARGV = ["serve", "--update-mix", "0.3", "--queries", "300", "--json"]


def live_serve_hits(argv=CLI_ARGV) -> List[dict]:
    """Run the CLI; one record per served query, in request order."""
    runs = []
    serve = QueryServer.serve

    def watched(self, requests):
        result = serve(self, requests)
        runs.append((requests, result))
        return result

    with mock.patch.object(QueryServer, "serve", watched), \
            contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0
    (requests, result), = runs
    return [
        {"request": outcome.request_id,
         "query": outcome.expression,
         "hits": [[hit.doc_id, hit.score.hex()]
                  for hit in outcome.result.hits]}
        for request, outcome in zip(requests, result.outcomes)
        if request.update is None and outcome.served
    ]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    records = live_serve_hits()
    if "--check" not in argv:
        GOLDEN_PATH.write_text(
            '{"argv": %s, "queries": [\n%s\n]}\n' % (
                json.dumps(CLI_ARGV),
                ",\n".join(json.dumps(record) for record in records)))
        print(f"wrote {GOLDEN_PATH}")
        return 0
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["argv"] == CLI_ARGV
    if len(records) != len(golden["queries"]):
        print(f"{len(records)} served queries, golden has "
              f"{len(golden['queries'])}")
        return 1
    for record, pinned in zip(records, golden["queries"]):
        if record != pinned:
            print(f"request {record['request']} {record['query']}:\n"
                  f"  now    {record['hits']}\n  golden {pinned['hits']}")
            return 1
    print(f"{len(records)} hit lists identical to {GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
