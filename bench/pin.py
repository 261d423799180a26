#!/usr/bin/env python3
"""Write bench/expected.json: the pinned answer for every corpus document.

    python3 bench/pin.py [workload ...]

Decides each workload's corpus, as generated and before any relabeling,
through the CLI and records per document the digest of its text, the
answer line ('YES good-pair' or 'NO <reason>') and the exit code at the
pinning commit.  A document that exits 2 is pinned with the answer the
engine's characterization promised ('YES good-pair' after "promised a
good pair"); the fixtures from ROADMAP item 2 are YES by an ILP and by
the max_n=14 oracle.  Any other exit-2 document stops the pinning.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from run import SRC, WORK, Decider, answer_line


def pin(workload, workdir: Path) -> dict[str, list]:
    docs = workload.corpus()
    decider = Decider(docs, workdir)
    answers = {}
    for doc in docs:
        decider.decide(doc)
        code, out = decider.outputs[doc.key]
        if code in (0, 1):
            answer = answer_line(out)
        else:
            res = decider.runner.invoke(decider.main, ["decide", decider.paths[doc.key]])
            if doc.key != "fixture" and "promised" not in res.stderr:
                raise SystemExit(f"{workload.name} {doc.key}: unexpected exit 2: {res.stderr}")
            answer = "YES good-pair"
        answers[doc.key] = [doc.base, answer, code]
    return answers


def main(argv) -> int:
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    path = Path(__file__).resolve().parent / "expected.json"
    answers = json.loads(path.read_text()) if path.exists() else {}
    workdir = WORK / "pin"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in argv or WORKLOADS:
            answers[name] = pin(WORKLOADS[name], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    blocks = []
    for name in WORKLOADS:
        rows = ",\n".join(
            f"    {json.dumps(k)}: {json.dumps(v)}" for k, v in answers[name].items()
        )
        blocks.append(f"  {json.dumps(name)}: {{\n{rows}\n  }}")
    path.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
