"""Golden output of ``dualcheck analyze`` on every corpus entry.

The fixture ``corpus_golden.json`` stores, for each entry, the exit code
and the sha256 of the text and of the json-like output, so a change of
any byte that ``analyze`` prints for the paper's examples shows here.

The fixture is written by ``python tests/test_corpus_golden.py --write``
(with ``src`` on the path); it is only ever rewritten on purpose.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from dualcheck import corpus
from dualcheck.cli import main

FIXTURE = Path(__file__).resolve().parent / "corpus_golden.json"
FORMATS = ("text", "json-like")


def _analyze(entry: str, fmt: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["analyze", str(corpus._data_dir() / f"{entry}.prob"), "--format", fmt])
    return code, out.getvalue()


def _answers() -> dict:
    answers = {}
    for entry in corpus.list_entries():
        answers[entry] = {}
        for fmt in FORMATS:
            code, text = _analyze(entry, fmt)
            answers[entry][fmt] = {"exit": code, "sha256": hashlib.sha256(text.encode()).hexdigest()}
    return answers


def test_corpus_outputs_match_the_golden_fixture():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    got = _answers()
    assert list(got) == list(expected)
    diffs = [(k, expected[k], got[k]) for k in expected if got[k] != expected[k]]
    assert not diffs, diffs[:3]


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        FIXTURE.write_text(json.dumps(_answers(), indent=1) + "\n", encoding="utf-8")
    else:
        print(json.dumps(_answers(), indent=1))
