"""``reportfmt.dumps_structured`` writes what
``json.dumps(doc, indent=2, ensure_ascii=True) + "\\n"`` writes, byte for byte."""

import enum
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualcheck import corpus
from dualcheck.conditions import diagnose
from dualcheck.errors import DualcheckError
from dualcheck.probfile import SetFactsInstance
from dualcheck.reportfmt import diagnosis_to_structured, dumps_structured, setfacts_to_structured

import test_numeric_golden as golden


def _reference(doc) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=True) + "\n"


def _corpus_docs():
    for entry in corpus.list_entries():
        instance = corpus.load(entry).instance
        if isinstance(instance, SetFactsInstance):
            yield setfacts_to_structured(instance)
        else:
            yield diagnosis_to_structured(diagnose(instance))


def _golden_docs():
    for instance in golden._instances():
        try:
            doc = diagnosis_to_structured(diagnose(instance))
        except DualcheckError:
            continue
        yield doc
        yield doc["provenance"]


def test_the_writer_matches_json_on_every_corpus_and_golden_document():
    docs = [*_corpus_docs(), *_golden_docs()]
    assert len(docs) > 14
    for doc in docs:
        assert dumps_structured(doc) == _reference(doc)


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.text(alphabet=st.characters(codec="utf-8"), max_size=6),
    st.sampled_from(("", '"', "\\", "\x00\x1f\x7f", "é ∞ 😀", "</script>")),
)
TREES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(TREES)
@example({"": [], "a": {}, "b": [[], {}, [{}]], "\ud800": "\udfff"})
@example([True, False, 0, 1, -1, 2**70, -(2**70)])
def test_the_writer_matches_json_on_random_trees(doc):
    assert dumps_structured(doc) == _reference(doc)


def _nested(depth: int, wrap):
    doc = "leaf"
    for level in range(depth):
        doc = wrap(doc, level)
    return doc


class Kind(str, enum.Enum):
    HOLDS = "holds"


class Rank(enum.IntEnum):
    TOP = 7


@pytest.mark.parametrize(
    "doc",
    [
        _nested(150, lambda inner, level: [inner, level, []]),
        _nested(150, lambda inner, level: {"inner": inner, "level": level, "empty": {}}),
        {"kind": Kind.HOLDS, Kind.HOLDS: [Kind.HOLDS, Rank.TOP, True, False, None], "rank": Rank.TOP},
        [True, False, None, Rank.TOP, (Kind.HOLDS, "holds")],
    ],
    ids=["deep-list", "deep-dict", "enum-dict", "enum-list"],
)
def test_deep_trees_and_subclassed_leaves_take_the_generic_path(doc):
    # deeper than the indent table, and leaves that are str or int without
    # being exactly str, so they must not be written as their own repr
    assert dumps_structured(doc) == _reference(doc)


@pytest.mark.parametrize("bad", [1.5, {1: "a"}, {"a": object()}, _nested(150, lambda inner, level: [inner, 1.5])])
def test_what_the_writer_cannot_write_is_a_type_error(bad):
    with pytest.raises(TypeError):
        dumps_structured(bad)
