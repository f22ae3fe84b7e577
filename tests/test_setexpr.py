"""Set expressions of R^1 and R^2 against the closure oracle.

Every term is built through the constructor table of the problem files
(``probfile._SETS``), so the rule engine sees what a ``query`` line gives
it.  The truth comes from ``oracles.set_notions``, which writes the rows of
each constructor itself and never normalizes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from dualcheck import setexpr as se
from dualcheck.inference import Engine, _KIND_OF_NOTION
from dualcheck.polyhedra import Notion
from dualcheck.probfile import _SETS
from dualcheck.setexpr import HOLDS, ORIGIN, UNKNOWN
from dualcheck.spaces import lp_space

from oracles import cone_test_all_rules, set_has_origin, set_notions
from randgen import BINARY, LEAVES, UNARY, build_term, random_term


def answers(term) -> list:
    """(source, notion, status, truth) for each answer about the origin and
    the set of ``term``: ``Engine.infer`` for every notion, and where the
    set holds the origin, every decided rule of the cone test.  Empty when
    the oracle cannot tell the truth."""
    truth = set_notions(term)
    if truth is None:
        return []
    s = build_term(term)
    eng = Engine()
    out = [("infer", nt, eng.infer(nt, ORIGIN, s).status, truth[nt]) for nt in Notion]
    if set_has_origin(term):
        out += [(rule, nt, f.status, truth[nt]) for nt in Notion for rule, f in cone_test_all_rules(eng, _KIND_OF_NOTION[nt], ORIGIN, s)]
    return out


def contradicts(status, truth: bool) -> bool:
    return status is not UNKNOWN and (status is HOLDS) != truth


def test_terms_cover_every_finite_dimensional_constructor():
    catalog = {name for name, (kinds, make) in _SETS.items() if not kinds and isinstance(make(lp_space()), se.CatalogAtom)}
    assert set(LEAVES + UNARY + BINARY) == set(_SETS) - catalog


# 2,400 draws, 12 for each of 200 seeds; the top constructor is never a
# leaf, since the leaves of R^1 and R^2 are few and checked inside the terms
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=True))
def test_rn_answers_match_the_closure_oracle(rng):
    batch = [random_term(rng, rng.choice((1, 2)), 3, UNARY + BINARY) for _ in range(12)]
    bad = [(term, a) for term in batch for a in answers(term) if contradicts(a[2], a[3])]
    assert not bad, bad
