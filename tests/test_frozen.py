"""The contract of ``frozen.frozen_node``: set-expression nodes, points and
polyhedra hash once, to the value ``@dataclass(frozen=True)`` generates,
and a node past the depth bound is refused where it is built."""

import dataclasses
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualcheck import funcexpr as fx
from dualcheck import polyhedra as pg
from dualcheck import setexpr as se
from dualcheck.engine import IdentityMap, NamedMap, ShiftMap
from dualcheck.errors import MalformedInputError
from dualcheck.frozen import MAX_DEPTH
from dualcheck.inference import Engine
from dualcheck.polyhedra import Notion
from dualcheck.spaces import finite, lp_space

F = Fraction
SPACES = st.sampled_from((lp_space(), finite(1), finite(2)))
RATS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
NAMES = st.text(alphabet="xyzéµ\"\\", min_size=1, max_size=3)

SYM_POINTS = st.builds(se.SymPoint, NAMES, st.frozensets(st.sampled_from(("strictly_positive", "not_in_space"))))
POINTS = st.one_of(
    st.just(se.ORIGIN),
    st.builds(se.VecPoint, st.lists(RATS, min_size=1, max_size=2).map(tuple)),
    SYM_POINTS,
    st.builds(se.NegPoint, SYM_POINTS),
)


@st.composite
def _polyhedra(draw):
    n = draw(st.integers(1, 2))
    rows = draw(st.lists(st.tuples(st.lists(RATS, min_size=n, max_size=n).map(tuple), RATS), max_size=3))
    return pg.Polyhedron(n, tuple(rows), (), 0)


LEAVES = st.one_of(
    st.builds(se.PolyAtom, _polyhedra()),
    st.builds(se.CatalogAtom, st.sampled_from((se.LP_PLUS, se.SUBSPACE_C, se.CLOSED_SUBSPACE)), SPACES, st.just((("dense", True),))),
    st.builds(se.WholeSpace, SPACES),
    st.builds(se.Singleton, POINTS, SPACES),
)
GMAPS = st.one_of(st.just(IdentityMap()), st.builds(ShiftMap, POINTS), st.builds(NamedMap, NAMES))


def _extend(children):
    funcs = st.one_of(st.builds(fx.IndicatorOf, children), st.just(fx.NormAtom("l1")))
    return st.one_of(
        st.builds(se.Neg, children),
        st.builds(se.Scale, RATS, children),
        st.builds(se.Translate, children, POINTS),
        st.builds(se.MinkSum, st.lists(children, min_size=2, max_size=3).map(tuple)),
        st.builds(se.Product, children, children),
        st.builds(se.Intersect, children, children),
        st.builds(se.ConeHull, children),
        st.builds(se.ConvexHullWithOrigin, children),
        st.builds(se.Closure, children),
        st.builds(se.EpiDiffSet, funcs, funcs, RATS, SPACES),
        st.builds(se.ConicExtension, funcs, children, GMAPS, children, RATS, SPACES),
        st.builds(se.ImageSet, GMAPS, children, SPACES),
    )


TREES = st.recursive(LEAVES, _extend, max_leaves=8)


def _rebuild(x):
    """A copy of x made from the same parts, no object shared with x."""
    if isinstance(x, tuple):
        return tuple(_rebuild(v) for v in x)
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return type(x)(**{f.name: _rebuild(getattr(x, f.name)) for f in dataclasses.fields(x)})
    return x


def _nodes(x):
    """x and every hashed-once object inside it."""
    if isinstance(x, tuple):
        for v in x:
            yield from _nodes(v)
    elif dataclasses.is_dataclass(x) and not isinstance(x, type):
        if isinstance(x, (se.VecPoint, se.SymPoint, se.NegPoint, pg.Polyhedron)) or type(x).__module__ == se.__name__:
            yield x
        for f in dataclasses.fields(x):
            yield from _nodes(getattr(x, f.name))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(TREES)
def test_every_node_hashes_to_the_generated_value_once(tree):
    nodes = list(_nodes(tree))
    assert {type(n) for n in nodes} <= set(se.SetExpr.__args__) | {se.VecPoint, se.SymPoint, se.NegPoint, pg.Polyhedron}
    for node in nodes:
        fields = tuple(getattr(node, f.name) for f in dataclasses.fields(node))
        assert hash(node) == hash(fields)
        assert node.__dict__["_hash"] == hash(fields)
    twin = _rebuild(tree)
    assert twin is not tree
    assert "_hash" not in twin.__dict__
    assert hash(twin) == hash(tree) and twin == tree


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(TREES)
def test_the_stored_hash_stays_out_of_sight(tree):
    fresh = _rebuild(tree)
    hash(tree)
    assert repr(tree) == repr(fresh) and tree == fresh
    assert [f.name for f in dataclasses.fields(tree)] == [f.name for f in dataclasses.fields(fresh)]
    replaced = dataclasses.replace(tree)
    assert "_hash" not in replaced.__dict__ and replaced == tree
    loaded = pickle.loads(pickle.dumps(tree))
    assert "_hash" not in loaded.__dict__
    assert loaded == tree and hash(loaded) == hash(tree)


def test_a_pickled_node_hashes_afresh_under_another_hash_seed():
    node = se.Translate(se.CatalogAtom(se.LP_PLUS, lp_space(), ()), se.SymPoint("x"))
    hash(node)
    child = (
        "import pickle, sys\n"
        "from dualcheck import setexpr as se\n"
        "from dualcheck.spaces import lp_space\n"
        "loaded = pickle.loads(sys.stdin.buffer.read())\n"
        "fresh = se.Translate(se.CatalogAtom(se.LP_PLUS, lp_space(), ()), se.SymPoint('x'))\n"
        "print(hash(loaded) == hash(fresh), loaded == fresh)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(hash("seed") % 1000 + 1)}
    out = subprocess.run([sys.executable, "-c", child], input=pickle.dumps(node), capture_output=True, env=env, check=True)
    assert out.stdout.decode().split() == ["True", "True"]


def test_the_origin_hashes_to_its_constant():
    assert hash(se.ORIGIN) == hash("origin-point")


LEAF = se.CatalogAtom(se.LP_PLUS, lp_space(), ())
WRAPPERS = {
    "neg": se.Neg,
    "scale": lambda s: se.Scale(F(2), s),
    "translate": lambda s: se.Translate(s, se.SymPoint("x")),
    "minksum": lambda s: se.MinkSum((s, LEAF)),
    "product": lambda s: se.Product(s, LEAF),
    "intersect": lambda s: se.Intersect(LEAF, s),
    "conehull": se.ConeHull,
    "convexhull": se.ConvexHullWithOrigin,
    "closure": se.Closure,
    "image": lambda s: se.ImageSet(NamedMap("A"), s, lp_space()),
    "conic": lambda s: se.ConicExtension(fx.NormAtom("l1"), s, IdentityMap(), LEAF, F(0), lp_space()),
}


def _nest(wrap, depth):
    s = LEAF
    for _ in range(depth - 1):
        s = wrap(s)
    return s


@pytest.mark.parametrize("kind", sorted(WRAPPERS))
def test_a_node_past_the_depth_bound_is_refused_where_it_is_built(kind):
    at_bound = _nest(WRAPPERS[kind], MAX_DEPTH)
    assert at_bound._depth == MAX_DEPTH
    with pytest.raises(MalformedInputError):
        WRAPPERS[kind](at_bound)


@pytest.mark.parametrize("kind", sorted(WRAPPERS))
def test_a_nest_at_the_depth_bound_is_walked_without_recursion_errors(kind):
    s = _nest(WRAPPERS[kind], MAX_DEPTH)
    se._ATTR_MEMO.clear()
    se._NORM_MEMO.clear()
    hash(s)
    se.attrs(s)
    se.skey(s)
    se.normalize(s)
    try:
        Engine().infer(Notion.QRI, se.ORIGIN, s)
    except MalformedInputError:
        # a rule may wrap the set in one more node; that refusal is typed
        assert kind != "neg"
