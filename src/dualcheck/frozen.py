"""``frozen_node``: ``@dataclass(frozen=True)`` that computes the generated
hash once per instance and keeps it beside the fields, out of ``==``,
``repr``, ``dataclasses.fields``, ``dataclasses.replace`` and pickles (a
``str`` hashes differently under another ``PYTHONHASHSEED``).  A node built
with ``nested=True`` records its depth and is refused past MAX_DEPTH where
it is built, so no walk over a tree nears the recursion limit."""

from dataclasses import dataclass

from .errors import MalformedInputError

# A problem file nests at most MAX_NESTING constructors (sets, functions,
# maps and point negations alike); the margin covers the nodes a diagnosis
# wraps around them.
MAX_NESTING = 200
MAX_DEPTH = MAX_NESTING + 16


def _depth(value) -> int:
    if type(value) is tuple:
        return max(map(_depth, value), default=0)
    return getattr(value, "_depth", 0)


def _record_depth(self) -> None:
    # one more than the deepest field, or element of a tuple field
    depth = self.__dict__["_depth"] = 1 + _depth(tuple(self.__dict__.values()))
    if depth > MAX_DEPTH:
        raise MalformedInputError(f"set expression nested deeper than {MAX_DEPTH} levels")


def frozen_node(cls=None, *, nested: bool = False):
    def wrap(cls):
        if nested:
            cls.__post_init__ = _record_depth
        cls = dataclass(frozen=True)(cls)
        generated = cls.__hash__

        def __hash__(self):
            try:
                return self.__dict__["_hash"]
            except KeyError:
                h = self.__dict__["_hash"] = generated(self)
                return h

        cls.__hash__ = __hash__
        cls.__getstate__ = lambda self: {k: v for k, v in self.__dict__.items() if k != "_hash"}
        return cls

    return wrap if cls is None else wrap(cls)
