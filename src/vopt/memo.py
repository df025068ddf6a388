"""One process-lifetime memo for the pure functions of a problem.

A call is keyed by the problem's parsed content (variable names, box bytes and
expression trees; never its source text, so comments do not matter) and the
exact bits of every other argument: -0.0 is not 0.0, nor is a point one ulp
away the same point.  Shared values are frozen (arrays read-only; a list, dict
or set in one is an error), and each function keeps its `size` most recently
used entries.  Nothing is computed at import.
"""

from __future__ import annotations

import functools
import inspect
import weakref
from collections import OrderedDict

import numpy as np

from .problem import ProblemDef

GRIDS = 2  # entries per function; a 61^3 or 21^4 grid holds 10-12 MB
RESULTS = 128
_stores: list[OrderedDict] = []


class _Content:
    """A problem's content key with its hash taken once: a memo hit then
    hashes the expression trees never, and compares them only across two
    loads of the same problem.  The box is read-only, so the key stays true."""

    __slots__ = ("parts", "hash")

    def __init__(self, P: ProblemDef):
        self.parts = (P.var_names, _key(P.lower), _key(P.upper), P.objectives, P.constraints)
        self.hash = hash(self.parts)

    def __hash__(self):
        return self.hash

    def __eq__(self, other):
        return self is other or (isinstance(other, _Content) and self.hash == other.hash
                                 and self.parts == other.parts)


_contents: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _key(v):
    if isinstance(v, ProblemDef):
        if v not in _contents:
            _contents[v] = _Content(v)
        return _contents[v]
    if isinstance(v, np.ndarray):
        return (np.ndarray, v.dtype.str, v.shape, v.tobytes())
    if isinstance(v, (tuple, list)):
        return (type(v), tuple(map(_key, v)))
    return (type(v), float.hex(v) if isinstance(v, float) else v)


def _freeze(v, seen: set) -> None:
    if id(v) in seen or isinstance(v, ProblemDef):
        return
    seen.add(id(v))
    if isinstance(v, (list, dict, set)):
        raise TypeError(f"a memoised value holds a mutable {type(v).__name__}")
    if isinstance(v, np.ndarray):
        v.flags.writeable = False
    elif isinstance(v, tuple) or hasattr(v, "__dict__"):
        for item in v if isinstance(v, tuple) else vars(v).values():
            _freeze(item, seen)


def memo(size: int):
    """Decorator: keep the `size` most recent distinct calls of a pure function."""

    def decorate(fn):
        signature, store = inspect.signature(fn), OrderedDict()
        _stores.append(store)

        @functools.wraps(fn)
        def cached(*args, **kwargs):
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            key = _key(tuple(call.arguments.values()))
            if key not in store:
                value = fn(*args, **kwargs)
                _freeze(value, set())
                store[key] = value
                if len(store) > size:
                    store.popitem(last=False)
            store.move_to_end(key)
            return store[key]

        cached.store, cached.size = store, size
        return cached

    return decorate


def clear() -> None:
    for store in _stores:
        store.clear()
