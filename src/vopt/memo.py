"""One process-lifetime memo for the pure functions of a problem.

A call is keyed by its arguments: a problem by its parsed content (a
`ProblemDef` hashes and compares by variable names, box bytes and expression
trees; never its source text, so comments do not matter), every other
argument by its exact bits: -0.0 is not 0.0, nor is a point one ulp away the
same point, and a list of floats is the float64 array of its bits.  Shared
values are frozen (arrays read-only; a list, dict or set in one is an error;
the call's own arguments are left alone), and so are the `shared` members a
value fills in later.  Each function keeps its `size` most recently used
entries.  Nothing is computed at import.
"""

from __future__ import annotations

import functools
import inspect
from collections import OrderedDict

import numpy as np

GRIDS = 2  # entries per function; a 61^3 or 21^4 grid holds 10-12 MB
RESULTS = 128
_stores: list[OrderedDict] = []


def _key(v):
    if isinstance(v, list) and all(isinstance(item, float) for item in v):
        v = np.array(v)  # a point given as a list shares the equal array's entry
    if isinstance(v, np.ndarray):
        return (np.ndarray, v.dtype.str, v.shape, v.tobytes())
    if isinstance(v, (tuple, list)):
        return (type(v), tuple(map(_key, v)))
    return (type(v), float.hex(v) if isinstance(v, float) else v)


def _freeze(v, seen: set) -> None:
    if id(v) in seen:
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
                _freeze(value, set(map(id, call.arguments.values())))
                store[key] = value
                if len(store) > size:
                    store.popitem(last=False)
            store.move_to_end(key)
            return store[key]

        cached.store, cached.size = store, size
        return cached

    return decorate


def shared(fn):
    """A cached property whose value is frozen like a memoised one, so a
    member filled in after its owner entered the memo is read-only too."""

    @functools.wraps(fn)
    def frozen(owner):
        value = fn(owner)
        _freeze(value, {id(owner)})
        return value

    return functools.cached_property(frozen)


def clear() -> None:
    for store in _stores:
        store.clear()
