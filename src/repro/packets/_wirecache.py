"""Invalidation-on-mutation serialization caches for packet dataclasses.

Packets traverse many simulated elements (routers, filters, shapers, the DPI
middlebox, endpoint stacks) and several of them need the packet's wire bytes
— for length/checksum validation, throughput accounting, or reassembly.
Re-serializing at every hop dominated the profile, so the packet dataclasses
memoize their serialized forms and drop the memo the moment any header field
is assigned.

The mechanism is a ``__setattr__`` override installed by
:func:`install_wire_cache`: assignments to declared dataclass fields clear
the named cache slots, while cache slots themselves (and any private
attribute) pass through untouched.  Caches default to ``None`` at class
level, so ``dataclasses.replace``-style copies start cold and can never
observe a stale value.

Construction bypasses the hook: each packet class's ``__init__`` validates
its arguments and stores the whole instance dict with one write, since a
fresh object has no cache to invalidate.  The hook only runs for
assignments after construction (crafted inert packets mutate fields).
"""

from __future__ import annotations

from dataclasses import fields


def install_wire_cache(cls: type, cache_attrs: tuple[str, ...]) -> None:
    """Wire mutation-invalidated cache slots into dataclass *cls*.

    Args:
        cls: a dataclass whose instances cache serialized bytes.
        cache_attrs: attribute names used as cache slots; they are created
            as class-level ``None`` defaults and reset to ``None`` whenever
            any declared field of *cls* is assigned.
    """
    field_names = frozenset(f.name for f in fields(cls))

    def __setattr__(
        self,
        name: str,
        value: object,
        _fields: frozenset[str] = field_names,
        _caches: tuple[str, ...] = cache_attrs,
    ) -> None:
        # Caches live in the instance dict only once populated (the class
        # holds the None default), so invalidation is a conditional delete.
        d = self.__dict__
        d[name] = value
        if name in _fields:
            for attr in _caches:
                if attr in d:
                    del d[attr]

    cls.__setattr__ = __setattr__  # type: ignore[method-assign]
    for attr in cache_attrs:
        setattr(cls, attr, None)
