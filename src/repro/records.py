"""One JSON codec for every spec, work item and result record.

Specs, cache keys and cached results are all dataclasses whose JSON form
follows from their fields and type annotations, so no class writes its
own ``to_dict``/``from_dict``:

* a nested dataclass encodes as an object, recursively (plain
  dataclasses nest as well as :class:`Record` subclasses);
* a *pairs* field -- ``Tuple[Tuple[str, X], ...]``, the repo's frozen
  dict -- encodes as an object; other tuples and lists encode as arrays,
  ``Dict[str, X]`` as an object, ``Optional[X]`` as null or ``X``;
* scalars pass through unchanged.

Encoding follows the annotation, inside containers too: a
``Tuple[Pairs, ...]`` field is a list of objects.  A class attribute
``SCHEMA`` is written as ``"schema"``.  A field declared with
``metadata=OMIT_DEFAULT`` is left out while it holds its default, which
is how a field added after a record's content keys were in use leaves
every existing key (and cache entry) unchanged.

Decoding is strict.  The schema must be present and equal, unknown keys
raise, numbers keep their JSON type (an int is accepted where a float is
declared; a bool is never a number) and any other type mismatch raises.
Objects are built through their constructors, so ``__post_init__``
validation still runs.  Errors are :class:`ValueError`,
:class:`TypeError` or :class:`KeyError`, all of which the result store
counts as rejects.

:func:`canonical_json` and :func:`content_hash` are the repo's one
canonical form and content key.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import typing
from types import MappingProxyType
from typing import Any, Callable, Optional, Tuple

__all__ = [
    "OMIT_DEFAULT",
    "Pairs",
    "Record",
    "canonical_json",
    "content_hash",
    "to_dict",
]

#: Field metadata: leave the field out of the JSON form while it holds
#: its default (``field(default=None, metadata=OMIT_DEFAULT)``).
OMIT_DEFAULT = MappingProxyType({"omit_default": True})

#: The frozen-dict idiom: sorted ``(name, value)`` pairs, a JSON object.
Pairs = Tuple[Tuple[str, float], ...]


def canonical_json(payload) -> str:
    """Sorted-key, no-whitespace JSON: one byte string per value."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_hash(payload) -> str:
    """sha256 of the canonical JSON, truncated to 40 hex chars."""
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")
    ).hexdigest()[:40]


def to_dict(obj) -> dict:
    """The JSON form of a dataclass instance."""
    return _encoder(type(obj))(obj)


class Record:
    """Codec methods for a dataclass, derived from its fields."""

    def to_dict(self) -> dict:
        return to_dict(self)

    @classmethod
    def from_dict(cls, d: dict):
        """Decode ``d``; raises on anything this class cannot hold."""
        return _decoder(cls)(d)

    def to_json(self, indent: Optional[int] = None) -> str:
        if indent is None:
            return canonical_json(self.to_dict())
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(json.loads(text))

    def content_key(self) -> str:
        """Stable content hash of the canonical JSON form."""
        return content_hash(self.to_dict())


# ---------------------------------------------------------------------------
# per-type encoders and decoders, built once per annotation
# ---------------------------------------------------------------------------


def _identity(value):
    return value


def _shape(tp):
    """How annotation ``tp`` maps to JSON: ``(kind, argument)``."""
    if dataclasses.is_dataclass(tp):
        return "dataclass", tp
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union:
        inner = [a for a in args if a is not type(None)]
        if len(inner) != 1:
            raise TypeError(f"unsupported union annotation {tp!r}")
        return "optional", inner[0]
    if origin is tuple:
        if len(args) != 2 or args[1] is not Ellipsis:
            return "fixed", args
        item_args = typing.get_args(args[0])
        if (
            typing.get_origin(args[0]) is tuple
            and len(item_args) == 2
            and item_args[0] is str
            and item_args[1] is not Ellipsis
        ):
            return "pairs", item_args[1]
        return "tuple", args[0]
    if origin is list:
        return "list", args[0]
    if origin is dict:
        return "dict", args[1]
    return "scalar", tp


@functools.lru_cache(maxsize=None)
def _fields(cls):
    """(name, annotation, omit-default?, default) per field, resolved
    once per class."""
    hints = typing.get_type_hints(cls)
    out = []
    for f in dataclasses.fields(cls):
        omit = bool(f.metadata.get("omit_default"))
        default = f.default
        if f.default_factory is not dataclasses.MISSING:
            default = f.default_factory()
        out.append((f.name, hints[f.name], omit, default))
    return out


@functools.lru_cache(maxsize=None)
def _encoder(tp) -> Callable:
    kind, arg = _shape(tp)
    if kind == "dataclass":
        return _dataclass_encoder(arg)
    if kind == "scalar":
        return _identity
    if kind == "fixed":
        encs = [_encoder(a) for a in arg]
        return lambda v: [e(x) for e, x in zip(encs, v)]
    enc = _encoder(arg)
    if kind == "optional":
        return lambda v: None if v is None else enc(v)
    if kind == "pairs":
        return lambda v: {k: enc(x) for k, x in v}
    if kind == "dict":
        return lambda v: {k: enc(x) for k, x in v.items()}
    if enc is _identity:
        return list
    return lambda v: [enc(x) for x in v]


def _dataclass_encoder(cls) -> Callable:
    schema = getattr(cls, "SCHEMA", None)
    plan = [
        (name, _encoder(tp), omit, default)
        for name, tp, omit, default in _fields(cls)
    ]

    def encode(obj) -> dict:
        out = {} if schema is None else {"schema": schema}
        for name, enc, omit, default in plan:
            value = getattr(obj, name)
            if omit and value == default:
                continue
            out[name] = enc(value)
        return out

    return encode


def _expect(kind, check) -> Callable:
    def decode(value):
        if not check(value):
            raise TypeError(
                f"expected {kind}, got {type(value).__name__} {value!r}"
            )
        return value

    return decode


#: Scalar annotations and the JSON values each accepts.
_SCALARS = {
    bool: _expect("bool", lambda v: type(v) is bool),
    int: _expect("int", lambda v: type(v) is int),
    float: _expect("float", lambda v: type(v) in (float, int)),
    str: _expect("str", lambda v: type(v) is str),
    dict: _expect("object", lambda v: type(v) is dict),
    object: _identity,
    Any: _identity,
}
_object = _SCALARS[dict]
_array = _expect("array", lambda v: type(v) is list)


@functools.lru_cache(maxsize=None)
def _decoder(tp) -> Callable:
    kind, arg = _shape(tp)
    if kind == "dataclass":
        return _dataclass_decoder(arg)
    if kind == "scalar":
        if arg not in _SCALARS:
            raise TypeError(f"no JSON decoding for annotation {tp!r}")
        return _SCALARS[arg]
    if kind == "fixed":
        decs = [_decoder(a) for a in arg]

        def fixed(v):
            if len(_array(v)) != len(decs):
                raise ValueError(f"expected {len(decs)} items, got {len(v)}")
            return tuple(d(x) for d, x in zip(decs, v))

        return fixed
    dec = _decoder(arg)
    if kind == "optional":
        return lambda v: None if v is None else dec(v)
    if kind == "pairs":
        return lambda v: tuple((k, dec(x)) for k, x in _object(v).items())
    if kind == "dict":
        return lambda v: {k: dec(x) for k, x in _object(v).items()}
    if kind == "tuple":
        return lambda v: tuple(dec(x) for x in _array(v))
    return lambda v: [dec(x) for x in _array(v)]


def _dataclass_decoder(cls) -> Callable:
    schema = getattr(cls, "SCHEMA", None)
    decoders = {field: _decoder(tp) for field, tp, _, _ in _fields(cls)}
    name = cls.__name__

    def decode(d):
        if type(d) is not dict:
            raise TypeError(
                f"{name}: expected an object, got {type(d).__name__}"
            )
        kwargs = dict(d)
        if schema is not None:
            found = kwargs.pop("schema", None)
            if type(found) is not int or found != schema:
                raise ValueError(f"{name} schema {found!r} != {schema}")
        unknown = sorted(kwargs.keys() - decoders.keys())
        if unknown:
            raise ValueError(f"{name}: unknown field(s) {unknown}")
        for key, value in kwargs.items():
            try:
                kwargs[key] = decoders[key](value)
            except TypeError as exc:
                raise TypeError(f"{name}.{key}: {exc}") from None
        return cls(**kwargs)

    return decode
