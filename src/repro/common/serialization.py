"""Versioned byte serialization for synopses and shipped operator state.

Sketches travel between nodes in a scaled-out deployment (the speed layer of
the Lambda Architecture ships partial sketches to the serving layer for
merging; ``repro.cluster`` workers ship checkpoints and merge-on-query
partials to the coordinator), so every synopsis that supports it exposes
``to_bytes`` / ``from_bytes`` built on these helpers. Payloads are framed
with a magic prefix, a type tag and a format version so that decoding errors
surface as :class:`~repro.common.exceptions.SerializationError` instead of
garbage.

The payload body is a JSON document (numpy arrays are encoded as base64 of
their raw buffer plus dtype/shape), which keeps the format debuggable and
language-portable — the priority here is correctness and inspectability,
not the absolute minimum byte count.

Format version 2 extends version 1 (a strict superset — every v1 payload
decodes identically) with the encodings cross-process state shipping needs
to round-trip synopsis state **bit-identically**:

* tuples, sets, frozensets and deques keep their types (v1 collapsed
  tuples into lists);
* numpy scalars keep their dtype;
* ``random.Random`` / numpy ``Generator`` ship their full internal state,
  so restored synopses continue the *same* random stream;
* library objects (``repro.*`` classes) are encoded structurally — class
  path plus attribute state — honouring ``__getstate__``/``__setstate__``
  when defined; shared references and cycles are preserved via a
  two-pass memo, so aliased sub-objects stay aliased after decoding;
* classes with unserializable internals can register a *reducer*
  (:func:`register_reducer`) mapping them to a plain state dict and back;
* large lists of plain floats pack as base64 of little-endian IEEE-754
  doubles (``__floats__``) instead of element-wise JSON — bit-exact
  (a Python float *is* a C double).

Format version 3 (again a strict superset: v1 and v2 payloads, including
``__floats__``, decode exactly as before) stops walking Python scalars one
encoder call at a time. Profiling a capture of the serving summary showed
the cost was not its numpy arrays (HyperLogLog registers and the Count-Min
table are ~1/10 of the bytes and invisible in the profile) but the
element-wise walk: ~200k encoder calls and ~4M ``isinstance`` checks over
an :class:`~repro.quantiles.exact.ExactQuantiles` buffer of 25k ints and a
SpaceSaving heap of ~6.6k ``(count, tiebreak, item)`` tuples. v3 encodes
homogeneous scalar containers as whole blocks, with type checks run at C
speed (``set(map(type, ...))``) and every check *exact* (``type``, not
``isinstance``) so bools, ``IntEnum`` members and numpy scalars keep their
own encodings:

* exact ``int``/``float``/``str``/``bool``/``None`` leaves return at once
  from both passes;
* lists of at least :data:`_PACK_MIN` exact floats, or exact ints, pack as
  one little-endian buffer (``__packed__`` + ``dtype``): ``<f8`` for
  floats, the narrowest of ``<i1``/``<i2``/``<i4``/``<i8`` holding the
  ints' range; ints beyond int64 and mixed lists keep ``__list__``;
* a list of tuples of exact scalars is native JSON arrays (``__tuples__``);
* an exact ``dict`` with exact-``str`` keys and exact-scalar values is a
  native JSON object (``__strdict__``, insertion order kept).

A ``defaultdict`` keeps a factory that is a builtin type or a ``repro.*``
class (``__dict__`` + ``factory``), so a restored synopsis does not raise
``KeyError`` on its next new key; any other factory does not travel.

The containers themselves still join the shared-reference analysis (an
aliased buffer stays aliased); only the walk over their scalars is skipped.
Decoding a malformed body raises :class:`SerializationError`, never a raw
numpy/``zip``/``setstate`` error.

Callables are configuration, not stream state: object encoding skips
callable attributes, and restoring *into* a freshly constructed instance
(:mod:`repro.core.stateship`) re-supplies them from the factory side.
"""

from __future__ import annotations

import base64
import collections
import itertools
import json
import random
from typing import Any, Callable

import numpy as np

from repro.common.exceptions import SerializationError

_MAGIC = b"RPRO"
_VERSION = 3
_ACCEPTED_VERSIONS = (1, 2, 3)

#: Only classes from these package roots may be encoded structurally.
_TRUSTED_PREFIXES = ("repro.",)

# -- reducer registry --------------------------------------------------------

#: class -> (reduce(obj) -> dict, restore(dict) -> obj)
_REDUCERS: dict[type, tuple[Callable[[Any], dict], Callable[[dict], Any]]] = {}
_REDUCER_NAMES: dict[str, type] = {}


def _class_path(cls: type) -> str:
    return f"{cls.__module__}:{cls.__qualname__}"


def register_reducer(
    cls: type,
    reduce: Callable[[Any], dict],
    restore: Callable[[dict], Any],
) -> None:
    """Register a custom (reduce, restore) pair for *cls*.

    Used by classes whose instances hold unserializable internals that can
    be rebuilt from parameters (e.g. pre-keyed hash states). ``reduce``
    must return a plain serializable dict; ``restore`` receives that dict
    and returns an equivalent instance.
    """
    if cls in _REDUCERS:
        raise SerializationError(f"reducer for {cls.__name__} already registered")
    _REDUCERS[cls] = (reduce, restore)
    _REDUCER_NAMES[_class_path(cls)] = cls


def register_unshippable(
    cls: type, refuse: Callable[[Any], Any] | None = None
) -> None:
    """Mark *cls* as excluded from shipped state: encoding an instance
    raises :class:`SerializationError` instead of serializing it.

    For process-local runtime plumbing (shared-memory rings, transport
    channels) that must never ride a checkpoint or a merge-on-query
    payload — a shipped handle would dangle in the receiving process.
    *refuse* customises the error; the default names the class.
    """

    def _default_refuse(value: Any) -> Any:
        raise SerializationError(
            f"{type(value).__name__} is process-local runtime state and is "
            "excluded from shipped state"
        )

    action = refuse or _default_refuse
    register_reducer(cls, action, action)


def _resolve_class(path: str) -> type:
    if not any(path.startswith(prefix) for prefix in _TRUSTED_PREFIXES):
        raise SerializationError(f"refusing to resolve untrusted class {path!r}")
    module_name, _, qualname = path.partition(":")
    import importlib

    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise SerializationError(f"cannot import module for {path!r}: {exc}") from exc
    obj: Any = module
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            raise SerializationError(f"class {path!r} not found")
    if not isinstance(obj, type):
        raise SerializationError(f"{path!r} does not name a class")
    return obj


#: Builtin types a shipped ``defaultdict`` may name as its factory.
_BUILTIN_FACTORIES = {cls.__name__: cls for cls in (int, float, str, list, dict, set, tuple)}


def _factory_path(factory: Any) -> str | None:
    """A ``defaultdict`` factory's shippable name (None: it does not travel)."""
    name = getattr(factory, "__name__", None)
    if name in _BUILTIN_FACTORIES and _BUILTIN_FACTORIES[name] is factory:
        return name
    if isinstance(factory, type) and factory.__module__.startswith(_TRUSTED_PREFIXES):
        return _class_path(factory)
    return None


def _is_trusted_instance(value: Any) -> bool:
    cls = type(value)
    return any(cls.__module__.startswith(p) for p in _TRUSTED_PREFIXES)


def _object_state(value: Any) -> dict[str, Any]:
    """The attribute state of *value*: ``__getstate__`` if defined, else
    ``__dict__`` + slots with callable values skipped (they are
    configuration re-supplied by the constructing side)."""
    getstate = getattr(value, "__getstate__", None)
    if getstate is not None and type(value).__dict__.get("__getstate__") is not None:
        state = getstate()
        if not isinstance(state, dict):
            raise SerializationError(
                f"{type(value).__name__}.__getstate__ must return a dict"
            )
        return state
    state: dict[str, Any] = {}
    if hasattr(value, "__dict__"):
        state.update(vars(value))
    for slot in _all_slots(type(value)):
        if hasattr(value, slot):
            state.setdefault(slot, getattr(value, slot))
    return {k: v for k, v in state.items() if not callable(v)}


def _all_slots(cls: type) -> list[str]:
    slots: list[str] = []
    for klass in cls.__mro__:
        declared = klass.__dict__.get("__slots__", ())
        if isinstance(declared, str):
            declared = (declared,)
        for slot in declared:
            if slot not in ("__dict__", "__weakref__"):
                slots.append(slot)
    return slots


# -- shared-reference analysis ----------------------------------------------

_COMPOUND_TYPES = (
    dict,
    list,
    set,
    frozenset,
    collections.deque,
    np.ndarray,
    # Stateful stream positions: aliasing matters (a draw through one
    # reference must advance every other), so they join the shared-ref
    # analysis even though they encode through dedicated branches.
    random.Random,
    np.random.Generator,
    itertools.count,
)


#: Exact scalar types: JSON-native leaves that are never shared-reference
#: targets. Matched by ``type``, so a subclass instance (an ``IntEnum``
#: member) is not one and takes the element-wise path.
_SCALARS = frozenset({int, float, str, bool, type(None)})

#: Below this length the generic element-wise list encoding wins (no
#: base64 framing overhead, and the type scan is the same single pass).
_PACK_MIN = 32

#: Integer widths a packed int list may use, narrowest first.
_INT_DTYPES = tuple((name, np.iinfo(name)) for name in ("<i1", "<i2", "<i4", "<i8"))

#: The closed set of dtypes a packed list may declare.
_PACKED_DTYPES = frozenset({"<f8"} | {name for name, __ in _INT_DTYPES})


def _packed_dtype(value: list) -> str | None:
    """The dtype *value* packs as, or None to keep it element-wise.

    Lists of at least :data:`_PACK_MIN` exact floats pack as ``<f8``; exact
    ints as the narrowest width holding their min and max. Anything else —
    ints beyond int64, bools, mixes — round-trips through ``__list__`` so
    every element keeps its own type.
    """
    if len(value) < _PACK_MIN:
        return None
    types = set(map(type, value))
    if types == {float}:
        return "<f8"
    if types == {int}:
        lo, hi = min(value), max(value)
        for name, info in _INT_DTYPES:
            if info.min <= lo and hi <= info.max:
                return name
    return None


def _is_scalar_rows(items: Any) -> bool:
    """True for a non-empty collection of exact tuples of exact scalars."""
    return set(map(type, items)) == {tuple} and set(
        map(type, itertools.chain.from_iterable(items))
    ) <= _SCALARS


def _holds_no_refs(items: Any) -> bool:
    """True when no element of *items* can be a shared-reference target:
    every element is an exact scalar, or every one a tuple of them."""
    return set(map(type, items)) <= _SCALARS or _is_scalar_rows(items)


def _is_str_dict(value: Any) -> bool:
    """True for an exact dict of exact-str keys to exact-scalar values."""
    return (
        type(value) is dict
        and set(map(type, value)) <= {str}
        and set(map(type, value.values())) <= _SCALARS
    )


def _is_compound(value: Any) -> bool:
    return isinstance(value, _COMPOUND_TYPES) or (
        not isinstance(value, (str, bytes, int, float, bool, tuple, type(None)))
        and (_is_trusted_instance(value) or type(value) in _REDUCERS)
        and not callable(value)
    )


def _count_refs(value: Any, counts: dict[int, int], on_stack: set[int]) -> None:
    """First pass: count occurrences of every mutable compound value so the
    encoder knows which ones need a shared-reference id (count >= 2, which
    also covers cycles — a cycle revisits its entry while it is still on
    the traversal stack)."""
    if type(value) in _SCALARS:
        return
    if isinstance(value, tuple):
        for item in value:
            _count_refs(item, counts, on_stack)
        return
    if not _is_compound(value):
        return
    oid = id(value)
    if oid in counts:
        counts[oid] += 1
        return
    counts[oid] = 1
    if oid in on_stack:  # pragma: no cover - defensive (cycles hit counts)
        return
    on_stack.add(oid)
    # Containers of scalars are counted above but not walked: their
    # elements are never shared-reference targets.
    if isinstance(value, dict):
        if not (_holds_no_refs(value) and _holds_no_refs(value.values())):
            for k, v in value.items():
                _count_refs(k, counts, on_stack)
                _count_refs(v, counts, on_stack)
    elif isinstance(value, (list, set, frozenset, collections.deque)):
        if not _holds_no_refs(value):
            for item in value:
                _count_refs(item, counts, on_stack)
    elif isinstance(value, np.ndarray):
        pass
    elif isinstance(value, (random.Random, np.random.Generator)):
        pass
    else:
        for v in _object_state(value).values():
            _count_refs(v, counts, on_stack)
    on_stack.discard(oid)


class _Encoder:
    """Second pass: render the value graph into JSON-ready structures,
    emitting ``__shared__``/``__ref__`` markers for values the first pass
    saw more than once."""

    def __init__(self, shared_ids: set[int]):
        self.shared_ids = shared_ids
        self.memo: dict[int, int] = {}
        self.next_ref = 0

    def encode(self, value: Any) -> Any:
        if type(value) in _SCALARS:
            return value
        oid = id(value)
        if oid in self.memo:
            return {"__ref__": self.memo[oid]}
        if oid in self.shared_ids and _is_compound(value):
            ref = self.next_ref
            self.next_ref += 1
            self.memo[oid] = ref
            return {"__shared__": ref, "value": self._encode_body(value)}
        return self._encode_body(value)

    def _encode_body(self, value: Any) -> Any:
        if isinstance(value, np.ndarray):
            return {
                "__ndarray__": base64.b64encode(
                    np.ascontiguousarray(value).tobytes()
                ).decode("ascii"),
                "dtype": str(value.dtype),
                "shape": list(value.shape),
            }
        if isinstance(value, np.generic):
            return {
                "__npscalar__": base64.b64encode(value.tobytes()).decode("ascii"),
                "dtype": str(value.dtype),
            }
        if isinstance(value, bytes):
            return {"__bytes__": base64.b64encode(value).decode("ascii")}
        if isinstance(value, bytearray):
            return {
                "__bytearray__": base64.b64encode(bytes(value)).decode("ascii")
            }
        if isinstance(value, collections.Counter):
            return {
                "__counter__": [
                    [self.encode(k), self.encode(v)] for k, v in value.items()
                ]
            }
        if isinstance(value, dict):
            if _is_str_dict(value):
                return {"__strdict__": value}
            body = {"__dict__": [[self.encode(k), self.encode(v)] for k, v in value.items()]}
            factory = _factory_path(getattr(value, "default_factory", None))
            if factory is not None:
                body["factory"] = factory
            return body
        if isinstance(value, tuple):
            return {"__tuple__": [self.encode(v) for v in value]}
        if isinstance(value, list):
            dtype = _packed_dtype(value)
            if dtype is not None:
                packed = np.array(value, dtype=dtype).tobytes()
                return {
                    "__packed__": base64.b64encode(packed).decode("ascii"),
                    "dtype": dtype,
                }
            if _is_scalar_rows(value):
                return {"__tuples__": value}
            return {"__list__": [self.encode(v) for v in value]}
        if isinstance(value, (set, frozenset)):
            tag = "__frozenset__" if isinstance(value, frozenset) else "__set__"
            # Sort by the canonical encoding for a deterministic payload.
            encoded = [self.encode(v) for v in value]
            encoded.sort(key=lambda e: json.dumps(e, sort_keys=True, default=str))
            return {tag: encoded}
        if isinstance(value, collections.deque):
            return {
                "__deque__": [self.encode(v) for v in value],
                "maxlen": value.maxlen,
            }
        if isinstance(value, itertools.count):
            # ``__reduce__`` exposes ``(count, (current[, step]))`` — enough
            # to resume the counter exactly where it stopped, so tie-break
            # orderings stay deterministic across a restore.
            args = value.__reduce__()[1]
            return {"__itercount__": [self.encode(a) for a in args]}
        if isinstance(value, random.Random):
            return {"__pyrandom__": self.encode(value.getstate())}
        if isinstance(value, np.random.Generator):
            state = value.bit_generator.state
            return {
                "__npgen__": type(value.bit_generator).__name__,
                "state": self.encode(state),
            }
        if isinstance(value, (np.integer,)):  # pragma: no cover - np.generic above
            return int(value)
        if isinstance(value, (np.floating,)):  # pragma: no cover
            return float(value)
        if isinstance(value, (int, float, str)):  # scalar subclasses
            return value
        reducer = _REDUCERS.get(type(value))
        if reducer is not None:
            reduce_fn, __ = reducer
            return {
                "__reduced__": _class_path(type(value)),
                "state": self.encode(reduce_fn(value)),
            }
        if _is_trusted_instance(value) and not callable(value):
            return {
                "__object__": _class_path(type(value)),
                "state": self.encode(_object_state(value)),
            }
        raise SerializationError(
            f"cannot serialize value of type {type(value).__name__}"
        )


# -- decoding ----------------------------------------------------------------


class _Decoder:
    def __init__(self) -> None:
        self.refs: dict[int, Any] = {}

    def decode(self, value: Any) -> Any:
        if not isinstance(value, dict):
            return value
        if "__ref__" in value:
            ref = value["__ref__"]
            if ref not in self.refs:
                raise SerializationError(
                    f"unresolvable shared reference {ref} (cycle through an "
                    "unorderable container?)"
                )
            return self.refs[ref]
        if "__shared__" in value:
            return self._decode_body(value["value"], share_as=value["__shared__"])
        return self._decode_body(value, share_as=None)

    def _decode_body(self, value: Any, share_as: int | None) -> Any:
        def register(obj: Any) -> Any:
            if share_as is not None:
                self.refs[share_as] = obj
            return obj

        if not isinstance(value, dict):
            return register(value)
        if "__ndarray__" in value:
            raw = base64.b64decode(value["__ndarray__"])
            arr = np.frombuffer(raw, dtype=np.dtype(value["dtype"])).copy()
            return register(arr.reshape(value["shape"]))
        if "__npscalar__" in value:
            raw = base64.b64decode(value["__npscalar__"])
            return register(np.frombuffer(raw, dtype=np.dtype(value["dtype"]))[0])
        if "__bytes__" in value:
            return register(base64.b64decode(value["__bytes__"]))
        if "__bytearray__" in value:
            return register(bytearray(base64.b64decode(value["__bytearray__"])))
        if "__counter__" in value:
            out: collections.Counter = collections.Counter()
            register(out)
            for k, v in value["__counter__"]:
                out[_freeze(self.decode(k))] = self.decode(v)
            return out
        if "__dict__" in value:
            factory = value.get("factory")
            out_dict: dict = {} if factory is None else collections.defaultdict(
                _BUILTIN_FACTORIES.get(factory) or _resolve_class(factory)
            )
            register(out_dict)
            for k, v in value["__dict__"]:
                out_dict[_freeze(self.decode(k))] = self.decode(v)
            return out_dict
        if "__tuple__" in value:
            # Tuples are immutable: decode children first (a cycle cannot
            # pass through a tuple alone — it would need a mutable link).
            return register(tuple(self.decode(v) for v in value["__tuple__"]))
        if "__list__" in value:
            out_list: list = []
            register(out_list)
            out_list.extend(self.decode(v) for v in value["__list__"])
            return out_list
        if "__packed__" in value:
            return register(_unpack(value["__packed__"], value["dtype"]))
        if "__floats__" in value:  # v2's float-only pack
            return register(_unpack(value["__floats__"], "<f8"))
        if "__tuples__" in value:
            return register([tuple(row) for row in value["__tuples__"]])
        if "__strdict__" in value:
            if not isinstance(value["__strdict__"], dict):
                raise SerializationError("__strdict__ body is not a JSON object")
            return register(value["__strdict__"])
        if "__set__" in value:
            return register({self.decode(v) for v in value["__set__"]})
        if "__frozenset__" in value:
            return register(frozenset(self.decode(v) for v in value["__frozenset__"]))
        if "__deque__" in value:
            items = [self.decode(v) for v in value["__deque__"]]
            return register(collections.deque(items, maxlen=value.get("maxlen")))
        if "__itercount__" in value:
            args = [self.decode(a) for a in value["__itercount__"]]
            return register(itertools.count(*args))
        if "__pyrandom__" in value:
            rng = random.Random(0)  # seed irrelevant: setstate overwrites it
            rng.setstate(_tuplify(self.decode(value["__pyrandom__"])))
            return register(rng)
        if "__npgen__" in value:
            bitgen_cls = getattr(np.random, value["__npgen__"], None)
            if bitgen_cls is None:
                raise SerializationError(
                    f"unknown numpy bit generator {value['__npgen__']!r}"
                )
            bitgen = bitgen_cls()
            bitgen.state = self.decode(value["state"])
            return register(np.random.Generator(bitgen))
        if "__reduced__" in value:
            path = value["__reduced__"]
            cls = _REDUCER_NAMES.get(path)
            if cls is None:
                cls = _resolve_class(path)
                if cls not in _REDUCERS:
                    raise SerializationError(f"no reducer registered for {path!r}")
            __, restore_fn = _REDUCERS[cls]
            return register(restore_fn(self.decode(value["state"])))
        if "__object__" in value:
            cls = _resolve_class(value["__object__"])
            obj = cls.__new__(cls)
            register(obj)
            state = self.decode(value["state"])
            _apply_object_state(obj, state)
            return obj
        raise SerializationError(f"unknown encoded mapping: {sorted(value)}")


def _apply_object_state(obj: Any, state: dict[str, Any]) -> None:
    setstate = type(obj).__dict__.get("__setstate__")
    if setstate is not None:
        setstate(obj, state)
        return
    for name, val in state.items():
        try:
            setattr(obj, name, val)
        except AttributeError:
            # Frozen dataclasses (and other classes with a raising
            # __setattr__): bypass it the same way their __init__ does.
            try:
                object.__setattr__(obj, name, val)
            except AttributeError as exc:
                raise SerializationError(
                    f"cannot restore attribute {name!r} on {type(obj).__name__}"
                ) from exc


def _unpack(encoded: str, dtype: str) -> list:
    """A packed list back as Python floats/ints (``tolist`` converts)."""
    if dtype not in _PACKED_DTYPES:
        raise SerializationError(f"packed list with unsupported dtype {dtype!r}")
    raw = base64.b64decode(encoded, validate=True)
    return np.frombuffer(raw, dtype=dtype).tolist()


def _freeze(key: Any) -> Any:
    return tuple(key) if isinstance(key, list) else key


def _tuplify(value: Any) -> Any:
    """Deep list->tuple conversion (``random.Random.setstate`` wants the
    exact tuple shape ``getstate`` produced; v1 payloads stored lists)."""
    if isinstance(value, (list, tuple)):
        return tuple(_tuplify(v) for v in value)
    return value


# -- framing -----------------------------------------------------------------


def dump_state(type_tag: str, state: dict[str, Any]) -> bytes:
    """Frame *state* as a versioned byte payload for synopsis *type_tag*."""
    # One shared-reference analysis + one encoder across the whole state
    # dict, so values aliased between top-level keys stay aliased.
    counts: dict[int, int] = {}
    stack: set[int] = set()
    for v in state.values():
        _count_refs(v, counts, stack)
    shared = {oid for oid, n in counts.items() if n >= 2}
    encoder = _Encoder(shared)
    body = json.dumps(
        {k: encoder.encode(v) for k, v in state.items()}, separators=(",", ":")
    )
    tag = type_tag.encode("ascii")
    return _MAGIC + bytes([_VERSION, len(tag)]) + tag + body.encode("utf-8")


#: What decoding a malformed body raises from numpy, ``zip``, ``setstate``.
_BODY_ERRORS = (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError)


def load_state(type_tag: str, payload: bytes) -> dict[str, Any]:
    """Decode a payload produced by :func:`dump_state` for *type_tag*."""
    if len(payload) < 6 or payload[:4] != _MAGIC:
        raise SerializationError("payload does not start with the repro magic prefix")
    version = payload[4]
    if version not in _ACCEPTED_VERSIONS:
        raise SerializationError(f"unsupported format version {version}")
    tag_len = payload[5]
    tag = payload[6 : 6 + tag_len].decode("ascii")
    if tag != type_tag:
        raise SerializationError(f"payload is a {tag!r} synopsis, expected {type_tag!r}")
    try:
        doc = json.loads(payload[6 + tag_len :].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"corrupt payload body: {exc}") from exc
    decoder = _Decoder()
    try:
        return {k: decoder.decode(v) for k, v in doc.items()}
    except _BODY_ERRORS as exc:
        # A body that frames correctly but does not describe a value (bad
        # buffer sizes, shapes, RNG states, container layouts) fails deep
        # inside numpy, zip or setstate: surface it as the codec's error.
        raise SerializationError(
            f"corrupt payload body: {type(exc).__name__}: {exc}"
        ) from exc
