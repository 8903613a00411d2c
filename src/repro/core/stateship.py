"""State shipping: move synopsis/operator state across process boundaries.

``repro.cluster`` workers checkpoint their operators to the coordinator and
ship merge-on-query partials back; both cross a ``multiprocessing`` process
boundary as *bytes*, not objects. This module is the narrow waist for that
traffic, built on :mod:`repro.common.serialization` format v3:

* :func:`capture` — snapshot any library object (synopsis, window, plain
  state dict) into a framed byte payload. Class identity travels as a
  trusted ``module:qualname`` path; attribute state is encoded
  structurally, preserving tuples, numpy dtypes, RNG streams, shared
  references and cycles. Callable attributes are *configuration*, not
  stream state — they are skipped and must be re-supplied by the
  receiving side's factory (see :func:`restore_into`).
* :func:`restore` — rebuild a standalone object from a payload. Good for
  synopses, whose behaviour is fully determined by attribute state.
* :func:`restore_into` — apply a payload's state onto a freshly
  *constructed* instance of the same class. This is the path for objects
  carrying callable configuration (model functions, extractors): the
  factory supplies the callables, the payload supplies the state.
* :func:`adopt` — the same for an object already decoded (a checkpoint
  handed to ``Bolt.restore``): its state moves onto a fresh instance.
* :func:`fingerprint` — convenience re-export of
  :func:`repro.bench.fingerprint.state_fingerprint` so call sites that
  verify shipped state need one import.

Payloads are self-describing; :func:`shipped_class` peeks at the class
path without reconstructing, which the coordinator uses for routing and
streamlint's SL006 uses to keep the registry honest.

Process-local runtime plumbing is **explicitly excluded** from shipped
state: classes registered via :func:`register_unshippable` (shared-memory
ring handles, transport channels — see :mod:`repro.cluster.shm`) raise
:class:`~repro.common.exceptions.SerializationError` at capture time
rather than shipping a pointer that would dangle in the receiving
process.
"""

from __future__ import annotations

from typing import Any

from repro.common.exceptions import SerializationError
from repro.common.serialization import (
    _apply_object_state,
    _class_path,
    _object_state,
    _resolve_class,
    dump_state,
    load_state,
    register_unshippable,
)

__all__ = [
    "STATE_TAG",
    "capture",
    "shipped_class",
    "restore",
    "restore_into",
    "adopt",
    "fingerprint",
    "register_unshippable",
]

#: Frame tag for shipped operator/synopsis state.
STATE_TAG = "stateship"


def capture(obj: Any) -> bytes:
    """Snapshot *obj* into a self-describing byte payload.

    Plain dicts (bolt snapshots are often bare state dicts) are shipped
    as-is under a ``None`` class path; everything else records the class
    so :func:`restore` can rebuild it standalone.
    """
    if isinstance(obj, dict):
        return dump_state(STATE_TAG, {"class": None, "state": obj})
    return dump_state(STATE_TAG, {"class": _class_path(type(obj)), "state": _object_state(obj)})


def _load(payload: bytes) -> dict[str, Any]:
    """Decode a stateship document, refusing one not shaped like
    :func:`capture`'s (a ``class`` path or None, and a ``state`` dict)."""
    doc = load_state(STATE_TAG, payload)
    if (
        set(doc) != {"class", "state"}
        or not isinstance(doc["class"], (str, type(None)))
        or not isinstance(doc["state"], dict)
    ):
        raise SerializationError("stateship payload lacks a 'class' and a 'state' dict")
    return doc


def shipped_class(payload: bytes) -> str | None:
    """The ``module:qualname`` class path recorded in *payload* (None for
    bare dict payloads)."""
    return _load(payload)["class"]


def restore(payload: bytes) -> Any:
    """Rebuild the captured object (or bare dict) from *payload*.

    Objects are created without running ``__init__`` and filled from the
    shipped attribute state — exactly how the serializer itself rebuilds
    nested library objects. Callable configuration does not travel; use
    :func:`restore_into` when the class needs it.
    """
    doc = _load(payload)
    if doc["class"] is None:
        return doc["state"]
    cls = _resolve_class(doc["class"])
    obj = cls.__new__(cls)
    _apply_object_state(obj, doc["state"])
    return obj


def restore_into(target: Any, payload: bytes) -> Any:
    """Apply the shipped state onto *target*, a freshly built instance.

    *target* must be the same class the payload was captured from.
    Attributes absent from the payload (callables skipped at capture
    time) keep the values *target*'s constructor gave them, so model
    functions and extractors survive the process boundary.
    """
    doc = _load(payload)
    if doc["class"] is None:
        raise SerializationError("payload holds a bare state dict, not an object")
    if doc["class"] != _class_path(type(target)):
        raise SerializationError(
            f"payload is {doc['class']!r}, cannot restore into "
            f"{_class_path(type(target))!r}"
        )
    _apply_object_state(target, doc["state"])
    return target


def adopt(target: Any, obj: Any) -> Any:
    """Move *obj*'s attribute state onto *target*, a freshly built instance
    of the same class, which keeps the callables *obj* lacks."""
    if type(obj) is not type(target):
        raise SerializationError(
            f"cannot adopt {_class_path(type(obj))!r} into {_class_path(type(target))!r}"
        )
    _apply_object_state(target, _object_state(obj))
    return target


def fingerprint(obj: Any) -> str:
    """Stable structural fingerprint of *obj* (volatile attrs excluded)."""
    from repro.bench.fingerprint import state_fingerprint

    return state_fingerprint(obj)
