"""Columnar tuple-batch codec for the shared-memory data plane.

An envelope is a list of delivery entries ``(component, task, values,
root, tuple_id, trace)``. Pickling it through a ``multiprocessing`` pipe
capped cluster speedup (the retired cluster bench's queue rows, see
EXPERIMENTS.md "Retired suites"); this module's wire format is a
self-describing binary *frame* of numpy columns, so a batch crosses the
process boundary as a handful of contiguous arrays instead of thousands
of small Python objects:

* per-entry plumbing (``task``, ``root``, ``tuple_id``) travels as
  ``uint32``/``int64``/``uint64`` columns;
* hashed routing keys (``hash64`` of the fields-grouping key, when the
  routing edge produced one) travel as a ``uint64`` ``khash`` column —
  the key-affinity signal shard-splitting/elastic rescale (ROADMAP
  item 3) will consume without re-hashing;
* payload values are encoded **by position**: all-``int`` columns as
  ``int64``, all-``float`` as ``float64``, all-``bool`` as ``uint8``,
  all-``str`` as one UTF-8 buffer plus a ``uint32`` char-length column.
  Decoding a string column is one ``bytes.decode`` and ``n`` slices; the
  resulting items feed ``SynopsisBolt.update_many`` /
  ``HashFamily.hash_batch`` with no pickle anywhere on the path;
* anything the columnar codes cannot carry exactly (mixed types, big
  ints, arbitrary objects, varying arity) falls back to a pickled blob
  for that column/group — *counted*, so the transport can report how
  many data-plane bytes were pickled (the bench's honesty column).

Entries are grouped by destination component (each component has one
value schema), but every entry records its position in the original
envelope and :func:`decode_entries` reassembles the exact original
order — the codec is invisible to delivery semantics, grouping
contracts and fingerprints.

Frames are epoch-tagged like every cluster message; a frame from before
a rollback is discarded by the reader.
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np

from repro.common.exceptions import ExecutionError

#: Frame magic + format version (bump on any layout change).
MAGIC = 0x5AC0
VERSION = 1

_HEADER = struct.Struct("<HBBIIH")  # magic, version, flags, epoch, n, groups
_GROUP = struct.Struct("<HIB")  # comp_id, n, gflags
_U32 = struct.Struct("<I")

# Group flags.
_F_ROOTS_NONE = 0x01  # every root in the group is None: no roots column
_F_TRACES = 0x02  # sparse trace block present
_F_PICKLED = 0x04  # whole value block is one pickled list of tuples
_F_KHASH = 0x08  # hashed-routing-key uint64 column present

# Value-column codes.
_COL_INT64 = 0
_COL_FLOAT64 = 1
_COL_BOOL = 2
_COL_STR = 3
_COL_PICKLE = 4


@dataclass
class CodecStats:
    """Byte accounting for one or more encoded frames."""

    n_entries: int = 0
    frame_bytes: int = 0
    pickled_bytes: int = 0  # data-plane bytes that fell back to pickle

    def add(self, other: "CodecStats") -> None:
        """Fold *other*'s counts into this accumulator."""
        self.n_entries += other.n_entries
        self.frame_bytes += other.frame_bytes
        self.pickled_bytes += other.pickled_bytes


def component_table(names: Sequence[str]) -> tuple[dict[str, int], list[str]]:
    """A deterministic name<->id mapping shared by both frame ends."""
    ordered = sorted(names)
    return {name: i for i, name in enumerate(ordered)}, ordered


def frame_epoch(frame: bytes) -> int:
    """Peek a frame's epoch without decoding it.

    The coordinator's forwarding fast path uses this to drop stale
    traffic and route everything else as a pure byte copy.
    """
    magic, version, __, epoch, __, __ = _HEADER.unpack_from(frame, 0)
    if magic != MAGIC or version != VERSION:
        raise ExecutionError("not a columnar tuple frame")
    return epoch


def _encode_column(col: list) -> tuple[bytes, int]:
    """Encode one value position; returns (bytes, pickled_bytes)."""
    kinds = set(map(type, col))
    if kinds == {int}:
        try:
            raw = np.fromiter(col, dtype=np.int64, count=len(col)).tobytes()
            return bytes([_COL_INT64]) + raw, 0
        except (OverflowError, ValueError):
            pass  # out-of-range ints: fall through to pickle
    elif kinds == {float}:
        raw = np.fromiter(col, dtype=np.float64, count=len(col)).tobytes()
        return bytes([_COL_FLOAT64]) + raw, 0
    elif kinds == {bool}:
        raw = np.fromiter(col, dtype=np.uint8, count=len(col)).tobytes()
        return bytes([_COL_BOOL]) + raw, 0
    elif kinds == {str}:
        lens = np.fromiter(map(len, col), dtype=np.uint32, count=len(col))
        data = "".join(col).encode("utf-8")
        return (
            bytes([_COL_STR]) + lens.tobytes() + _U32.pack(len(data)) + data,
            0,
        )
    blob = pickle.dumps(col, protocol=pickle.HIGHEST_PROTOCOL)
    return bytes([_COL_PICKLE]) + _U32.pack(len(blob)) + blob, len(blob)


def _decode_column(mv: memoryview, offset: int, n: int) -> tuple[list, int]:
    code = mv[offset]
    offset += 1
    if code == _COL_INT64:
        col = np.frombuffer(mv, np.int64, n, offset).tolist()
        return col, offset + 8 * n
    if code == _COL_FLOAT64:
        col = np.frombuffer(mv, np.float64, n, offset).tolist()
        return col, offset + 8 * n
    if code == _COL_BOOL:
        col = np.frombuffer(mv, np.uint8, n, offset)
        return [bool(b) for b in col.tolist()], offset + n
    if code == _COL_STR:
        lens = np.frombuffer(mv, np.uint32, n, offset)
        offset += 4 * n
        (nbytes,) = _U32.unpack_from(mv, offset)
        offset += 4
        text = bytes(mv[offset : offset + nbytes]).decode("utf-8")
        ends = np.cumsum(lens).tolist()
        col, start = [], 0
        for end in ends:
            col.append(text[start:end])
            start = end
        return col, offset + nbytes
    if code == _COL_PICKLE:
        (nbytes,) = _U32.unpack_from(mv, offset)
        offset += 4
        col = pickle.loads(mv[offset : offset + nbytes])
        return col, offset + nbytes
    raise ExecutionError(f"unknown column code {code}")


def encode_entries(
    entries: Sequence[tuple],
    epoch: int,
    comp_ids: dict[str, int],
    khashes: Sequence[int | None] | None = None,
) -> tuple[bytes, CodecStats]:
    """Encode one envelope of delivery entries into a columnar frame.

    ``khashes`` is an optional parallel sequence of hashed routing keys
    (``None`` where the routing edge had no key hash).
    """
    stats = CodecStats(n_entries=len(entries))
    # Stable bucketing by destination component: per-(component, task)
    # relative order is preserved, and the per-entry ``order`` column lets
    # decode rebuild the exact envelope order.
    groups: dict[str, list[int]] = {}
    for pos, entry in enumerate(entries):
        groups.setdefault(entry[0], []).append(pos)
    parts = [b""]  # placeholder for the header
    for component, positions in groups.items():
        n = len(positions)
        sub = [entries[p] for p in positions]
        gflags = 0
        cols = [np.fromiter(positions, dtype=np.uint32, count=n).tobytes()]
        cols.append(
            np.fromiter((e[1] for e in sub), dtype=np.uint32, count=n).tobytes()
        )
        if all(e[3] is None for e in sub):
            gflags |= _F_ROOTS_NONE
        else:
            cols.append(
                np.fromiter(
                    (-1 if e[3] is None else e[3] for e in sub),
                    dtype=np.int64,
                    count=n,
                ).tobytes()
            )
        cols.append(
            np.fromiter((e[4] for e in sub), dtype=np.uint64, count=n).tobytes()
        )
        group_kh = None if khashes is None else [khashes[p] for p in positions]
        if group_kh is not None and any(h is not None for h in group_kh):
            gflags |= _F_KHASH
            cols.append(
                np.fromiter(
                    (0 if h is None else h for h in group_kh),
                    dtype=np.uint64,
                    count=n,
                ).tobytes()
            )
            # Presence mask: a hash of 0 is legal, None means "no key hash".
            cols.append(
                np.fromiter(
                    (0 if h is None else 1 for h in group_kh),
                    dtype=np.uint8,
                    count=n,
                ).tobytes()
            )
        traced = [(i, e[5]) for i, e in enumerate(sub) if e[5] is not None]
        if traced:
            gflags |= _F_TRACES
            k = len(traced)
            cols.append(_U32.pack(k))
            cols.append(
                np.fromiter((i for i, __ in traced), dtype=np.uint32, count=k).tobytes()
            )
            for field in range(3):  # trace_id, span_id, attempt
                cols.append(
                    np.fromiter(
                        (t[field] for __, t in traced), dtype=np.uint64, count=k
                    ).tobytes()
                )
        # Value columns (uniform arity required for the columnar path).
        arity = len(sub[0][2])
        if any(len(e[2]) != arity for e in sub) or arity > 255:
            gflags |= _F_PICKLED
            blob = pickle.dumps(
                [e[2] for e in sub], protocol=pickle.HIGHEST_PROTOCOL
            )
            stats.pickled_bytes += len(blob)
            values_part = _U32.pack(len(blob)) + blob
        else:
            column_parts = [bytes([arity])]
            for j in range(arity):
                encoded, pickled = _encode_column([e[2][j] for e in sub])
                stats.pickled_bytes += pickled
                column_parts.append(encoded)
            values_part = b"".join(column_parts)
        parts.append(_GROUP.pack(comp_ids[component], n, gflags))
        parts.extend(cols)
        parts.append(values_part)
    parts[0] = _HEADER.pack(MAGIC, VERSION, 0, epoch, len(entries), len(groups))
    frame = b"".join(parts)
    stats.frame_bytes = len(frame)
    return frame, stats


def decode_entries(
    frame: bytes | memoryview, comp_names: Sequence[str]
) -> tuple[int, list[tuple], list[int | None]]:
    """Decode a frame back into ``(epoch, entries, khashes)``.

    ``entries`` reproduces the encoded envelope exactly — same entry
    tuples, same order. ``khashes`` is the parallel hashed-key list
    (``None`` where absent).
    """
    mv = memoryview(frame)
    magic, version, __, epoch, n_entries, n_groups = _HEADER.unpack_from(mv, 0)
    if magic != MAGIC or version != VERSION:
        raise ExecutionError(
            f"bad frame header (magic={magic:#x}, version={version})"
        )
    offset = _HEADER.size
    entries: list[Any] = [None] * n_entries
    khashes: list[int | None] = [None] * n_entries
    for __ in range(n_groups):
        comp_id, n, gflags = _GROUP.unpack_from(mv, offset)
        offset += _GROUP.size
        component = comp_names[comp_id]
        order = np.frombuffer(mv, np.uint32, n, offset).tolist()
        offset += 4 * n
        tasks = np.frombuffer(mv, np.uint32, n, offset).tolist()
        offset += 4 * n
        if gflags & _F_ROOTS_NONE:
            roots: list[int | None] = [None] * n
        else:
            roots = [
                None if r == -1 else r
                for r in np.frombuffer(mv, np.int64, n, offset).tolist()
            ]
            offset += 8 * n
        tuple_ids = np.frombuffer(mv, np.uint64, n, offset).tolist()
        offset += 8 * n
        group_khashes: list[int | None] = [None] * n
        if gflags & _F_KHASH:
            raw_kh = np.frombuffer(mv, np.uint64, n, offset).tolist()
            offset += 8 * n
            present = np.frombuffer(mv, np.uint8, n, offset).tolist()
            offset += n
            group_khashes = [
                raw_kh[i] if present[i] else None for i in range(n)
            ]
        traces: list[tuple | None] = [None] * n
        if gflags & _F_TRACES:
            (k,) = _U32.unpack_from(mv, offset)
            offset += 4
            idx = np.frombuffer(mv, np.uint32, k, offset).tolist()
            offset += 4 * k
            fields = []
            for __ in range(3):
                fields.append(np.frombuffer(mv, np.uint64, k, offset).tolist())
                offset += 8 * k
            for j, i in enumerate(idx):
                traces[i] = (fields[0][j], fields[1][j], fields[2][j])
        if gflags & _F_PICKLED:
            (nbytes,) = _U32.unpack_from(mv, offset)
            offset += 4
            values = pickle.loads(mv[offset : offset + nbytes])
            offset += nbytes
        else:
            arity = mv[offset]
            offset += 1
            columns = []
            for __ in range(arity):
                col, offset = _decode_column(mv, offset, n)
                columns.append(col)
            values = list(zip(*columns)) if arity else [()] * n
        for i in range(n):
            pos = order[i]
            entries[pos] = (
                component,
                tasks[i],
                values[i],
                roots[i],
                tuple_ids[i],
                traces[i],
            )
            khashes[pos] = group_khashes[i]
    return epoch, entries, khashes


def encode_frames(
    entries: Sequence[tuple],
    epoch: int,
    comp_ids: dict[str, int],
    max_frame: int,
    khashes: Sequence[int | None] | None = None,
) -> Iterator[tuple[bytes, CodecStats]]:
    """Encode *entries*, splitting into multiple frames under *max_frame*.

    Splitting halves the envelope recursively (order within each half is
    preserved, and halves are yielded in order, so the concatenated
    decode equals the unsplit decode). A single entry whose lone frame
    still exceeds *max_frame* is an error — the ring is undersized for
    the payload.
    """
    frame, stats = encode_entries(
        entries, epoch, comp_ids, khashes=khashes
    )
    if len(frame) <= max_frame or len(entries) <= 1:
        if len(frame) > max_frame:
            raise ExecutionError(
                f"one delivery encodes to {len(frame)} bytes, above the "
                f"{max_frame}-byte frame limit; raise ring_capacity"
            )
        yield frame, stats
        return
    mid = len(entries) // 2
    halves = ((entries[:mid], None if khashes is None else khashes[:mid]),
              (entries[mid:], None if khashes is None else khashes[mid:]))
    for sub_entries, sub_khashes in halves:
        yield from encode_frames(
            sub_entries, epoch, comp_ids, max_frame, khashes=sub_khashes
        )
