"""Captured and merged state never aliases live state, registry-wide.

A bolt's ``snapshot()`` is a read-only view of its live state, and each
caller copies it exactly once: checkpoints and shipped shards as
:mod:`repro.core.stateship` bytes, ``LocalExecutor.merged_synopsis`` as a
fold into a fresh copy of the first shard. That one copy must really be a
copy. For every registered mergeable synopsis and for the stateful
built-in bolts this suite pins that

* updates to the live object after a capture never change the captured
  state, and updates after ``merged_synopsis`` never change the merged
  result (nor does ``merged_synopsis`` itself touch the live shards);
* after ``a.merge(b)``, updating either side never changes the other: a
  ``merge`` that adopts the other summary's mutable parts would let a
  live shard leak into a served view.

Equality is :func:`~repro.bench.fingerprint.state_fingerprint`.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.fingerprint import state_fingerprint
from repro.cardinality import HyperLogLog
from repro.common.exceptions import MergeError
from repro.core import StreamSummary, stateship
from repro.platform import (
    FaultInjector,
    ListSpout,
    LocalExecutor,
    SynopsisBolt,
    TopologyBuilder,
)
from repro.platform.operators import TumblingWindowBolt
from repro.quantiles import ExactQuantiles

from tests.core.test_batch_equivalence import SPEC, _build

# Registered synopses whose merge raises NotImplementedError (order- or
# position-bound state). Pinned, so that every other registered synopsis
# is covered below and a class that gains or loses merge fails loudly.
NOT_MERGEABLE = frozenset(
    {
        "approx_lis", "ar", "chain_sampler", "correlation_sketch", "dgim",
        "eh_sum", "eh_variance", "ewma", "extrema", "fk", "hoeffding_tree",
        "holt_winters", "hstrees", "inversions", "kalman", "lag_correlator",
        "lis", "local_trend", "mad", "p2", "page_hinkley", "priority_sampler",
        "significant_one", "spring", "subspace", "triangles", "ukf",
        "window_kl", "window_quantiles", "windowed_lcs", "windowed_topk",
        "zscore",
    }
)
MERGEABLE = sorted(set(SPEC) - NOT_MERGEABLE)


def _items(name: str, n: int, seed: int) -> list:
    __, workload = SPEC[name]
    return workload(n, random.Random(seed))


def _ingested(name: str, n: int, seed: int):
    synopsis = _build(name)
    if n:
        synopsis.update_many(_items(name, n, seed))
    return synopsis


@pytest.mark.parametrize("name", sorted(NOT_MERGEABLE))
def test_pinned_unmergeable_synopses_refuse_merge(name):
    with pytest.raises(NotImplementedError):
        _ingested(name, 16, 1).merge(_ingested(name, 16, 2))


@pytest.mark.parametrize("name", MERGEABLE)
def test_merge_refuses_a_foreign_synopsis(name):
    # merge runs the base compatibility check before it touches any state
    foreign = "count_min" if name == "hyperloglog" else "hyperloglog"
    with pytest.raises(MergeError):
        _ingested(name, 16, 1).merge(_ingested(foreign, 16, 2))


# (items in a, items in b): both fed, an empty receiver, an empty donor.
MERGE_SHAPES = [(150, 150), (0, 150), (150, 0)]


@pytest.mark.parametrize("sizes", MERGE_SHAPES, ids=["both", "empty_a", "empty_b"])
@pytest.mark.parametrize("name", MERGEABLE)
def test_merge_adopts_no_mutable_part_of_either_side(name, sizes):
    a = _ingested(name, sizes[0], 1)
    b = _ingested(name, sizes[1], 2)
    a.merge(b)
    merged = state_fingerprint(a)

    b.update_many(_items(name, 200, 3))
    assert state_fingerprint(a) == merged, "updating the donor changed the merge"

    donor = state_fingerprint(b)
    a.update_many(_items(name, 200, 4))
    assert state_fingerprint(b) == donor, "updating the merge changed the donor"


def _synopsis_executor(name: str, items: list) -> LocalExecutor:
    builder = TopologyBuilder()
    builder.set_spout("s", lambda: ListSpout([(item,) for item in items]))
    builder.set_bolt(
        "syn", lambda: SynopsisBolt(lambda: _build(name), batch_size=16), parallelism=2
    ).shuffle("s")
    return LocalExecutor(builder.build())


@pytest.mark.parametrize("name", MERGEABLE)
def test_merged_synopsis_is_detached_from_live_bolts(name):
    ex = _synopsis_executor(name, _items(name, 400, 5))
    ex.run_some(200)
    bolts = ex.bolt_instances("syn")
    live_before = [state_fingerprint(bolt.synopsis) for bolt in bolts]

    merged = ex.merged_synopsis("syn")
    view = state_fingerprint(merged)
    assert [state_fingerprint(bolt.synopsis) for bolt in bolts] == live_before

    ex.run()  # the live shards keep ingesting
    assert state_fingerprint(merged) == view, "live updates reached the merged view"

    live_after = [state_fingerprint(bolt.synopsis) for bolt in bolts]
    merged.update_many(_items(name, 100, 6))
    assert [state_fingerprint(bolt.synopsis) for bolt in bolts] == live_after


def _captured(payload: bytes):
    return stateship.restore(payload)["state"]


@pytest.mark.parametrize("name", MERGEABLE)
def test_synopsis_bolt_capture_outlives_its_view(name):
    bolt = SynopsisBolt(lambda: _build(name), batch_size=16)
    for item in _items(name, 150, 7):
        bolt.process((item,), lambda *out: None)
    view = bolt.snapshot()
    payload = stateship.capture({"state": view})
    captured = state_fingerprint(view)
    assert state_fingerprint(_captured(payload)) == captured

    for item in _items(name, 150, 8):
        bolt.process((item,), lambda *out: None)
    bolt.flush(lambda *out: None)
    assert state_fingerprint(_captured(payload)) == captured


@pytest.mark.parametrize("name", sorted(SPEC))
def test_restored_capture_keeps_ingesting_like_the_original(name):
    """A decoded checkpoint is a working synopsis, not just an equal
    fingerprint: it takes further updates (and merges) exactly as the
    original does. A ``defaultdict`` decoded as a plain dict would raise
    ``KeyError`` on the first missing key."""
    original = _ingested(name, 150, 10)
    # restore_into: the factory re-supplies callable configuration (UKF).
    restored = stateship.restore_into(_build(name), stateship.capture(original))
    more = _items(name, 150, 11)
    original.update_many(more)
    restored.update_many(more)
    assert state_fingerprint(restored) == state_fingerprint(original)
    if name not in NOT_MERGEABLE:
        restored.merge(_ingested(name, 100, 12))
        original.merge(_ingested(name, 100, 12))
        assert state_fingerprint(restored) == state_fingerprint(original)


def _synopsis_after_run(factory, items: list, crash_after: int | None):
    builder = TopologyBuilder()
    builder.set_spout("s", lambda: ListSpout([(item,) for item in items]))
    builder.set_bolt("syn", lambda: SynopsisBolt(factory, batch_size=16)).shuffle("s")
    ex = LocalExecutor(
        builder.build(),
        semantics="exactly_once",
        checkpoint_interval=50,
        faults=FaultInjector(crash_after=crash_after) if crash_after else None,
    )
    ex.run()
    assert ex.metrics.recoveries == (1 if crash_after else 0)
    return ex.bolt_instances("syn")[0].synopsis


@pytest.mark.parametrize("name", sorted(SPEC))
def test_exactly_once_recovery_matches_an_uncrashed_run(name):
    """A checkpoint is stateship bytes, decoded fresh on recovery and
    handed to the bolt, whose factory re-supplies callable configuration
    (the UKF's model functions)."""
    items = _items(name, 200, 13)
    want = state_fingerprint(_synopsis_after_run(lambda: _build(name), items, None))
    got = _synopsis_after_run(lambda: _build(name), items, crash_after=130)
    assert state_fingerprint(got) == want


def test_recovered_summary_keeps_its_extractors():
    def factory():
        return StreamSummary(
            extractors={"lengths": len},
            uniques=HyperLogLog(precision=8, seed=0),
            lengths=ExactQuantiles(),
        )

    words = [f"w{i % 37}" * (1 + i % 5) for i in range(300)]
    want = _synopsis_after_run(factory, words, None)
    got = _synopsis_after_run(factory, words, crash_after=170)
    assert state_fingerprint(got) == state_fingerprint(want)
    assert got["lengths"].quantile(0.5) == want["lengths"].quantile(0.5)


def _window_events(start: int, n: int) -> list[tuple]:
    return [(float(start + i) / 4, f"v{i % 13}") for i in range(n)]


def test_tumbling_window_capture_outlives_its_view():
    bolt = TumblingWindowBolt(size=10.0)
    for event in _window_events(0, 90):
        bolt.process(event, lambda *out: None)
    view = bolt.snapshot()
    payload = stateship.capture({"state": view})
    captured = state_fingerprint(view)

    for event in _window_events(90, 90):  # fills the open window, closes more
        bolt.process(event, lambda *out: None)
    bolt.flush(lambda *out: None)
    assert state_fingerprint(_captured(payload)) == captured


@pytest.mark.parametrize(
    "make_bolt, events",
    [
        (lambda: TumblingWindowBolt(size=10.0), _window_events(0, 200)),
        (
            lambda: SynopsisBolt(lambda: _build("space_saving"), batch_size=16),
            [(item,) for item in _items("space_saving", 200, 9)],
        ),
    ],
    ids=["tumbling_window", "synopsis"],
)
def test_restore_owns_a_decoded_checkpoint(make_bolt, events):
    """Restoring a captured view and replaying reaches the state (and the
    output) of an uninterrupted run."""
    straight, resumed = make_bolt(), make_bolt()
    out_straight, out_resumed = [], []
    for event in events:
        straight.process(event, lambda *out: out_straight.append(out))
    straight.flush(lambda *out: out_straight.append(out))

    for event in events[:120]:
        resumed.process(event, lambda *out: out_resumed.append(out))
    payload = stateship.capture({"state": resumed.snapshot()})
    emitted = len(out_resumed)
    for event in events[120:150]:  # lost work after the checkpoint
        resumed.process(event, lambda *out: out_resumed.append(out))
    del out_resumed[emitted:]
    resumed.restore(_captured(payload))
    for event in events[120:]:
        resumed.process(event, lambda *out: out_resumed.append(out))
    resumed.flush(lambda *out: out_resumed.append(out))

    assert out_resumed == out_straight
    assert state_fingerprint(resumed.snapshot()) == state_fingerprint(straight.snapshot())
