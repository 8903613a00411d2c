"""Cross-module serialization round-trips (speed layer -> serving layer)."""

import json
from collections import defaultdict

import pytest

from repro.common.exceptions import SerializationError
from repro.common.rng import make_np_rng
from repro.core import stateship
from repro.frequency import SpaceSaving
from repro.quantiles import KLLSketch, TDigest
from repro.serving.demo import serving_summary
from repro.workloads import zipf_stream


class TestTDigestBytes:
    def test_roundtrip_preserves_quantiles(self):
        data = make_np_rng(71).lognormal(2, 1, size=20_000)
        td = TDigest(delta=150)
        td.update_many(data)
        clone = TDigest.from_bytes(td.to_bytes())
        for q in (0.1, 0.5, 0.99):
            assert clone.quantile(q) == pytest.approx(td.quantile(q))
        assert clone.count == td.count

    def test_clone_remains_usable(self):
        td = TDigest()
        td.update_many([1.0, 2.0, 3.0])
        clone = TDigest.from_bytes(td.to_bytes())
        clone.update_many([4.0, 5.0])
        assert clone.count == 5
        td.merge(clone)  # same delta: still mergeable
        assert td.count == 8


class TestSpaceSavingBytes:
    def test_roundtrip_preserves_topk(self):
        data = list(zipf_stream(20_000, universe=2_000, skew=1.2, seed=72))
        ss = SpaceSaving(k=64)
        ss.update_many(data)
        clone = SpaceSaving.from_bytes(ss.to_bytes())
        assert clone.top(10) == ss.top(10)
        assert clone.guaranteed_count(ss.top(1)[0][0]) == ss.guaranteed_count(ss.top(1)[0][0])

    def test_clone_accepts_updates(self):
        ss = SpaceSaving(k=4)
        ss.update_many(["a", "b", "a"])
        clone = SpaceSaving.from_bytes(ss.to_bytes())
        clone.update("a")
        assert clone.estimate("a") == 3

    def test_unportable_keys_rejected(self):
        ss = SpaceSaving(k=4)
        ss.update(object())
        with pytest.raises(SerializationError):
            ss.to_bytes()


class TestKLLBytes:
    def test_roundtrip_preserves_ranks(self):
        data = make_np_rng(73).normal(size=30_000)
        sketch = KLLSketch(k=200, seed=0)
        sketch.update_many(data)
        clone = KLLSketch.from_bytes(sketch.to_bytes())
        assert clone.quantile(0.5) == sketch.quantile(0.5)
        assert clone.count == sketch.count

    def test_roundtrip_then_merge(self):
        a, b = KLLSketch(k=128, seed=1), KLLSketch(k=128, seed=2)
        a.update_many(float(i) for i in range(1_000))
        b.update_many(float(i) for i in range(1_000, 2_000))
        restored = KLLSketch.from_bytes(a.to_bytes())
        restored.merge(b)
        assert restored.count == 2_000
        assert 800 <= restored.quantile(0.5) <= 1_200


def _fields(node) -> dict:
    """An encoded mapping's entries by key (``__dict__`` or ``__strdict__``
    form, unwrapping a ``__shared__`` marker)."""
    node = node.get("value", node) if "__shared__" in node else node
    if "__dict__" in node:
        return dict(node["__dict__"])
    return node.get("__strdict__", node)


class TestServingSummaryCapture:
    """The served summary's bulk state must take the v3 block encodings;
    a silent fall back to the element-wise walk would show up here before
    it shows up as a slow checkpoint."""

    #: ``len(stateship.capture(...))`` for the same input under format v2.
    V2_PAYLOAD_BYTES = 305_558

    def test_bulk_state_takes_block_encodings(self):
        tokens = list(zipf_stream(25_000, universe=50_000, skew=1.1, seed=7, prefix="w"))
        summary = serving_summary()
        summary.update_many(tokens)
        payload = stateship.capture(summary)
        body = json.loads(payload[6 + len(stateship.STATE_TAG) :])
        synopses = _fields(_fields(body["state"])["_synopses"])
        lengths = _fields(synopses["lengths"]["state"])
        topk = _fields(synopses["topk"]["state"])
        assert "__packed__" in lengths["_values"]
        assert lengths["_values"]["dtype"] == "<i1"
        assert "__tuples__" in topk["_heap"]
        assert "__strdict__" in topk["_counts"]
        assert len(payload) <= 0.75 * self.V2_PAYLOAD_BYTES
        restored = stateship.restore(payload)
        assert stateship.fingerprint(restored) == stateship.fingerprint(summary)
        assert restored["topk"]._heap == summary["topk"]._heap


class TestDefaultDictState:
    """A ``defaultdict`` keeps a shippable factory across a capture, so a
    restored synopsis (naive Bayes token tables, Hoeffding class counts)
    takes its next missing-key update instead of raising ``KeyError``."""

    def test_builtin_and_library_factories_survive(self):
        from repro.ml.hoeffding import _GaussianStat

        state = {
            "floats": defaultdict(float, {"x": 1.5}),
            "lists": defaultdict(list, {2: [1, 2]}),
            "stats": defaultdict(_GaussianStat),
        }
        state["alias"] = state["floats"]
        restored = stateship.restore(stateship.capture({"state": state}))["state"]
        assert restored["floats"].default_factory is float
        assert restored["lists"].default_factory is list
        assert restored["stats"].default_factory is _GaussianStat
        assert restored["floats"] == {"x": 1.5} and restored["lists"] == {2: [1, 2]}
        assert restored["alias"] is restored["floats"]
        restored["floats"]["new"] += 1.0
        assert restored["floats"]["new"] == 1.0

    def test_other_factories_travel_as_plain_dicts(self):
        state = {"d": defaultdict(lambda: 7, {"a": 1})}
        restored = stateship.restore(stateship.capture({"state": state}))["state"]
        assert type(restored["d"]) is dict and restored["d"] == {"a": 1}

    def test_untrusted_factory_name_is_refused(self):
        payload = stateship.capture({"state": {"d": defaultdict(int)}})
        forged = payload.replace(b'"int"', b'"os:system"')
        assert forged != payload
        with pytest.raises(SerializationError):
            stateship.restore(forged)
