"""Serialization format v2/v3 additions that state shipping leans on.

The cluster subsystem ships whole operator states — including tiebreak
counters, frozen dataclasses and aliased substructures — so the encoder
extensions behind :mod:`repro.core.stateship` get their own pins here,
as do v3's block encodings of scalar containers (packed numbers, flat
tuple rows, str-keyed dicts), their fallbacks, and typed errors for
malformed bodies.
"""

import collections
import enum
import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.fingerprint import state_fingerprint
from repro.common.exceptions import SerializationError
from repro.common.serialization import _MAGIC, _VERSION, dump_state, load_state
from repro.core import stateship
from repro.temporal.spring import Match

TAG = "test-v2"


def _roundtrip(state: dict) -> dict:
    return load_state(TAG, dump_state(TAG, state))


def _body(state: dict) -> dict:
    """The JSON body :func:`dump_state` writes for *state*."""
    return json.loads(dump_state(TAG, state)[6 + len(TAG) :])


def _frame(body: dict) -> bytes:
    """A well-framed current-version payload around an arbitrary *body*."""
    return _MAGIC + bytes([_VERSION, len(TAG)]) + TAG.encode() + json.dumps(body).encode()


def _assert_exact(restored, original) -> None:
    """Equal state and the same Python type at every node, dict order too."""
    assert type(restored) is type(original)
    if isinstance(original, dict):
        assert len(restored) == len(original)
        for (rk, rv), (ok, ov) in zip(restored.items(), original.items()):
            _assert_exact(rk, ok)
            _assert_exact(rv, ov)
    elif isinstance(original, (list, tuple)):
        assert len(restored) == len(original)
        for r, o in zip(restored, original):
            _assert_exact(r, o)
    assert state_fingerprint(restored) == state_fingerprint(original)


class TestItertoolsCount:
    def test_counter_position_survives(self):
        counter = itertools.count(1)
        for __ in range(5):
            next(counter)
        restored = _roundtrip({"c": counter})["c"]
        assert next(restored) == 6
        assert next(restored) == 7

    def test_counter_with_step(self):
        counter = itertools.count(10, 3)
        next(counter)
        restored = _roundtrip({"c": counter})["c"]
        assert next(restored) == 13


class TestFrozenDataclass:
    def test_frozen_instances_restore(self):
        # Match is @dataclass(frozen=True): plain setattr raises, so the
        # decoder must fall back to object.__setattr__
        state = _roundtrip({"m": Match(start=3, end=9, distance=1.5)})
        assert state["m"] == Match(start=3, end=9, distance=1.5)

    def test_nested_in_containers(self):
        matches = [Match(0, 1, 0.5), Match(2, 5, 2.25)]
        state = _roundtrip({"matches": matches})
        assert state["matches"] == matches


class TestFloatPack:
    """Homogeneous float lists take the packed-doubles fast path; the
    round-trip must be bit-exact, and anything non-homogeneous must fall
    back to the structural encoding unchanged."""

    def test_large_float_list_roundtrips_bit_exact(self):
        values = [i * 0.1 for i in range(1000)]
        assert _roundtrip({"v": values})["v"] == values

    def test_special_values_survive(self):
        values = [float("inf"), float("-inf"), -0.0, 1e-308, 5e-324] * 10
        restored = _roundtrip({"v": values})["v"]
        assert restored == values
        assert str(restored[2]) == "-0.0"  # signed zero preserved

    def test_nan_survives(self):
        import math

        values = [float("nan")] * 64
        restored = _roundtrip({"v": values})["v"]
        assert all(math.isnan(v) for v in restored)

    def test_mixed_list_falls_back(self):
        # one int (or bool) disqualifies the pack; the generic path must
        # still restore exact types, not floats
        values = [0.5] * 63 + [1]
        restored = _roundtrip({"v": values})["v"]
        assert restored == values
        assert type(restored[-1]) is int

    def test_bool_list_not_packed(self):
        values = [True, False] * 32
        restored = _roundtrip({"v": values})["v"]
        assert all(type(v) is bool for v in restored)

    def test_shared_float_list_stays_aliased(self):
        shared = [float(i) for i in range(100)]
        state = _roundtrip({"a": shared, "b": shared})
        assert state["a"] is state["b"]
        assert state["a"] == shared


class TestCrossKeyAliasing:
    def test_shared_object_stays_shared_across_keys(self):
        shared = [1, 2, 3]
        state = _roundtrip({"a": shared, "b": shared})
        assert state["a"] is state["b"]

    def test_distinct_objects_stay_distinct(self):
        state = _roundtrip({"a": [1, 2, 3], "b": [1, 2, 3]})
        assert state["a"] == state["b"]
        assert state["a"] is not state["b"]

    def test_shared_rng_keeps_identity_and_position(self):
        rng = random.Random(7)
        rng.random()  # advance one draw
        state = _roundtrip({"x": rng, "y": rng})
        assert state["x"] is state["y"]
        reference = random.Random(7)
        reference.random()
        # the restored stream continues exactly where the original stood
        assert state["y"].random() == reference.random()


class TestPackedInts:
    """Long exact-int lists pack at the narrowest width holding their range
    and come back as Python ints; anything else keeps ``__list__``."""

    @pytest.mark.parametrize(
        ("edge", "dtype"),
        [
            (127, "<i1"),
            (-127, "<i1"),
            (-128, "<i1"),
            (128, "<i2"),
            (-129, "<i2"),
            (32767, "<i2"),
            (-32767, "<i2"),
            (-32768, "<i2"),
            (32768, "<i4"),
            (-32769, "<i4"),
            (2**31 - 1, "<i4"),
            (-(2**31), "<i4"),
            (2**31, "<i8"),
            (-(2**31) - 1, "<i8"),
            (2**63 - 1, "<i8"),
            (-(2**63) + 1, "<i8"),
            (-(2**63), "<i8"),
        ],
    )
    def test_width_boundaries_roundtrip_as_int(self, edge, dtype):
        values = list(range(-5, 35)) + [edge]
        assert _body({"v": values})["v"]["dtype"] == dtype
        _assert_exact(_roundtrip({"v": values})["v"], values)

    @pytest.mark.parametrize(
        "values",
        [
            [2**63] + list(range(40)),
            [-(2**63) - 1] + list(range(40)),
            [True, False] * 20,
            list(range(39)) + [True],
            list(range(31)),
        ],
        ids=["above-int64", "below-int64", "bools", "ints-and-bool", "short"],
    )
    def test_fallbacks_keep_element_types(self, values):
        assert "__list__" in _body({"v": values})["v"]
        _assert_exact(_roundtrip({"v": values})["v"], values)

    def test_int_enum_list_falls_back(self):
        class Level(enum.IntEnum):
            LOW = 1
            HIGH = 2

        values = [Level.LOW, Level.HIGH] * 20
        assert "__list__" in _body({"v": values})["v"]
        assert _roundtrip({"v": values})["v"] == values

    def test_packed_floats_replace_v2_floats_tag(self):
        values = [i * 0.5 for i in range(40)]
        assert _body({"v": values})["v"]["dtype"] == "<f8"
        _assert_exact(_roundtrip({"v": values})["v"], values)


class TestScalarRows:
    """Lists of tuples of exact scalars ship as native JSON arrays."""

    def test_special_scalars_roundtrip(self):
        rows = [
            (float("nan"), -0.0, None),
            (True, False, 2**100),
            (-(2**80), "w1", 1.5),
            (),
        ]
        assert "__tuples__" in _body({"v": rows})["v"]
        restored = _roundtrip({"v": rows})["v"]
        _assert_exact(restored, rows)
        assert math.isnan(restored[0][0])
        assert math.copysign(1.0, restored[0][1]) == -1.0

    @pytest.mark.parametrize(
        "rows",
        [
            [(1, (2, 3)), (4, (5, 6))],
            [(1, np.int64(2)), (3, np.int64(4))],
            [(1, 2), [3, 4]],
        ],
        ids=["nested-tuple", "numpy-scalar", "tuple-and-list"],
    )
    def test_non_scalar_rows_fall_back(self, rows):
        assert "__list__" in _body({"v": rows})["v"]
        restored = _roundtrip({"v": rows})["v"]
        assert restored == rows
        assert [type(row) for row in restored] == [type(row) for row in rows]
        if isinstance(rows[0][1], np.generic):
            assert restored[0][1].dtype == np.int64


class TestStrDict:
    """Exact str -> exact scalar dicts ship as native JSON objects."""

    def test_marker_spelled_keys_survive_in_order(self):
        table = {"__ref__": 1, "__shared__": None, "b": 2.5, "a": True, "": "x"}
        assert _body({"d": table})["d"] == {"__strdict__": table}
        _assert_exact(_roundtrip({"d": table})["d"], table)

    @pytest.mark.parametrize(
        "table",
        [{"a": 1, 2: 3}, {"a": [1, 2]}, {"a": (1, 2)}, collections.Counter({"a": 2})],
        ids=["int-key", "list-value", "tuple-value", "counter"],
    )
    def test_other_dicts_keep_their_paths(self, table):
        assert "__strdict__" not in _body({"d": table})["d"]
        _assert_exact(_roundtrip({"d": table})["d"], table)


class TestFlatAliasing:
    @pytest.mark.parametrize(
        "shared",
        [list(range(100)), [(1, "a"), (2, "b")], {"w1": 3, "w2": 5}],
        ids=["packed", "rows", "strdict"],
    )
    def test_aliased_flat_container_stays_aliased(self, shared):
        body = _body({"a": shared, "b": shared})
        assert "__shared__" in body["a"] and body["b"] == {"__ref__": 0}
        state = _roundtrip({"a": shared, "b": shared})
        assert state["a"] is state["b"]
        _assert_exact(state["a"], shared)


_SCALAR = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True),
    st.text(max_size=6),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(
            st.one_of(st.text(max_size=4), st.integers()), children, max_size=5
        ),
        st.dictionaries(st.text(max_size=4), _SCALAR, max_size=5),
        st.lists(st.integers(), min_size=32, max_size=60),
        st.lists(st.floats(allow_nan=True), min_size=32, max_size=60),
        st.lists(st.lists(_SCALAR, max_size=3).map(tuple), min_size=1, max_size=8),
    )


class TestScalarContainerProperty:
    @settings(max_examples=150, deadline=None)
    @given(st.recursive(_SCALAR, _containers, max_leaves=40))
    def test_nested_scalar_containers_restore_exactly(self, value):
        _assert_exact(_roundtrip({"v": value})["v"], value)


class TestCorruptBodies:
    """A body that frames correctly but does not describe a value raises
    SerializationError, not whatever numpy, zip or setstate raised."""

    @pytest.mark.parametrize(
        "encoded",
        [
            {"__ndarray__": "AAA=", "dtype": "<i8", "shape": [1]},
            {"__ndarray__": "AAAAAAAAAAA=", "dtype": "O", "shape": [1]},
            {"__ndarray__": "AAAAAAAAAAA=", "dtype": "<i8", "shape": [3]},
            {"__dict__": [[1]]},
            {"__tuple__": 5},
            {"__npgen__": "PCG64", "state": 5},
            {"__pyrandom__": {"__tuple__": [3, {"__tuple__": [1, 2]}, None]}},
            {"__packed__": "AAAAAAAAAAA=", "dtype": "O"},
            {"__packed__": "AAAAAAAAAAA=", "dtype": "|S8"},
            {"__packed__": "A$AA", "dtype": "<i8"},
            {"__packed__": "AAA=", "dtype": "<i8"},
            {"__floats__": "AAA=!"},
            {"__tuples__": 5},
            {"__strdict__": [1]},
        ],
        ids=[
            "ndarray-buffer-size",
            "ndarray-object-dtype",
            "ndarray-bad-shape",
            "dict-short-pair",
            "tuple-not-list",
            "npgen-bad-state",
            "pyrandom-short-state",
            "packed-object-dtype",
            "packed-unlisted-dtype",
            "packed-bad-base64",
            "packed-buffer-size",
            "floats-bad-base64",
            "tuples-not-list",
            "strdict-not-object",
        ],
    )
    def test_malformed_body_raises_serialization_error(self, encoded):
        with pytest.raises(SerializationError):
            load_state(TAG, _frame({"x": encoded}))

    def test_body_not_an_object(self):
        with pytest.raises(SerializationError):
            load_state(TAG, _frame([1, 2]))  # type: ignore[arg-type]

    @pytest.mark.parametrize(
        "doc",
        [
            {"state": {}},
            {"class": None},
            {"class": None, "state": 5},
            {"class": 7, "state": {}},
        ],
        ids=["no-class", "no-state", "state-not-dict", "class-not-path"],
    )
    def test_stateship_refuses_documents_without_class_and_state(self, doc):
        payload = dump_state(stateship.STATE_TAG, doc)
        with pytest.raises(SerializationError):
            stateship.restore(payload)
        with pytest.raises(SerializationError):
            stateship.restore_into(Match(0, 1, 0.0), payload)
        with pytest.raises(SerializationError):
            stateship.shipped_class(payload)


def _legacy_value() -> dict:
    """The value :data:`_V2_PAYLOAD` was captured from."""
    shared = [1, 2, 3]
    return {
        "floats": [i / 8 for i in range(40)],
        "ints": list(range(-20, 20)),
        "rows": [(3, 0, "w1"), (5, 1, "w2")],
        "strdict": {"w1": 3, "w2": 5, "__ref__": None},
        "intdict": {1: "a", (2, 3): 4.5},
        "counter": collections.Counter({"x": 2, "y": 1}),
        "sets": ({1, 2}, frozenset({"a"})),
        "deque": collections.deque([1.5, None, True], maxlen=4),
        "array": np.arange(6, dtype=np.int32).reshape(2, 3),
        "npscalar": np.float32(2.5),
        "bytes": (b"\x00\xff", bytearray(b"ab")),
        "alias": (shared, shared),
        "count": itertools.count(5, 2),
        "match": Match(start=1, end=4, distance=0.25),
    }


#: ``dump_state("legacy-v2", _legacy_value())`` as format v2 wrote it.
_V2_PAYLOAD = (
    b'RPRO\x02\tlegacy-v2{"floats":{"__floats__":"AAAAAAAAAAAAAAAAAADAPwAAAAAAANA/'
    b'AAAAAAAA2D8AAAAAAADgPwAAAAAAAOQ/AAAAAAAA6D8AAAAAAADsPwAAAAAAAPA/AAAAAAAA'
    b'8j8AAAAAAAD0PwAAAAAAAPY/AAAAAAAA+D8AAAAAAAD6PwAAAAAAAPw/AAAAAAAA/j8AAAAA'
    b'AAAAQAAAAAAAAAFAAAAAAAAAAkAAAAAAAAADQAAAAAAAAARAAAAAAAAABUAAAAAAAAAGQAAA'
    b'AAAAAAdAAAAAAAAACEAAAAAAAAAJQAAAAAAAAApAAAAAAAAAC0AAAAAAAAAMQAAAAAAAAA1A'
    b'AAAAAAAADkAAAAAAAAAPQAAAAAAAABBAAAAAAACAEEAAAAAAAAARQAAAAAAAgBFAAAAAAAAA'
    b'EkAAAAAAAIASQAAAAAAAABNAAAAAAACAE0A="},"ints":{"__list__":[-20,-19,-18,-'
    b'17,-16,-15,-14,-13,-12,-11,-10,-9,-8,-7,-6,-5,-4,-3,-2,-1,0,1,2,3,4,5,6,'
    b'7,8,9,10,11,12,13,14,15,16,17,18,19]},"rows":{"__list__":[{"__tuple__":['
    b'3,0,"w1"]},{"__tuple__":[5,1,"w2"]}]},"strdict":{"__dict__":[["w1",3],["'
    b'w2",5],["__ref__",null]]},"intdict":{"__dict__":[[1,"a"],[{"__tuple__":['
    b'2,3]},4.5]]},"counter":{"__counter__":[["x",2],["y",1]]},"sets":{"__tupl'
    b'e__":[{"__set__":[1,2]},{"__frozenset__":["a"]}]},"deque":{"__deque__":['
    b'1.5,null,true],"maxlen":4},"array":{"__ndarray__":"AAAAAAEAAAACAAAAAwAAA'
    b'AQAAAAFAAAA","dtype":"int32","shape":[2,3]},"npscalar":{"__npscalar__":"'
    b'AAAgQA==","dtype":"float32"},"bytes":{"__tuple__":[{"__bytes__":"AP8="},'
    b'{"__bytearray__":"YWI="}]},"alias":{"__tuple__":[{"__shared__":0,"value"'
    b':{"__list__":[1,2,3]}},{"__ref__":0}]},"count":{"__itercount__":[5,2]},"'
    b'match":{"__object__":"repro.temporal.spring:Match","state":{"__dict__":['
    b'["start",1],["end",4],["distance",0.25]]}}}'
)


class TestLegacyPayload:
    def test_v2_payload_decodes_to_the_same_value(self):
        assert _V2_PAYLOAD[4] == 2
        state = load_state("legacy-v2", _V2_PAYLOAD)
        expected = _legacy_value()
        assert list(state) == list(expected)
        for key in expected:
            if key == "count":
                assert next(state[key]) == next(expected[key])
            elif key == "match":
                assert state[key] == expected[key]
            else:
                _assert_exact(state[key], expected[key])
        assert state["alias"][0] is state["alias"][1]
        assert state["deque"].maxlen == 4

    def test_v2_payload_reencodes_as_v3_to_the_same_value(self):
        state = load_state("legacy-v2", _V2_PAYLOAD)
        again = load_state("legacy-v2", dump_state("legacy-v2", state))
        del state["count"], again["count"]
        assert state_fingerprint(again) == state_fingerprint(state)
