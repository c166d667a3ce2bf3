"""Request schemas and ingest events against a reference coercion.

Hypothesis draws wire payloads — well-formed values, numeric strings,
non-finite and huge numbers, booleans, nested containers, unknown keys
and non-object bodies — for every request schema a client sends and
every ingest event kind.  Each must either validate to exactly what the
plain reference below computes, or raise :class:`ServingError` with
status 400 and the reference's ``code`` and ``field``; nothing else may
escape.  The field tables are restated here on purpose, so a change to
the wire contract fails this test too.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.schemas import (
    HateGenRequest,
    ReloadRequest,
    RetweeterRequest,
    ServingError,
    validate_event_payload,
)

# (name, type, required, default, ge, list item type, non_empty)
SCHEMAS = {
    RetweeterRequest: (
        ("cascade_id", int, True, None, None, None, False),
        ("user_ids", list, False, None, None, int, True),
        ("interval", int, False, None, 0, None, False),
        ("top_k", int, False, None, 1, None, False),
    ),
    HateGenRequest: (
        ("user_id", int, True, None, None, None, False),
        ("hashtag", str, True, None, None, None, False),
        ("timestamp", float, True, None, None, None, False),
    ),
    ReloadRequest: (
        ("version", int, False, None, 1, None, False),
        ("alias", str, False, None, None, None, False),
    ),
}
_KIND = ("kind", str, True, None, None, None, False)
EVENTS = {
    "tweet": (
        _KIND,
        ("tweet_id", int, True, None, 0, None, False),
        ("user_id", int, True, None, 0, None, False),
        ("hashtag", str, True, None, None, None, False),
        ("text", str, True, None, None, None, False),
        ("timestamp", float, True, None, 0, None, False),
        ("is_hate", bool, False, False, None, None, False),
    ),
    "retweet": (
        _KIND,
        ("tweet_id", int, True, None, 0, None, False),
        ("user_id", int, True, None, 0, None, False),
        ("timestamp", float, True, None, 0, None, False),
    ),
    "follow": (
        _KIND,
        ("followee", int, True, None, 0, None, False),
        ("follower", int, True, None, 0, None, False),
    ),
    "hashtag": (
        _KIND,
        ("tag", str, True, None, None, None, False),
        ("theme", str, False, "none", None, None, False),
    ),
}


class Rejected(Exception):
    def __init__(self, code, field):
        super().__init__(code, field)
        self.code, self.field = code, field


def coerce(value, target, field):
    """The reference: no bools as numbers, no truncation, finite floats only."""
    if target is int and not isinstance(value, bool):
        if isinstance(value, int):
            return value
        if isinstance(value, float) and math.isfinite(value) and value == int(value):
            return int(value)
        if isinstance(value, str):
            try:
                return int(value)
            except ValueError:
                pass
    elif target is float and not isinstance(value, bool):
        if isinstance(value, (int, float, str)):
            try:
                out = float(value)
            except (ValueError, OverflowError):
                out = math.inf
            if math.isfinite(out):
                return out
    elif target is list and isinstance(value, list):
        return list(value)
    elif target in (str, bool) and isinstance(value, target):
        return value
    raise Rejected("invalid_type", field)


def reference(payload, fields):
    if not isinstance(payload, dict):
        raise Rejected("invalid_type", None)
    names = [f[0] for f in fields]
    for key in payload:
        if key not in names:
            raise Rejected("unknown_field", key)
    out = {}
    for name, target, required, default, ge, item, non_empty in fields:
        value = payload.get(name)
        if value is None:
            if required:
                raise Rejected("missing_field", name)
            out[name] = default
            continue
        value = coerce(value, target, name)
        if non_empty and not value:
            raise Rejected("empty", name)
        if item is not None:
            value = [coerce(v, item, f"{name} entry") for v in value]
        if ge is not None and value < ge:
            raise Rejected("out_of_range", name)
        out[name] = value
    return out


def reference_event(payload):
    if not isinstance(payload, dict):
        raise Rejected("invalid_type", None)
    kind = payload.get("kind")
    if not (isinstance(kind, str) and kind in EVENTS):
        raise Rejected("unknown_event_kind", "kind")
    return reference(payload, EVENTS[kind])


def check(validate, ref, payload):
    try:
        expected = ref(payload)
    except Rejected as want:
        with pytest.raises(ServingError) as got:
            validate(payload)
        assert (got.value.status, got.value.code, got.value.field) == (
            400, want.code, want.field,
        ), payload
        return
    got = validate(payload)
    assert got == expected, payload
    for name, value in expected.items():  # 1 == 1.0 == True: pin types too
        assert type(got[name]) is type(value), (payload, name)


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.integers(),
    st.sampled_from([2**63, -(2**63) - 1, 10**400]),
    st.floats(-20, 20).map(round),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(
        ["5", "-1", " 7 ", "1_0", "5.0", "0x10", "nan", "inf", "-inf", "1e400",
         "", "tweet", "retweet", "follow", "hashtag", "#t"]
    ),
    st.text(max_size=4),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)


def payloads(keys):
    keys = list(keys) + ["extra", "casacde_id"]
    return st.one_of(
        st.dictionaries(st.sampled_from(keys), VALUES, max_size=len(keys)),
        VALUES,
    )


@pytest.mark.parametrize("schema", list(SCHEMAS), ids=lambda s: s.__name__)
@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_request_schema_matches_reference(schema, data):
    fields = SCHEMAS[schema]
    payload = data.draw(payloads(f[0] for f in fields))
    check(
        lambda p: vars(schema.validate(p)),
        lambda p: reference(p, fields),
        payload,
    )


EVENT_KEYS = sorted({f[0] for fields in EVENTS.values() for f in fields})


@given(
    kind=st.one_of(st.sampled_from(sorted(EVENTS)), VALUES),
    body=payloads(EVENT_KEYS),
)
@settings(max_examples=800, deadline=None)
def test_event_payload_matches_reference(kind, body):
    if isinstance(body, dict):
        body = {**body, "kind": kind}
    check(validate_event_payload, reference_event, body)


@pytest.mark.parametrize(
    "payload, field",
    [
        ({"cascade_id": 3.7}, "cascade_id"),  # int() would truncate it to 3
        ({"cascade_id": float("inf")}, "cascade_id"),  # int() raises OverflowError
        ({"cascade_id": 1, "user_ids": [1, 2.5]}, "user_ids entry"),
    ],
)
def test_pinned_int_defects(payload, field):
    with pytest.raises(ServingError) as got:
        RetweeterRequest.validate(payload)
    assert (got.value.code, got.value.field) == ("invalid_type", field)


@pytest.mark.parametrize("timestamp", [float("nan"), float("inf"), "nan", "1e400", 10**400])
def test_pinned_non_finite_timestamp(timestamp):
    # NaN passes every range check; inf and 10**400 overflow downstream.
    with pytest.raises(ServingError) as got:
        HateGenRequest.validate({"user_id": 1, "hashtag": "h", "timestamp": timestamp})
    assert (got.value.code, got.value.field) == ("invalid_type", "timestamp")


@pytest.mark.parametrize("kind", [[], {}, ["tweet"]])
def test_pinned_unhashable_event_kind(kind):
    # An unhashable kind must not reach the kind-table lookup (TypeError).
    with pytest.raises(ServingError) as got:
        validate_event_payload({"kind": kind})
    assert (got.value.code, got.value.field) == ("unknown_event_kind", "kind")
