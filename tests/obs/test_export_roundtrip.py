"""JSONL export round-trips and ExecutionTrace accounting properties.

The satellite requirements made explicit: ``total_bits()`` equals both
the sum over ``bits_by_node()`` and the sum of per-record
``total_bits``, and ``edge_schedule()`` survives a JSONL round trip
losslessly — property-based over randomized traces and payloads.  The
memoized round-line encoder writes exactly the bytes of
``json.dumps(_round_line(r), sort_keys=True)``, so fingerprints and
exported files do not change with it.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import bit_size
from repro.faults.check import trace_fingerprint
from repro.obs.export import (
    _round_line,
    decode_payload,
    encode_payload,
    encode_round_line,
    read_trace_jsonl,
    write_trace_jsonl,
)
from repro.obs.manifest import RunManifest
from repro.sim.trace import ExecutionTrace, RoundRecord

# ----------------------------------------------------------------------
# strategies
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.binary(max_size=12),
)

payloads = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.tuples(children, children),
        st.lists(children, max_size=3),
        st.frozensets(scalars, max_size=3),
    ),
    max_leaves=8,
)


@st.composite
def traces(draw):
    """A structurally valid ExecutionTrace over a small node set."""
    n = draw(st.integers(2, 6))
    ids = list(range(1, n + 1))
    num_rounds = draw(st.integers(0, 6))
    trace = ExecutionTrace(num_nodes=n)
    for r in range(1, num_rounds + 1):
        possible_edges = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1 :]]
        edges = frozenset(draw(st.lists(st.sampled_from(possible_edges), max_size=6)))
        senders = draw(st.lists(st.sampled_from(ids), max_size=n, unique=True))
        sends = {}
        for uid in senders:
            payload = draw(st.one_of(st.integers(0, 100), st.tuples(st.integers(0, 9))))
            sends[uid] = payload
        bits = {uid: bit_size(p) for uid, p in sends.items()}
        receivers = frozenset(uid for uid in ids if uid not in sends)
        delivered = {
            uid: sum(1 for (a, b) in edges if uid in (a, b) and (a + b - uid) in sends)
            for uid in receivers
        }
        trace.append(
            RoundRecord(
                round=r,
                edges=edges,
                sends=sends,
                bits=bits,
                receivers=receivers,
                delivered=delivered,
            )
        )
    if num_rounds and draw(st.booleans()):
        trace.termination_round = num_rounds
        trace.outputs = {uid: draw(st.integers(0, 5)) for uid in ids}
    return trace


#: payloads whose encoding contains the round line's own key names
key_like = st.sampled_from(["edges", "receivers", '"edges": ', ', "receivers": [1]'])


@st.composite
def interned_traces(draw):
    """Traces whose rounds share edge-set objects the way engines intern
    topologies: the same object repeated, equal copies (aliases under a
    different id), and empty sets; payloads mention the line's keys."""
    n = draw(st.integers(2, 6))
    ids = list(range(n))
    possible = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1 :]]
    pool = [frozenset()] + [
        frozenset(draw(st.lists(st.sampled_from(possible), max_size=8)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    trace = ExecutionTrace(num_nodes=n)
    for r in range(1, draw(st.integers(0, 8)) + 1):
        edges = draw(st.sampled_from(pool))
        if draw(st.booleans()):
            edges = frozenset(list(edges))  # equal content, new object
        senders = draw(st.lists(st.sampled_from(ids), max_size=n, unique=True))
        sends = {uid: draw(st.one_of(payloads, key_like)) for uid in senders}
        receivers = frozenset(uid for uid in ids if uid not in sends)
        trace.append(
            RoundRecord(
                round=r,
                edges=edges,
                sends=sends,
                bits={uid: bit_size(p) for uid, p in sends.items()},
                receivers=receivers,
                delivered={uid: draw(st.integers(0, n)) for uid in receivers},
            )
        )
    trace.outputs = {uid: draw(st.one_of(st.none(), key_like)) for uid in ids}
    return trace


# ----------------------------------------------------------------------
class TestRoundLineEncoder:
    @given(interned_traces())
    @settings(max_examples=80)
    def test_encoder_matches_json_dumps_of_round_line(self, trace):
        memo = {}
        for record in trace:
            assert encode_round_line(record, memo) == json.dumps(
                _round_line(record), sort_keys=True
            )
        assert len(memo) <= len({id(r.edges) for r in trace})

    @given(interned_traces())
    @settings(max_examples=40)
    def test_fingerprint_hashes_the_plain_json_lines(self, trace):
        h = hashlib.sha256()
        for record in trace:
            h.update(json.dumps(_round_line(record), sort_keys=True).encode())
        tail = {
            "termination_round": trace.termination_round,
            "outputs": {
                str(u): encode_payload(o) for u, o in sorted(trace.outputs.items())
            },
        }
        h.update(json.dumps(tail, sort_keys=True).encode())
        assert trace_fingerprint(trace) == h.hexdigest()

    @given(interned_traces())
    @settings(max_examples=30)
    def test_exported_round_lines_are_unchanged(self, trace):
        with tempfile.TemporaryDirectory() as d:
            path = pathlib.Path(d) / "run.jsonl"
            write_trace_jsonl(trace, path)
            lines = path.read_text().splitlines()
        want = [json.dumps(_round_line(r), sort_keys=True) for r in trace]
        assert lines[1 : 1 + len(want)] == want

    def test_a_memo_entry_is_tied_to_its_set_not_its_id(self):
        """A stale entry whose id now names another set is recomputed."""
        a = frozenset({(0, 1)})
        b = frozenset({(1, 2)})
        record = RoundRecord(1, b, {}, {}, frozenset(), {})
        memo = {id(b): (a, "[[0, 1]]")}
        assert '"edges": [[1, 2]]' in encode_round_line(record, memo)


class TestPayloadCodec:
    @given(payloads)
    @settings(max_examples=120)
    def test_codec_round_trips_payload_algebra(self, payload):
        encoded = encode_payload(payload)
        json.dumps(encoded)  # must be JSON-serializable as-is
        assert decode_payload(encoded) == payload
        assert type(decode_payload(encoded)) is type(payload)

    def test_tuple_list_distinction_preserved(self):
        assert decode_payload(encode_payload((1, 2))) == (1, 2)
        assert decode_payload(encode_payload([1, 2])) == [1, 2]
        assert decode_payload(encode_payload((True, 1))) == (True, 1)
        back = decode_payload(encode_payload((True, 1)))
        assert isinstance(back[0], bool) and not isinstance(back[1], bool)

    def test_unknown_object_degrades_to_repr(self):
        class Weird:
            def __repr__(self):
                return "Weird()"

        assert decode_payload(encode_payload(Weird())) == "Weird()"


class TestTraceAccounting:
    @given(traces())
    @settings(max_examples=60)
    def test_total_bits_identities(self, trace):
        assert trace.total_bits() == sum(trace.bits_by_node().values())
        assert trace.total_bits() == sum(rec.total_bits for rec in trace)

    @given(traces())
    @settings(max_examples=40)
    def test_edge_schedule_round_trips_losslessly(self, trace):
        with tempfile.TemporaryDirectory() as d:
            path = pathlib.Path(d) / "run.jsonl"
            write_trace_jsonl(trace, path)
            back = read_trace_jsonl(path).trace
        assert back.edge_schedule() == trace.edge_schedule()

    @given(traces())
    @settings(max_examples=40)
    def test_full_trace_round_trip(self, trace):
        with tempfile.TemporaryDirectory() as d:
            path = pathlib.Path(d) / "run.jsonl"
            manifest = RunManifest(seed=7, num_nodes=trace.num_nodes, adversary="Test")
            write_trace_jsonl(trace, path, manifest=manifest)
            run = read_trace_jsonl(path)
        back = run.trace
        assert back.num_nodes == trace.num_nodes
        assert back.rounds == trace.rounds
        assert back.termination_round == trace.termination_round
        assert back.outputs == trace.outputs
        assert back.total_bits() == trace.total_bits()
        assert back.bits_by_node() == trace.bits_by_node()
        for a, b in zip(back, trace):
            assert a.round == b.round
            assert a.edges == b.edges
            assert a.sends == b.sends
            assert a.bits == b.bits
            assert a.receivers == b.receivers
            assert a.delivered == b.delivered
        assert run.manifest.seed == 7 and run.manifest.adversary == "Test"
