"""The TCP transcript is faithful to the wire.

``TcpTransport.send`` records the body object it encoded and never
decodes its own frame, so the round trip is checked here, once per
cell, instead of on every send.  For every DATA payload that left a
sender, captured at :func:`repro.transport.codec.encode_envelope`,

* the transcript body re-encodes, after the run, to exactly the captured
  bytes — so no driver changed a body after sending it;
* the transcript body equals what a receiver decodes from those bytes,
  and holds its column tables (message sets, DAS row tables) in the
  types the handlers were sent — an empty set or table, which has no
  wire type, decodes at the top of a body as ``[]`` / ``()``;
* every artifact computed from the transcript — the run's observables,
  the leakage report and the export's body fingerprints — is the same
  over the live transcript and over one rebuilt from the decoded bytes.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import DASConfig, Federation, run_join_query
from repro.analysis.export import export_run
from repro.analysis.leakage import analyze
from repro.core.commutative import MessageSet
from repro.core.das import EncryptedRelation, EncryptedRows, ServerResult
from repro.mediation.access_control import allow_all
from repro.mediation.network import Network
from repro.storage import SQLiteBackend
from repro.telemetry.observables import observables_artifact
from repro.transport import RetryPolicy, TcpTransport, codec

QUERY = "select * from R1 natural join R2"

POLICY = RetryPolicy(attempts=3, base_delay=0.05, connect_timeout=5.0,
                     io_timeout=30.0)

CELLS = [
    pytest.param(protocol, hardened, store, "equi_depth",
                 id=f"{protocol}-{'hardened' if hardened else 'plain'}-{store}")
    for protocol in ("das", "commutative", "private-matching")
    for hardened in (False, True)
    for store in ("none", "sqlite")
] + [
    pytest.param("das", hardened, "none", "singleton",
                 id=f"das-singleton-{'hardened' if hardened else 'plain'}-none")
    for hardened in (False, True)
]


@pytest.fixture
def captured(monkeypatch):
    """Every DATA envelope encoded during the test, by sequence."""
    payloads: dict[int, tuple[tuple, dict, bytes]] = {}
    encode = codec.encode_envelope

    def capture(*args, **kwargs):
        payload = encode(*args, **kwargs)
        payloads[args[0]] = (args, kwargs, payload)
        return payload

    monkeypatch.setattr(codec, "encode_envelope", capture)
    return payloads


def tables_of(body) -> list[tuple[type, int]]:
    """The type and length of every column table ``body`` holds, in
    dicts, sequences, R_i^S and R_C."""
    if type(body) in (MessageSet, EncryptedRows):
        return [(type(body), len(body))]
    if type(body) is EncryptedRelation:
        return tables_of(body.rows)
    if type(body) is ServerResult:
        return tables_of(body.rows_1) + tables_of(body.rows_2)
    values = body.values() if type(body) is dict else body
    if type(body) in (dict, list, tuple):
        return [table for value in values for table in tables_of(value)]
    return []


def replayed(result, bodies: dict[int, object]):
    """``result`` over a transcript whose bodies are the decoded ones."""
    replay = Network()
    for party in result.network.parties():
        replay.register(party)
    for message in result.network.transcript:
        replay._record(
            message.sequence, message.sender, message.receiver,
            message.kind, bodies[message.sequence], message.size_bytes,
        )
    return dataclasses.replace(result, network=replay)


@pytest.mark.parametrize("protocol, hardened, store, strategy", CELLS)
def test_transcript_is_faithful_to_the_wire(
    ca, client, workload, tmp_path, monkeypatch, captured,
    protocol, hardened, store, strategy,
):
    backend = SQLiteBackend(str(tmp_path / "s.db")) if store == "sqlite" else None
    try:
        with TcpTransport(retry=POLICY) as transport:
            federation = Federation(ca=ca, network=transport, storage=backend)
            federation.add_source("S1", [(workload.relation_1, allow_all())])
            federation.add_source("S2", [(workload.relation_2, allow_all())])
            federation.attach_client(client)
            result = run_join_query(
                federation, QUERY, protocol=protocol,
                config=DASConfig(strategy=strategy) if protocol == "das" else None,
                hardening=hardened or None,
            )
            transcript = transport.transcript
    finally:
        if backend is not None:
            backend.close()
    monkeypatch.undo()  # capture the run only; re-encode with the codec
    assert transcript and sorted(captured) == [m.sequence for m in transcript]

    decoded_bodies = {}
    columns = 0  # column tables sent
    for message in transcript:
        args, kwargs, payload = captured[message.sequence]
        assert args[1:4] == (message.sender, message.receiver, message.kind)
        assert codec.FRAME_HEADER_BYTES + len(payload) == message.size_bytes
        reencoded = codec.encode_envelope(*args[:4], message.body, **kwargs)
        assert reencoded == payload, message.summary()
        decoded = codec.decode_envelope(payload)[4]
        assert decoded == message.body, message.summary()
        if type(message.body) in (MessageSet, EncryptedRows) and not message.body:
            assert decoded in ([], ()), message.summary()
        else:
            assert tables_of(decoded) == tables_of(message.body), message.summary()
        columns += len(tables_of(message.body))
        decoded_bodies[message.sequence] = decoded

    assert columns > 0 or protocol == "private-matching"
    replay = replayed(result, decoded_bodies)
    assert observables_artifact(result) == observables_artifact(replay)
    assert analyze(replay) == analyze(result)
    assert export_run(replay) == export_run(result)

