"""Hardened DAS grows linearly in the padded input.

R_C under hardening is the whole padded cross product, but nobody builds
it: the mediator forwards its two factors and the client hash-joins.  So
everything a query costs — rows shipped, result frames, bus bytes, the
client's etuple decryptions — must grow like the padded row count, not
like its square.  Counts and bus bytes do not depend on key size, so the
exponents are asserted here at test-scale keys.
"""

import math
import time

from repro import Federation, run_join_query
from repro.hardening import PaddingPolicy
from repro.mediation.access_control import allow_all
from repro.mediation.network import Network
from repro.relational.datagen import WorkloadSpec, generate
from repro.relational.schema import AttributeType
from repro.transport import RetryPolicy, TcpTransport

QUERY = "select * from R1 natural join R2"
#: Frames of 8 rows, so the frame count moves with the input too.
POLICY = PaddingPolicy(batch_size=8)


def hardened_run(ca, client, domain, policy=POLICY, network=None):
    workload = generate(
        WorkloadSpec(
            domain_1=domain, domain_2=domain, overlap=domain // 2,
            rows_per_value_1=2, rows_per_value_2=2,
            join_type=AttributeType.STRING, seed=domain,
        )
    )
    federation = Federation(ca=ca, network=network or Network())
    federation.add_source("S1", [(workload.relation_1, allow_all())])
    federation.add_source("S2", [(workload.relation_2, allow_all())])
    federation.attach_client(client)
    result = run_join_query(federation, QUERY, protocol="das", hardening=policy)
    return federation, result


def exponent(xs, ys):
    """Least-squares slope of log y over log x."""
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum(
        (a - mx) ** 2 for a in lx
    )


def test_cost_is_linear_in_the_padded_row_count(ca, client):
    padded, costs = [], {"rows": [], "frames": [], "bytes": [], "decrypts": []}
    for domain in (8, 16, 32):
        federation, result = hardened_run(ca, client, domain)
        network = federation.network
        padded.append(
            sum(
                len(message.body["relation"])
                for message in network.transcript
                if message.kind == "das_encrypted_partial_result"
            )
        )
        costs["rows"].append(result.artifacts["server_result_size"])
        costs["frames"].append(
            sum(m.kind == "das_server_result" for m in network.transcript)
        )
        costs["bytes"].append(network.total_bytes())
        costs["decrypts"].append(result.primitive_counter.counts["hybrid.decrypt"])
        assert costs["rows"][-1] <= padded[-1]
        assert costs["decrypts"][-1] <= padded[-1] + 2  # + the index tables
    assert padded == sorted(padded) and padded[-1] >= 4 * padded[0]
    for name, values in costs.items():
        assert exponent(padded, values) <= 1.1, (name, padded, values)


def test_two_hundred_values_finish_in_seconds_over_tcp(ca, client):
    """160 000 padded pairs took 2 507 messages and ~5 s on loopback; the
    two forwarded tables are 800 rows in 21 messages and well under 0.1 s."""
    retry = RetryPolicy(
        attempts=3, base_delay=0.05, connect_timeout=5.0, io_timeout=30.0
    )
    with TcpTransport(retry=retry) as transport:
        started = time.perf_counter()
        federation, result = hardened_run(
            ca, client, 200, PaddingPolicy(), network=transport
        )
        elapsed = time.perf_counter() - started
        assert result.artifacts["server_result_size"] == 800
        assert len(transport.transcript) < 30
    assert len(result.global_result) == 400
    assert elapsed < 2.0, elapsed
