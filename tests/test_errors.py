"""Tests for the exception hierarchy contract.

Two contracts live here:

* **hierarchy** — every public error type sits under the right
  subsystem base and under :class:`~repro.errors.ReproError`;
* **coverage** — every public error type is actually *raisable* through
  a real library code path (the trigger registry below), so no error
  class can rot into dead taxonomy; and every
  :class:`~repro.errors.NetworkError` a TCP transport wait raises names
  the remote host, port, and the timeout budget that governed it.
"""

import socket
import threading
import time

import pytest

from repro import errors
from repro.crypto import paillier, symmetric
from repro.crypto.commutative import CommutativeGroup, CommutativeKey
from repro.crypto import serialization
from repro.deadline import check_deadline, deadline
from repro.faults import FaultInjector, FaultPlan, FaultRule, FaultyTransport
from repro.mediation.access_control import require
from repro.mediation.datasource import DataSource
from repro.mediation.network import Network
from repro.relational import sql
from repro.relational.partition import Partition
from repro.relational.relation import Relation
from repro.relational.schema import schema
from repro.storage import storage_from_spec
from repro.telemetry.metrics import MetricsRegistry
from repro.transport import RetryPolicy, TcpTransport, codec


class TestHierarchy:
    @pytest.mark.parametrize(
        "exception",
        [
            errors.CryptoError,
            errors.RelationalError,
            errors.MediationError,
            errors.CodecError,
            errors.TelemetryError,
        ],
    )
    def test_subsystem_bases(self, exception):
        assert issubclass(exception, errors.ReproError)

    @pytest.mark.parametrize(
        "exception,base",
        [
            (errors.KeyError_, errors.CryptoError),
            (errors.ParameterError, errors.CryptoError),
            (errors.EncryptionError, errors.CryptoError),
            (errors.DecryptionError, errors.CryptoError),
            (errors.IntegrityError, errors.DecryptionError),
            (errors.EncodingError, errors.CryptoError),
            (errors.SchemaError, errors.RelationalError),
            (errors.QueryError, errors.RelationalError),
            (errors.PartitionError, errors.RelationalError),
            (errors.AccessDenied, errors.MediationError),
            (errors.CredentialError, errors.MediationError),
            (errors.NetworkError, errors.MediationError),
            (errors.ServerBusy, errors.NetworkError),
            (errors.DeadlineExceeded, errors.NetworkError),
            (errors.FaultInjectedError, errors.NetworkError),
            (errors.ProtocolError, errors.MediationError),
            (errors.ValueCodecError, errors.CodecError),
            (errors.ValueCodecError, errors.EncodingError),
            (errors.FrameCodecError, errors.CodecError),
            (errors.FrameCodecError, errors.NetworkError),
        ],
    )
    def test_leaf_classification(self, exception, base):
        assert issubclass(exception, base)
        assert issubclass(exception, errors.ReproError)

    def test_catch_all_contract(self):
        """A caller catching ReproError catches every library failure."""
        try:
            raise errors.IntegrityError("tampered")
        except errors.ReproError as caught:
            assert "tampered" in str(caught)

    def test_keyerror_does_not_shadow_builtin(self):
        assert errors.KeyError_ is not KeyError
        assert not issubclass(errors.KeyError_, KeyError)


# -- raisability: one real library trigger per public error type -------------

def _trigger_deadline_exceeded():
    with deadline(1e-6):
        time.sleep(0.002)
        check_deadline("taxonomy trigger")


def _trigger_fault_injected():
    transport = FaultyTransport(
        Network(),
        FaultInjector(
            FaultPlan(rules=(FaultRule(action="drop", max_triggers=0),))
        ),
    )
    transport.register("a")
    transport.register("b")
    transport.send("a", "b", "kind", None)


def _trigger_server_busy():
    transport = TcpTransport(
        retry=RetryPolicy(attempts=2, base_delay=0.01, max_delay=0.02),
        server_options={"max_sessions": 1},
    )
    try:
        transport.register("a")
        transport.open_session("first")   # fills the only session slot
        transport.open_session("second")  # refused: BUSY -> ServerBusy
    finally:
        transport.close()


def _trigger_integrity_error():
    key = symmetric.generate_key()
    ciphertext = bytearray(symmetric.encrypt(key, b"payload"))
    ciphertext[-1] ^= 0xFF  # garble the MAC tag
    symmetric.decrypt(key, bytes(ciphertext))


#: error type -> a zero-argument callable exercising the real code path
#: that raises exactly that type.
TRIGGERS = {
    errors.KeyError_: lambda: CommutativeKey(CommutativeGroup(p=23), exponent=0),
    errors.ParameterError: lambda: CommutativeGroup(p=4),
    errors.EncryptionError: lambda: paillier.encrypt(
        paillier.PaillierPublicKey(n=(1 << 64) + 13), (1 << 64) + 14
    ),
    errors.DecryptionError: lambda: symmetric.decrypt(
        symmetric.generate_key(), b"short"
    ),
    errors.IntegrityError: _trigger_integrity_error,
    errors.EncodingError: lambda: serialization.loads("{not json"),
    errors.SchemaError: lambda: Relation(schema("R", k="int"), [("text",)]),
    errors.QueryError: lambda: sql.parse("select §§ from nowhere"),
    errors.PartitionError: lambda: Partition(frozenset()),
    errors.AccessDenied: lambda: require(("role", "admin")).evaluate(
        Relation(schema("R", k="int"), [(1,)]), []
    ),
    errors.CredentialError: lambda: DataSource(name="S1").check_credentials([]),
    errors.NetworkError: lambda: Network().send("ghost", "b", "kind", None),
    errors.ServerBusy: _trigger_server_busy,
    errors.DeadlineExceeded: _trigger_deadline_exceeded,
    errors.FaultInjectedError: _trigger_fault_injected,
    errors.ProtocolError: lambda: FaultRule(action="explode"),
    errors.ValueCodecError: lambda: codec.decode_value(b"\xff"),
    errors.FrameCodecError: lambda: codec.parse_frame_header(b"XXXXXXXX"),
    errors.TelemetryError: lambda: MetricsRegistry().counter("bad name!"),
    errors.StorageError: lambda: storage_from_spec("postgres:not-yet"),
}


def public_error_types() -> list[type]:
    return [
        obj
        for name, obj in vars(errors).items()
        if isinstance(obj, type)
        and issubclass(obj, errors.ReproError)
        and not name.startswith("_")
    ]


class TestEveryErrorTypeIsRaised:
    @pytest.mark.parametrize(
        "exception", list(TRIGGERS), ids=lambda e: e.__name__
    )
    def test_trigger_raises_exactly_that_type(self, exception):
        with pytest.raises(exception) as excinfo:
            TRIGGERS[exception]()
        assert type(excinfo.value) is exception

    def test_taxonomy_is_fully_covered(self):
        """Every public error type is triggered directly or — for the
        subsystem base classes, which are never raised as-is — via a
        triggered strict subclass."""
        for exception in public_error_types():
            directly = exception in TRIGGERS
            via_subclass = any(
                issubclass(triggered, exception) and triggered is not exception
                for triggered in TRIGGERS
            )
            assert directly or via_subclass, (
                f"{exception.__name__} is never raised by any test trigger"
            )


# -- the NetworkError message contract on TCP waits ---------------------------

FAST = RetryPolicy(
    attempts=2, base_delay=0.01, max_delay=0.02, connect_timeout=0.3,
    io_timeout=0.3,
)


def unused_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class SilentListener:
    """Accepts connections, reads, and never answers — the dead peer
    behind every acknowledgement-timeout message."""

    def __init__(self) -> None:
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen()
        self.port = self._listener.getsockname()[1]
        self._alive = True
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while self._alive:
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return
            with connection:
                connection.settimeout(0.1)
                while self._alive:
                    try:
                        if not connection.recv(4096):
                            break
                    except socket.timeout:
                        continue
                    except OSError:
                        break

    def close(self) -> None:
        self._alive = False
        self._listener.close()
        self._thread.join(timeout=2.0)


class TestNetworkErrorMessageContract:
    """Every NetworkError from a failed TCP wait names host, port, and
    the timeout budget — actionable without reading the configuration."""

    def assert_names_endpoint(self, message: str, port: int) -> None:
        assert "127.0.0.1" in message
        assert str(port) in message
        assert f"connect timeout {FAST.connect_timeout}s" in message
        assert f"io timeout {FAST.io_timeout}s" in message

    def test_refused_connection_names_host_port_and_budget(self):
        port = unused_port()
        transport = TcpTransport(
            endpoints={"S1": ("127.0.0.1", port)}, retry=FAST
        )
        try:
            with pytest.raises(errors.NetworkError) as excinfo:
                transport.register("S1")
        finally:
            transport.close()
        self.assert_names_endpoint(str(excinfo.value), port)

    def test_silent_peer_timeout_names_host_port_and_budget(self):
        listener = SilentListener()
        transport = TcpTransport(
            endpoints={"S1": ("127.0.0.1", listener.port)}, retry=FAST
        )
        try:
            with pytest.raises(errors.NetworkError) as excinfo:
                transport.register("S1")
        finally:
            transport.close()
            listener.close()
        message = str(excinfo.value)
        assert "timed out" in message
        self.assert_names_endpoint(message, listener.port)
