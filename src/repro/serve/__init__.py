"""repro.serve — the online detection gateway.

Everything needed to put the trained framework *on the link*:
Modbus/TCP transport with an incremental, garbage-tolerant decoder
(:mod:`~repro.serve.transport`), pluggable protocol adapters for
multi-dialect fleets — Modbus, IEC-104-style, DNP3-lite — with
dialect negotiation (:mod:`~repro.serve.protocols`), the sharded asyncio
gateway (:mod:`~repro.serve.gateway`), the alert pipeline
(:mod:`~repro.serve.alerts`), a replay client for load generation
and fail-over drills (:mod:`~repro.serve.replay`), and the
multi-scenario fleet runner that streams N simulated sites through one
gateway concurrently (:mod:`~repro.serve.fleet`).

Quickstart::

    from repro.serve import DetectionGateway, GatewayConfig, ReplayClient
    from repro.serve.gateway import start_in_thread

    handle = start_in_thread(detector, GatewayConfig(num_shards=4))
    host, port = handle.address
    result = ReplayClient(host, port, stream_key="plant-7").replay(capture)
    handle.stop()
"""

from repro.serve.alerts import (
    Alert,
    AlertConfig,
    AlertPipeline,
    JsonlSink,
    RecentAlertsBuffer,
    Severity,
    stdout_sink,
)
from repro.serve.fleet import (
    FleetConfig,
    FleetResult,
    FleetRunner,
    SiteResult,
    SiteSpec,
)
from repro.serve.gateway import (
    DetectionGateway,
    GatewayConfig,
    GatewayHandle,
    start_in_thread,
)
from repro.serve.protocols import (
    PROTOCOL_NAMES,
    ProtocolAdapter,
    ProtocolSniffer,
    get_adapter,
)
from repro.serve.replay import ReplayClient, ReplayError, ReplayResult, replay_arff
from repro.serve.transport import MbapDecoder, MbapFrame, TransportError

__all__ = [
    "PROTOCOL_NAMES",
    "ProtocolAdapter",
    "ProtocolSniffer",
    "get_adapter",
    "Alert",
    "AlertConfig",
    "AlertPipeline",
    "JsonlSink",
    "RecentAlertsBuffer",
    "Severity",
    "stdout_sink",
    "DetectionGateway",
    "FleetConfig",
    "FleetResult",
    "FleetRunner",
    "SiteResult",
    "SiteSpec",
    "GatewayConfig",
    "GatewayHandle",
    "start_in_thread",
    "ReplayClient",
    "ReplayError",
    "ReplayResult",
    "replay_arff",
    "MbapDecoder",
    "MbapFrame",
    "TransportError",
]
