"""``nachos-serve``: the long-running disambiguation service.

See :mod:`repro.serve.daemon` for the service itself,
:mod:`repro.serve.protocol` for the wire format, and ``docs/serve.md``
for the operational story (durability guarantees included).
"""

from repro.serve.batcher import Batcher, BatcherStats, ServeTaskError
from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import NachosServeDaemon
from repro.serve.protocol import (
    MAX_INVOCATIONS,
    SERVE_SCHEMA,
    ProtocolError,
    ServeRequest,
    parse_request,
)

__all__ = [
    "Batcher",
    "BatcherStats",
    "MAX_INVOCATIONS",
    "NachosServeDaemon",
    "ProtocolError",
    "SERVE_SCHEMA",
    "ServeClient",
    "ServeError",
    "ServeRequest",
    "ServeTaskError",
    "parse_request",
]
