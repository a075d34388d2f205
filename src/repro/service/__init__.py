"""The prediction service: Facile as long-lived infrastructure.

``facile serve`` exposes the columnar prediction core of
:mod:`repro.engine` over HTTP (stdlib only, JSON bodies).  The package
has four modules:

* :mod:`repro.service.serialize` — the wire format: request parsing,
  canonical JSON encoding of :class:`~repro.core.model.Prediction`
  values (deterministic bytes, so batching never changes responses),
  and the versioned v1 response envelope / error-code vocabulary;
* :mod:`repro.service.shard` — :class:`~repro.service.shard.ShardEngine`,
  the per-µarch worker-process proxy that decodes, predicts, and
  serializes the blocks the front-end could not answer from its cache;
* :mod:`repro.service.server` — :class:`PredictionService`, an
  ``asyncio`` front-end that serves the ``/v1/`` routes: it parses HTTP
  on an event loop, answers hot blocks from a response-fragment cache,
  and feeds everything else through a per-µarch
  :class:`~repro.engine.batching.MicroBatcher` into that µarch's shard;
* :mod:`repro.service.client` — :class:`ServiceClient`, the small
  ``urllib``-based client used by the tests, the examples, and the
  service load generator in :mod:`repro.engine.bench`, with typed
  :class:`PredictionResult` / :class:`BulkResult` views.

Endpoint reference and schemas: ``docs/SERVICE.md``.
"""

from repro.service.client import BulkResult, PredictionResult, \
    ServiceClient, ServiceError
from repro.service.serialize import API_VERSION, ERROR_CODES, \
    RequestError, json_bytes, prediction_to_dict
from repro.service.server import PredictionService
from repro.service.shard import ShardEngine

__all__ = [
    "API_VERSION",
    "BulkResult",
    "ERROR_CODES",
    "PredictionResult",
    "PredictionService",
    "RequestError",
    "ServiceClient",
    "ServiceError",
    "ShardEngine",
    "json_bytes",
    "prediction_to_dict",
]
