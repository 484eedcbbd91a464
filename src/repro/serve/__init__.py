"""repro.serve — scenario-as-a-service with a perfect content-keyed cache.

The paper's century-scale experiment is ultimately a public data
endpoint judged by weekly uptime (§4.5); ROADMAP item 4 asks for the
reproduction's analogue.  This package serves scenario runs and
Monte-Carlo studies over HTTP, exploiting the platform's one structural
advantage over a generic inference stack: **determinism**.  A request's
content — scenario, seed(s), horizon, cadence, overrides, fault plan,
audit flag — fully determines the response bytes, so memoization is
*exact*: a cache hit is provably byte-identical to a cold run, and both
are byte-identical to the offline ``--metrics`` artifacts.

Four modules:

* :mod:`repro.serve.request` — canonical request model; content digest
  via the shard-artifact ``task_fingerprint`` machinery.
* :mod:`repro.serve.cache`   — memory-LRU + sealed-disk response cache.
* :mod:`repro.serve.service` — single-flight execution on a bounded
  process pool, 429 backpressure, per-request timeouts, graceful drain,
  Prometheus metrics via :mod:`repro.obs`.
* :mod:`repro.serve.http`    — stdlib asyncio HTTP/1.1 front end
  (``POST /v1/run``, ``POST /v1/mc``, ``GET /metrics``,
  ``GET /healthz``).

Run it::

    python -m repro serve --port 8351 --workers 4
    curl -s -XPOST localhost:8351/v1/run \\
         -d '{"scenario":"owned-only","seed":2021,"years":1}'
"""

from .cache import CacheStats, ResponseCache
from .http import HttpServer, serve_forever
from .request import (
    REQUEST_FORMAT_VERSION,
    RequestError,
    ServeRequest,
    parse_request,
    parse_request_json,
)
from .service import (
    ScenarioService,
    ServeResponse,
    compute_response,
)

__all__ = [
    "CacheStats",
    "HttpServer",
    "REQUEST_FORMAT_VERSION",
    "RequestError",
    "ResponseCache",
    "ScenarioService",
    "ServeRequest",
    "ServeResponse",
    "compute_response",
    "parse_request",
    "parse_request_json",
    "serve_forever",
]
