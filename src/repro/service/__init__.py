"""The assembly service: a multi-client device server (paper, §7).

The paper observes that elevator scheduling "depends on exclusive
control of the physical device" and that concurrent assembly operators
break that assumption; its sketched fix is "a server-per-device
architecture … each server would maintain a queue of requests and would
fetch objects on behalf of one or more assembly operators."  This
package builds that server out into a small service:

* :mod:`repro.service.device_server` — the device server itself: many
  live client queries, one global elevator sweep per physical device,
  per-query fairness with a starvation bound.
* :mod:`repro.service.admission` — admission control: the paper's
  ``(N-1)*(W-1)+N`` pin bound prices each request; requests queue or
  shrink their window when the buffer budget is exhausted.
* :mod:`repro.service.cache` — an LRU cache of assembled complex
  objects keyed by (root OID, template fingerprint), invalidated by
  object-store writes.
* :mod:`repro.service.metrics` — per-request and service-wide counters.
* :mod:`repro.service.server` — the synchronous façade:
  ``submit`` / ``poll`` / ``result``.
"""

from repro.service.admission import AdmissionController, AdmissionTicket
from repro.service.cache import AssembledObjectCache, CacheStats
from repro.service.device_server import (
    ClientQuery,
    DeviceServer,
    DeviceServerAssembly,
)
from repro.service.metrics import RequestMetrics, ServiceMetrics
from repro.service.server import AssemblyService, RequestStatus

__all__ = [
    "AdmissionController",
    "AdmissionTicket",
    "AssembledObjectCache",
    "AssemblyService",
    "CacheStats",
    "ClientQuery",
    "DeviceServer",
    "DeviceServerAssembly",
    "RequestMetrics",
    "RequestStatus",
    "ServiceMetrics",
]
