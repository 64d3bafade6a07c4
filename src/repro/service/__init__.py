"""Analysis-as-a-service: the pod server and its unified request API.

The engine's decision procedures (completability, semi-soundness, invariant
checking, workflow extraction — the paper's verbs) are exposed here as a
long-running service surface:

* :mod:`repro.service.request` — :class:`AnalysisRequest`, the one frozen
  configuration object every entry point shares: the CLI builds it from
  flags, the HTTP API accepts it on the wire (versioned JSON codec), and
  the library dispatchers take it via their ``request=`` parameter;
* :mod:`repro.service.dispatch` — :func:`run_analysis`, the single
  dispatcher those entry points shim onto, plus the versioned result codec;
* :mod:`repro.service.errors` — the stable error taxonomy
  (``{"error": {"code", "message", "retryable"}}``) shared by
  ``run_analysis`` and the HTTP layer;
* :mod:`repro.service.jobs` — the sqlite-backed job queue (reusing the
  engine store's :class:`~repro.engine.sqlite_base.SqliteBacked` plumbing);
* :mod:`repro.service.admission` — pod capacity accounting: per-job
  resident budgets admitted against ``capacity_kb * overcommit``, plus the
  family-median stall detector that evicts wedged jobs;
* :mod:`repro.service.server` — the zero-dependency pod server
  (stdlib ``http.server`` + worker threads), ``repro serve``;
* :mod:`repro.service.client` — the HTTP client behind
  ``repro submit|status|result|cancel``.
"""

from repro.service.admission import AdmissionController, StallDetector
from repro.service.client import ServiceClient, ServiceRemoteError
from repro.service.dispatch import (
    RESULT_API_VERSION,
    result_to_wire,
    run_analysis,
    run_analysis_wire,
)
from repro.service.errors import classify_error, error_payload
from repro.service.jobs import JOB_STATES, JobRecord, JobStore
from repro.service.request import (
    ANALYSIS_KINDS,
    REQUEST_API_VERSION,
    AnalysisRequest,
    request_from_wire,
    request_to_wire,
)
from repro.service.server import PodServer, ServerConfig

__all__ = [
    "ANALYSIS_KINDS",
    "AdmissionController",
    "AnalysisRequest",
    "JOB_STATES",
    "JobRecord",
    "JobStore",
    "PodServer",
    "REQUEST_API_VERSION",
    "RESULT_API_VERSION",
    "ServerConfig",
    "ServiceClient",
    "ServiceRemoteError",
    "StallDetector",
    "classify_error",
    "error_payload",
    "request_from_wire",
    "request_to_wire",
    "result_to_wire",
    "run_analysis",
    "run_analysis_wire",
]
