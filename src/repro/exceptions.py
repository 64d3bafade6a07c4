"""Exception hierarchy for the guarded-forms library.

All exceptions raised by :mod:`repro` derive from :class:`ReproError` so that
callers can catch library errors with a single ``except`` clause while still
being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class LabelError(ReproError):
    """An invalid node label was supplied (empty, reserved, or malformed)."""


class SchemaError(ReproError):
    """A schema violates Definition 3.1 (duplicate sibling labels, bad root)."""


class InstanceError(ReproError):
    """An instance tree is not homomorphic to its schema, or an update is
    structurally impossible (e.g. deleting a non-leaf node)."""


class FormulaParseError(ReproError):
    """The formula text could not be parsed."""

    def __init__(self, message: str, position: int | None = None) -> None:
        super().__init__(message)
        self.position = position


class FormulaError(ReproError):
    """A formula is malformed or used in an unsupported way."""


class AccessRuleError(ReproError):
    """An access-rule table refers to an unknown schema edge or right."""


class UpdateNotAllowedError(ReproError):
    """An update was applied that the access rules do not permit."""


class RunError(ReproError):
    """A run (sequence of updates) is invalid for its guarded form."""


class AnalysisError(ReproError):
    """A decision procedure was invoked on an unsupported fragment."""


class ExplorationLimitError(ReproError):
    """A bounded state-space exploration exceeded its configured limits and
    the caller requested strict behaviour instead of an undecided result."""


class ReductionError(ReproError):
    """A reduction input (counter machine, CNF, QBF, deadlock problem) is
    malformed."""


class SerializationError(ReproError):
    """A serialized object could not be decoded."""


class WireFormatError(SerializationError):
    """Encoded engine data is unusable: a worker answer that is truncated or
    malformed, or a binary store row that is truncated, corrupt or carries
    an unknown version byte."""


class StoreError(ReproError):
    """A persistent state store is unusable: it belongs to a different guarded
    form, its schema version is unknown, or the backing file is corrupt."""


class ExplorationInterrupted(ReproError):
    """A bounded exploration stopped before exhausting its frontier (step
    budget reached or interrupted); its progress was checkpointed to the
    engine's state store and can be picked up with ``resume=True``."""

    def __init__(self, message: str, states_explored: int = 0, frontier_size: int = 0) -> None:
        super().__init__(message)
        self.states_explored = states_explored
        self.frontier_size = frontier_size


class EngineError(ReproError):
    """The form-based web information system engine rejected an operation."""


class CampaignError(ReproError):
    """A scenario campaign is misconfigured or its store is unusable: unknown
    family or oracle names, or a resume whose configuration (families, count,
    seed, oracle stack) does not match what the campaign store recorded."""


class ServiceError(ReproError):
    """Base class for analysis-service failures.

    Service errors carry the stable error taxonomy the HTTP layer and
    ``run_analysis`` share (see :mod:`repro.service.errors`): a machine
    ``code``, the HTTP status the server answers with, and whether retrying
    the identical request can succeed (``retryable``).  Library exceptions
    outside this hierarchy are classified by
    :func:`repro.service.errors.classify_error`.
    """

    code = "internal"
    http_status = 500
    retryable = False


class RequestError(ServiceError):
    """An :class:`~repro.service.AnalysisRequest` is malformed: unknown
    analysis kind, missing formula, bad field types, an unresolvable form
    reference, or an unsupported codec version."""

    code = "bad-request"
    http_status = 400


class UnknownJobError(ServiceError):
    """A job id names no job the service knows about."""

    code = "unknown-job"
    http_status = 404


class JobNotReadyError(ServiceError):
    """A job's result was requested before the job reached a terminal
    state; polling again later can succeed."""

    code = "not-ready"
    http_status = 409
    retryable = True


class EvictionError(ServiceError):
    """A job was evicted as stalled more times than the pod tolerates.

    Each eviction re-queued the job to resume from its checkpoint, so a
    retry elsewhere (or with a larger budget) can still succeed."""

    code = "evicted"
    http_status = 500
    retryable = True


class AdmissionError(ServiceError):
    """The pod rejected a job at admission: the queue is full, or the
    declared resident budget can never fit under
    ``capacity * overcommit``."""

    code = "admission-rejected"
    http_status = 429
    retryable = True
