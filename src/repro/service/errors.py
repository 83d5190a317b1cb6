"""The service's error family.

Every condition the server itself (as opposed to a command) can raise
carries a stable ``service.*`` code — clients program against the code,
never the message text.

The error *shape* is uniform across the family: every instance carries
``retry_after_ms`` (a pacing hint in milliseconds, ``None`` when the
condition is not retryable or the server has no estimate) and
``detail`` (a structured :class:`repro.api.wire.ErrorDetail` naming the
shard/generation/address involved, ``None`` elsewhere).  Both travel in
the ``error`` object of the response envelope.
"""

from __future__ import annotations

from repro.errors import ReproError


class ServiceError(ReproError):
    """Base for conditions raised by the service layer itself.

    Accepts the uniform retry/detail payload so every subclass shares
    one error shape on the wire.
    """

    code = "service.error"

    def __init__(
        self,
        message: str = "",
        *,
        retry_after_ms: int | None = None,
        detail=None,
        **kwargs,
    ):
        super().__init__(message, **kwargs)
        self.retry_after_ms = retry_after_ms
        self.detail = detail


class BadSessionName(ServiceError):
    """The session name cannot name a session (or a WAL file)."""

    code = "service.bad_session"


class SessionLimitError(ServiceError):
    """Opening one more session would exceed ``--max-sessions``."""

    code = "service.session_limit"


class BackpressureError(ServiceError):
    """The session's command queue is full; the client should retry."""

    code = "service.backpressure"


class ServiceTimeout(ServiceError):
    """The command exceeded the per-request deadline.  The command
    itself still runs to completion (the session stays serialized);
    only the response was abandoned."""

    code = "service.timeout"


class ShutdownError(ServiceError):
    """The service is draining for shutdown and takes no new work."""

    code = "service.shutdown"


class ShardFailedError(ServiceError):
    """The shard hosting the session died with this request in flight
    (or is currently restarting).  The command may or may not have
    reached the session's WAL before the crash; acknowledged history is
    preserved by salvage + replay when the shard comes back.  Clients
    may retry replayable commands — the session resumes where its WAL
    left off.  ``retry_after_ms``, when set, estimates how long the
    restart will take; ``detail`` names the shard and the generation
    the restart will supersede."""

    code = "service.shard_failed"


class OverloadedError(ServiceError):
    """Admission control refused the request — the shard's in-flight
    count at its shed threshold, or the shard's crash-loop circuit open.
    Nothing was executed; the request is always safe to retry after
    ``retry_after_ms``."""

    code = "service.overloaded"


class SessionMovedError(ServiceError):
    """A session command landed somewhere other than its shard's data
    socket — the supervisor, the wrong shard — or carried a stale
    route-lease generation.  Nothing was executed.  ``detail``
    carries the owner's coordinates when the shard knows them (its own
    address + current generation for a stale lease, or the owning
    shard's when the supervisor redirects a session command); clients
    refresh their route and retry replayable commands."""

    code = "service.moved"
