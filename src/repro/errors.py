"""Exception hierarchy for the whole reproduction library.

Every subsystem raises subclasses of :class:`ReproError` so callers can
catch library failures without masking programming errors.  The test-suite
fault-tolerance requirements of the paper (§4.1.2) distinguish three
failure families — data loss, server failure and bad responses — which map
onto :class:`DataLossError`, :class:`ServerUnreachableError` and
:class:`ServerErrorResponse`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


# ---------------------------------------------------------------------------
# generic / utility errors
# ---------------------------------------------------------------------------


class ValidationError(ReproError, ValueError):
    """An input value failed validation (bad unit string, bad id, ...)."""


class ParseError(ValidationError):
    """A textual artefact (CLI output, parameter string) failed to parse."""


# ---------------------------------------------------------------------------
# topology / control-plane errors
# ---------------------------------------------------------------------------


class TopologyError(ReproError):
    """The topology is malformed or an entity is unknown."""


class UnknownASError(TopologyError, KeyError):
    """Referenced an ISD-AS that is not part of the topology."""


class NoPathError(ReproError):
    """No SCION path could be constructed between two ASes."""


# ---------------------------------------------------------------------------
# network / measurement errors (paper §4.1.2 fault families)
# ---------------------------------------------------------------------------


class MeasurementError(ReproError):
    """A measurement could not be completed."""


class ServerUnreachableError(MeasurementError):
    """The destination server is down or not answering (server failure)."""


class ServerErrorResponse(MeasurementError):
    """The server answered but with a malformed or error response."""


class DataLossError(MeasurementError):
    """Collected statistics were lost before they could be stored."""


class BandwidthTestError(MeasurementError):
    """The bwtester could not run (bad parameter string, refused test...)."""


# ---------------------------------------------------------------------------
# database errors
# ---------------------------------------------------------------------------


class DocDBError(ReproError):
    """Base class for document-database failures."""


class DuplicateKeyError(DocDBError):
    """Insertion would violate the unique ``_id`` constraint."""


class QueryError(DocDBError):
    """A filter/update/aggregation document is malformed."""


class AuthError(DocDBError):
    """Write access denied: missing, invalid, or unauthorized credential."""


class StorageError(DocDBError):
    """Persistence layer failure (corrupt file, bad checkpoint...)."""


class WalCorruptionError(StorageError):
    """A WAL record failed its checksum or continuity check.

    Raised (never silently skipped) for *interior* corruption — a
    size-complete record with a bad CRC32, an LSN discontinuity, or an
    incomplete record that is not the final one of the final segment.
    ``lsn`` names the log sequence number at which verification failed.
    """

    def __init__(self, message: str, *, lsn: int) -> None:
        super().__init__(message)
        self.lsn = lsn


# ---------------------------------------------------------------------------
# crypto errors
# ---------------------------------------------------------------------------


class CryptoError(ReproError):
    """Base class for PKI failures."""


class CertificateError(CryptoError):
    """A certificate is invalid, expired, or its chain does not verify."""
