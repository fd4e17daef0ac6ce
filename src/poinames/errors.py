"""Exception types shared across the package.

cli.main, the only place an error becomes an exit code, exits 2 on any of
these (bad files, empty or unmapped data) and on any OSError, and 1 on a
computation failure.
"""


class PoiNamesError(Exception):
    """Base class for errors raised by this package."""


class IngestError(PoiNamesError):
    """The input source or a support file (e.g. region mapping) is unusable."""


class EmptyCorpusError(PoiNamesError, ValueError):
    """An operation that needs documents received none."""
