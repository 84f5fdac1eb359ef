"""Exception types shared across the package."""


class AdhocnetError(Exception):
    """Base class for all package errors."""


class ConfigError(AdhocnetError):
    """A scenario or experiment configuration is invalid."""


class CoincidentNodesError(AdhocnetError):
    """Two nodes share a position, so a path-loss gain would be infinite.

    The caller is expected to regenerate the topology with a fresh seed.
    """


class UnreachableSessionError(AdhocnetError):
    """A session cannot be routed on the current link cost matrix."""

    def __init__(self, session, source, destination):
        self.session = session
        self.source = source
        self.destination = destination
        super().__init__(
            f"session {session} ({source} -> {destination}) is unreachable"
        )


class MissingArtifactError(AdhocnetError):
    """A required experiment artifact file is absent."""
