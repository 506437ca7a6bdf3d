"""Exception types shared across the package."""


class MacsecSimError(Exception):
    """Base class for all errors raised by this package."""


class TruncatedFrame(MacsecSimError):
    """Frame bytes are shorter than the minimum for their class."""


class IntegrityFailure(MacsecSimError):
    """AES-GCM tag verification failed."""


class DecodeFailure(MacsecSimError):
    """A decrypted payload is not a well-formed LLDPDU."""


class InvalidEntry(MacsecSimError):
    """A table write referenced a missing SA or an invalid port."""


class SpecError(MacsecSimError):
    """A topology spec failed validation."""


class ScriptError(MacsecSimError):
    """A scenario script failed to parse or referenced unknown entities."""


class UnknownLink(MacsecSimError):
    """A link id does not exist in the running simulation."""


class UnknownSwitch(MacsecSimError):
    """A switch chassis id does not exist."""


class UnknownHost(MacsecSimError):
    """A host name does not exist."""


class UnknownQuery(MacsecSimError):
    """An inspect query name is not part of the query vocabulary."""


class LivelockError(MacsecSimError):
    """The event loop exceeded its configured event budget."""
