"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so that
callers can catch library failures without catching programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class DecodeError(ReproError):
    """An instruction could not be decoded at the given offset."""

    def __init__(self, message: str, offset: int | None = None) -> None:
        if offset is not None:
            message = f"{message} (at offset {offset:#x})"
        super().__init__(message)
        self.offset = offset


class EncodeError(ReproError):
    """An instruction could not be encoded with the given operands."""


class ElfError(ReproError):
    """An ELF file is malformed or unsupported."""


class PatchError(ReproError):
    """A patch operation could not be applied."""


class LockViolation(PatchError):
    """A tactic attempted to modify a locked byte."""


class VmError(ReproError):
    """The VM encountered an unrecoverable condition."""


class VmFault(VmError):
    """A memory access fault inside the VM (unmapped page / bad permission)."""

    def __init__(self, message: str, address: int | None = None) -> None:
        if address is not None:
            message = f"{message} (address {address:#x})"
        super().__init__(message)
        self.address = address
