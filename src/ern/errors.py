"""Exception hierarchy for the ern package.

Errors are split by contract: shape errors (mismatched tensor geometry),
domain errors (values outside a function's precondition), config errors
(invalid architecture descriptions), compile errors (checkpoint does not
match the graph), and file-format errors (each corruption mode of an
`.ern` file is distinct so callers can tell them apart).
"""


class ErnError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(ErnError):
    """Tensor shapes or channel counts are inconsistent."""


class DomainError(ErnError):
    """An input value violates a function's precondition."""


class ConfigError(ErnError):
    """Invalid architecture or graph configuration."""


class CompileError(ErnError):
    """Checkpoint manifest cannot be compiled; message names the layer."""

    def __init__(self, layer: str, message: str):
        self.layer = layer
        super().__init__(f"layer '{layer}': {message}")


class FormatError(ErnError):
    """Base class for malformed `.ern` model files."""


class BadMagicError(FormatError):
    """File does not start with the expected magic bytes."""


class VersionError(FormatError):
    """File declares an unsupported format version."""


class TruncationError(FormatError):
    """File ends before the declared content is complete."""


class ChecksumError(FormatError):
    """Body checksum does not match the stored CRC32."""


class VerificationError(ErnError):
    """A model failed a check: its weight words or its two kernels' logits disagree."""
