"""Exception types shared across the toolkit."""


class FedransomError(Exception):
    """Base class for every error raised by this package."""


class EmptyInput(FedransomError, ValueError):
    """A byte sequence that must be non-empty was empty."""


class InvalidSide(FedransomError, ValueError):
    """Image side length below the supported minimum."""


class InvalidRate(FedransomError, ValueError):
    """Dropout rate outside [0, 1)."""


class ShapeMismatch(FedransomError, ValueError):
    """Array shapes inconsistent with the model contract."""


class EmptyDataset(FedransomError, ValueError):
    """A dataset with no samples where samples are required."""


class TooFewSamples(FedransomError, ValueError):
    """Not enough samples to partition or split as requested."""


class EmptyShard(FedransomError, ValueError):
    """A client shard with no samples."""


class EmptyUpdateSet(FedransomError, ValueError):
    """Aggregation requested over zero client updates."""


class RoundMismatch(FedransomError, ValueError):
    """Client updates from different federation rounds."""


class SizeTooSmall(FedransomError, ValueError):
    """Synthetic binary size below the 1 KiB minimum."""


class LengthMismatch(FedransomError, ValueError):
    """Predictions and labels of different lengths."""


class CorruptManifest(FedransomError, ValueError):
    """Manifest line that does not parse, or an entry its file contradicts."""


class CorruptCheckpoint(FedransomError, ValueError):
    """Checkpoint bytes that do not parse to a valid model."""


class TruncatedFrame(FedransomError, ValueError):
    """Wire frame shorter than its declared length."""


class UnknownFrameType(FedransomError, ValueError):
    """Wire frame with a message type outside the protocol."""


class OversizeFrame(FedransomError, ValueError):
    """Wire frame that declares a length its type does not allow: above its
    cap, or other than the one length of a weight frame of the agreed side."""


class ProtocolViolation(FedransomError):
    """Peer sent a message the protocol does not allow here."""


class ClientCountTimeout(FedransomError):
    """Fewer clients joined than required before the deadline."""
