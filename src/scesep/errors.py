"""Exception types raised across the toolkit."""


class ScesepError(Exception):
    """Base class for all toolkit errors."""


class ConstantSignal(ScesepError):
    """Signal has zero variance and cannot be standardized."""


class TooShort(ScesepError):
    """Waveform shorter than one analysis window."""


class ShapeMismatch(ScesepError):
    """Array shapes inconsistent with the operation's contract."""


class SilentSource(ScesepError):
    """A source segment has zero power and cannot be scaled to an SNR."""


class UnknownKind(ScesepError):
    """Unrecognized synthetic noise kind."""


class UnknownSource(ScesepError):
    """Source id not present in the source table."""


class NoForwardRecorded(ScesepError):
    """backward() called without a recorded forward pass."""


class TooFewPoints(ScesepError):
    """Fewer points than requested clusters."""


class NotNormalized(ScesepError):
    """Ratio mask does not sum to one per bin."""


class NegativeInput(ScesepError):
    """Nonnegative-only operation received negative values."""


class AllTrimmed(ScesepError):
    """Silence trimming removed every frame."""


class SilentReference(ScesepError):
    """SDR reference signal is silent."""


class CountMismatch(ScesepError):
    """Reference and estimate counts differ."""


class EmptyCorpus(ScesepError):
    """Training requested on an empty corpus."""


class CorruptCheckpoint(ScesepError):
    """Checkpoint magic/version mismatch or truncated file."""


class NonFiniteLoss(ScesepError):
    """Training loss became NaN or infinite."""


class NonFiniteEmbedding(ScesepError):
    """An embedding, its norm or the mask the head makes from it is infinite or NaN."""
