"""Exception hierarchy for the RCoal reproduction.

Every error raised by this package derives from :class:`ReproError` so that
callers embedding the library can catch a single base class. Sub-hierarchies
mirror the package layout: crypto errors, simulator errors, configuration
errors, and attack/analysis errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError, ValueError):
    """An invalid configuration value was supplied.

    Raised, for example, when a GPU configuration requests zero memory
    partitions, or a subwarp policy asks for a number of subwarps that does
    not divide the warp width where required.
    """


class CryptoError(ReproError):
    """Base class for AES substrate errors."""


class KeySizeError(CryptoError, ValueError):
    """An AES key of unsupported length was supplied."""


class BlockSizeError(CryptoError, ValueError):
    """A plaintext or ciphertext block of the wrong length was supplied."""


class SimulationError(ReproError):
    """Base class for GPU simulator errors."""


class ProtocolError(SimulationError, RuntimeError):
    """A simulator component was driven out of its legal state sequence.

    For example: collecting statistics from an engine that has not run yet,
    or issuing a memory instruction on a warp that is already stalled.
    """


class ExperimentError(ReproError):
    """Base class for experiment-campaign execution errors.

    Raised by the phase executor (supervision, checkpoint/resume) when a
    campaign cannot make progress. The CLI maps each subclass to a
    documented exit code in :mod:`repro.cli` (``EXIT_BY_ERROR``).
    """


class WorkerTimeoutError(ExperimentError):
    """A supervised worker chunk exceeded its wall-clock deadline.

    The supervisor reaps the hung pool, retries the chunk with backoff,
    and raises this only when the chunk keeps timing out past the retry
    budget.
    """


class WorkerCrashError(ExperimentError):
    """A supervised worker chunk raised or its process died.

    Wraps the underlying cause (an exception propagated from the worker,
    or a ``BrokenProcessPool`` when the process was killed outright).
    """


class CheckpointMismatchError(ExperimentError):
    """A ``--resume`` directory was recorded under a different campaign.

    The checkpoint fingerprint (experiment id, root seed, sample count,
    config hash, ``REPRO_FAST``/``REPRO_SAMPLES`` context, instrumentation)
    must match exactly: resuming under different knobs would silently mix
    results from two different campaigns.
    """


class AttackError(ReproError):
    """Base class for attack-framework errors."""


class InsufficientSamplesError(AttackError, ValueError):
    """Too few timing samples were provided to compute a correlation."""


class AnalysisError(ReproError):
    """Base class for theoretical-analysis errors."""
