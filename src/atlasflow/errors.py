"""Exception types shared across the package.

The CLI maps these onto stable exit codes, so anything a subcommand is
contractually required to report gets its own class here.
"""


class AtlasFlowError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(AtlasFlowError):
    """Invalid configuration value (bad GMM, bad hyperparameter, unknown key)."""


class DegenerateLensError(AtlasFlowError):
    """Lens values are constant; no interval cover can be built."""


class DataError(AtlasFlowError):
    """Point-cloud CSV is unreadable, ragged, non-numeric or has no coordinates."""


class CoverError(AtlasFlowError):
    """Cover construction produced no usable charts or left points uncovered."""


class ConnectivityError(AtlasFlowError):
    """Neighbor graph is disconnected; geodesic distances would be infinite."""


class NumericError(AtlasFlowError):
    """Non-finite value or singular matrix where a finite result is required."""


class DivergenceError(AtlasFlowError):
    """Training loss became non-finite; carries phase/epoch/chart context."""

    def __init__(self, message, phase=None, epoch=None, chart=None):
        super().__init__(message)
        self.phase = phase
        self.epoch = epoch
        self.chart = chart


class CheckpointError(AtlasFlowError):
    """Checkpoint file is unreadable, malformed or has an unsupported format version."""


class LabelMismatchError(AtlasFlowError):
    """Two checkpoints disagree on chart structure and cannot be compared."""


class StaleExpectedPointsError(AtlasFlowError):
    """Expected points are older than the refresh interval allows."""
