"""Exception hierarchy shared across the pipeline."""


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PipelineError):
    """Bad user input: malformed files, invalid configs, contract violations."""


class FormatError(ValidationError):
    """A file on disk does not match its expected format."""


class RangeError(ValidationError):
    """A value falls outside its allowed range."""


class DimensionError(ValidationError):
    """Images or maps that must share dimensions do not."""


class ConfigurationError(ValidationError):
    """An inconsistent or incomplete configuration."""


class ContractError(ValidationError):
    """Caller violated an operation precondition (e.g. arity mismatch)."""


class DegenerateInputError(ValidationError):
    """Input lacks the diversity required by the algorithm."""


class NumericalError(PipelineError):
    """A numerical procedure failed beyond recovery, such as a diverged
    training run."""


class LabelingError(PipelineError):
    """Cluster-to-class labeling could not be completed."""


class UndefinedMetricError(ValidationError):
    """A metric is undefined for the given input (e.g. kappa with p_e = 1)."""
