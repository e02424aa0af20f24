"""Exception hierarchy shared across the pipeline: one class per CLI exit
code, plus FormatError for messages that already name their file."""


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PipelineError):
    """Bad user input: malformed files, invalid configs, contract violations.
    The CLI prints it as one ``error:`` line and exits 2."""


class FormatError(ValidationError):
    """A file does not match its expected format; the message names the
    file, so ``read_json`` passes it through unchanged."""


class NumericalError(PipelineError):
    """A numerical procedure failed beyond recovery: a diverged MLP, an
    unsolvable polynomial fit, or a SOM neuron that wins no sample. The CLI
    prints it as an ``internal error:`` line and exits 1."""
