"""The package's exceptions: one class per outcome the CLI reports, each with its own exit code."""


class ContractError(ValueError):
    """An argument, a configuration, a corpus or a metric's input is invalid; the CLI exits 2."""


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, corrupt or incompatible; the CLI exits 3."""


class NumericError(ArithmeticError):
    """An operation, a model layer, the sampler or an evaluation network produced a non-finite value. A
    layer's message names the layer (`encoder layer k: ...`), and the sampler's the step (`... step t=...`).
    The CLI exits 4."""


class DivergenceError(RuntimeError):
    """Training loss became non-finite; the message names the step. The CLI exits 4."""
