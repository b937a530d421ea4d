"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible or invalid shapes."""


class ContractError(ValueError):
    """A documented precondition was violated by the caller."""


class ConfigError(ContractError):
    """A config field holds a value outside its range; names the field so a caller can rename it."""

    def __init__(self, field: str, value, requirement: str):
        super().__init__(f"{field} {value} {requirement}")
        self.field = field
        self.value = value
        self.requirement = requirement


class TrainingError(RuntimeError):
    """Training produced a non-finite loss or otherwise failed numerically."""


class CheckpointError(RuntimeError):
    """A checkpoint file is malformed, truncated, or fails its integrity hash."""


class CheckpointMismatchError(CheckpointError):
    """A calibrator checkpoint was loaded against a model with a different digest."""
