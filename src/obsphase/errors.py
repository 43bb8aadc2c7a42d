"""Exception hierarchy shared across the package."""


class ObsphaseError(Exception):
    """Base class for all errors raised by obsphase."""


class NotHermitianError(ObsphaseError):
    """A matrix expected to be Hermitian is not, within tolerance."""


class NotUnitaryError(ObsphaseError):
    """A matrix expected to be unitary is not, within tolerance."""


class DegenerateSpectrumError(ObsphaseError):
    """An observable has (near-)repeated eigenvalues where a simple spectrum is required."""


class DimensionMismatchError(ObsphaseError):
    """Operands live on Hilbert spaces of different dimensions."""


class ZeroFieldError(ObsphaseError):
    """A field amplitude that must be nonzero is zero."""


class ZeroFrequencyError(ObsphaseError):
    """A drive frequency that must be nonzero is zero."""


class ScheduleDomainError(ObsphaseError):
    """A Hamiltonian schedule was evaluated or integrated outside its time domain."""


class NotClosedError(ObsphaseError):
    """A lifted curve does not return to its initial decomposition."""


class NotCyclicError(ObsphaseError):
    """An evolution is not cyclic at the requested tolerance; `check` is the failed CyclicityCheck."""

    def __init__(self, message, check):
        self.check = check
        super().__init__(message)


class CrossCheckError(ObsphaseError):
    """Two independent phase computations disagree beyond tolerance."""


class DynamicalResidualError(ObsphaseError):
    """A protocol that must cancel dynamical phases left a residual above tolerance."""


class ScenarioError(ObsphaseError):
    """A scenario file failed validation. `pointer` locates the offending
    field; an empty one (the whole deck, or a command-line value) is left
    out of the message."""

    def __init__(self, pointer, message):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}" if pointer else message)
