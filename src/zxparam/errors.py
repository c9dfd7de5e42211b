"""Exception types shared across the package.

Class names follow the error identifiers of the library's contracts, so
callers can catch exactly the condition a function documents.
"""


class ZXParamError(Exception):
    """Base class for all library errors."""


class RepeatedParameter(ZXParamError):
    """A parameter identifier occurs on more than one spider or gate."""


class CircuitSyntaxError(ZXParamError):
    """Malformed circuit source text."""

    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class NonCliffordConstant(CircuitSyntaxError):
    """A numeric rz angle that is not an exact multiple of pi/2."""


class NotApplicable(ZXParamError):
    """A rewrite rule was invoked on a vertex pattern it does not match."""


class TooLarge(ZXParamError):
    """Exact evaluation refused: a diagram with too many open wires for
    ``tensor_eval``, a circuit with more than MAX_UNITARY_QUBITS qubits for
    the dense ``circuit_unitary``, with more than MAX_PROBE_QUBITS qubits for
    its probe states (``check_reduction``), or whose Pauli frame passes
    ``frame.MAX_FRAME_AREA`` (``exact_check``, ``merge_bound``,
    ``brute_force_min``)."""


class MissingAssignment(ZXParamError):
    """A parameter of the diagram has no value in the given assignment."""


class DimensionMismatch(ZXParamError):
    """Reduction map dimensions do not match the circuits' parameter counts."""


class ZeroState(ZXParamError):
    """The diagram denotes the zero map (inconsistent affine system)."""


class NotClifford(ZXParamError):
    """Operation requires a parameter-free Clifford diagram."""


class NotTerminalForm(ZXParamError):
    """Operation requires a diagram in the simplifier's terminal form."""


class InconsistentProvenance(ZXParamError):
    """Rewrite events cannot be replayed into the terminal parameter expressions."""


class TooManyParams(ZXParamError):
    """Brute-force enumeration refused: parameter count above the limit."""


class ConversionError(ZXParamError, ValueError):
    """A spider network cannot be converted into a graph-like diagram."""


class FixpointNotReached(ZXParamError, RuntimeError):
    """A rewrite loop hit its safety cap before reaching a fixpoint."""
