"""Parameter-count minimisation for Clifford circuits with symbolic phase gates.

The pipeline: parse a circuit, translate it to a graph-like ZX diagram,
simplify the diagram to its pseudo-normal form while tracking how symbolic
parameters merge, then either read off the affine parameter map or apply it
in place on the original circuit (phase teleportation).  A separate verifier
provides an exact Pauli-frame equivalence check with the rotation-merging
bound (``zxparam.frame``, which ``zxparam verify`` and ``brute_force_min``
import on first use), exact tensor evaluation, proportionality checking,
stabiliser-based optimality certificates and a brute-force minimality oracle
decided on the Pauli frame.  The package holds what the commands, the
scripts and the benchmark call; references that only the tests compare
against (state diagrams of circuits, the one-sample map evaluation, dense
flattenings, random graph-like states) live in ``tests/helpers.py``.

numpy is imported by the functions that compute with it, on first use:
importing the package and running any ``zxparam`` command never load it.
"""

from .params import Phase
from .diagram import Diagram, EdgeKind, GadgetView, SpiderNetwork, find_gadgets, to_graph_like, validate
from .circuits import Circuit, Gate, circuit_to_diagram, circuit_unitary, emit_circuit, parse_circuit
from .rewrite import RewriteEvent, Rule, simplify
from .reduction import ReductionMap, extract_reduction, phase_teleport
from .tensor import TensorState, tensor_eval
from .verify import APForm, CertificateReport, ProportionalityReport, ap_form, brute_force_min, check_reduction, optimality_certificate

__all__ = [
    "Phase",
    "Diagram", "EdgeKind", "GadgetView", "SpiderNetwork",
    "find_gadgets", "to_graph_like", "validate",
    "Circuit", "Gate", "circuit_to_diagram", "circuit_unitary", "emit_circuit", "parse_circuit",
    "RewriteEvent", "Rule", "simplify",
    "ReductionMap", "extract_reduction", "phase_teleport",
    "TensorState", "tensor_eval",
    "APForm", "CertificateReport", "ProportionalityReport",
    "ap_form", "brute_force_min", "check_reduction", "optimality_certificate",
]

__version__ = "0.1.0"
