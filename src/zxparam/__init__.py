"""Parameter-count minimisation for Clifford circuits with symbolic phase gates.

The pipeline: parse a circuit, translate it to a graph-like ZX diagram,
simplify the diagram to its pseudo-normal form while tracking how symbolic
parameters merge, then either read off the affine parameter map or apply it
in place on the original circuit (phase teleportation).  A separate verifier
provides an exact Pauli-frame equivalence check with the rotation-merging
bound (``zxparam.frame``, which only ``zxparam verify`` imports), exact
tensor evaluation, proportionality checking, stabiliser-based optimality
certificates and a brute-force minimality oracle.

numpy is imported by the functions that compute with it, on first use:
importing the package, optimising a circuit and verifying an optimised one
never load it.
"""

from .params import Phase
from .diagram import Diagram, EdgeKind, GadgetView, SpiderNetwork, ValidationReport, find_gadgets, to_graph_like, validate
from .circuits import (Circuit, Gate, circuit_state_diagram, circuit_to_diagram,
                       circuit_unitary, emit_circuit, parse_circuit)
from .rewrite import RewriteEvent, Rule, simplify
from .reduction import ReductionMap, extract_reduction, phase_teleport
from .tensor import TensorState, check_proportional, tensor_eval
from .verify import APForm, CertificateReport, ProportionalityReport, ap_form, brute_force_min, check_reduction, optimality_certificate, zz_certificate

__all__ = [
    "Phase",
    "Diagram", "EdgeKind", "GadgetView", "SpiderNetwork", "ValidationReport",
    "find_gadgets", "to_graph_like", "validate",
    "Circuit", "Gate", "circuit_state_diagram", "circuit_to_diagram", "circuit_unitary",
    "emit_circuit", "parse_circuit",
    "RewriteEvent", "Rule", "simplify",
    "ReductionMap", "extract_reduction", "phase_teleport",
    "TensorState", "check_proportional", "tensor_eval",
    "APForm", "CertificateReport", "ProportionalityReport",
    "ap_form", "brute_force_min", "check_reduction", "optimality_certificate", "zz_certificate",
]

__version__ = "0.1.0"
