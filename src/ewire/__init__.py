"""EWire: a linear circuit language embedded in a monadic host language,
with an exact denotational simulator over finite-dimensional operator
algebras."""

from .algebra import (
    AlgElement, Distribution, FdAlgebra, SuperOp, alg, alg_copower,
    alg_direct_sum, alg_tensor, choi_matrix, frobenius_distance,
    gate_denotation, is_cp, is_subunital, is_unital, loewner_leq,
    op_compose, op_identity, op_tensor, op_zero, set_max_dim,
    state_to_distribution, unit_element,
)
from .denote import (
    CircV, Evaluator, Mode, denote_circuit, denote_wire, enumerate_classical,
    eval_host, evaluate_program, sample,
)
from .normalize import apply_rule, check_equiv, normalize
from .parser import ParseError, parse_circuit, parse_host_term, parse_program
from .qlist import monomorphize
from .syntax import classicalize, lift_type, pretty_print, subst_pattern
from .typecheck import (
    TypeCheckError, check_circuit, check_host, check_program,
    elaborate_sugar, match_pattern,
)

__version__ = "0.1.0"
