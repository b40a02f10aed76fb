"""Rigorous batch evaluation of Dirichlet L(1,chi) with bound verification."""

from .arith import Factorization, UnitGroupStructure, dlog, euler_phi, factorize, unit_group
from .ball import Ball, ComplexBall
from .batch import (CoefficientVector, LValueRecord, build_coefficients,
                    direct_sum, l_values)
from .bounds import (BoundReport, THEOREM_EVEN, THEOREM_ODD, c_even, c_odd,
                     c_even_limit, c_odd_limit, check_theorem)
from .characters import (Character, chi_value, count_primitive, enumerate_characters,
                         gauss_sum)
from .lemmas import CheckResult, run_all
from .special import QuadratureError, ToleranceError, digamma, f3, f4, integrate, j_func
from .sweep import SweepRow, SweepSummary, emit_figure_data, sweep

__version__ = "0.1.0"

__all__ = [
    "Ball", "ComplexBall", "Factorization", "UnitGroupStructure",
    "factorize", "euler_phi", "unit_group", "dlog",
    "Character", "enumerate_characters", "chi_value", "gauss_sum",
    "count_primitive",
    "digamma", "j_func", "f3", "f4", "integrate",
    "ToleranceError", "QuadratureError",
    "CoefficientVector", "LValueRecord", "build_coefficients",
    "direct_sum", "l_values",
    "BoundReport", "THEOREM_EVEN", "THEOREM_ODD",
    "c_even", "c_odd", "c_even_limit", "c_odd_limit", "check_theorem",
    "SweepRow", "SweepSummary", "sweep", "emit_figure_data",
    "CheckResult", "run_all",
]
