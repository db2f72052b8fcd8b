"""
Exact counting of normal sequences of positive braids via permutation
descents, partition-indexed transfer matrices, and integer spectra.
"""

from .descents import (
    a,
    a_hat,
    composition_of,
    contingency_count,
    partition_of,
    partitions_in_order,
    set_of_composition,
)
from .matrices import (
    CountMatrix,
    b_delta,
    b_of_partition,
    b_of_simple,
    b_total,
    build_M,
    build_Mbar,
    build_Mprime,
    count_series,
)
from .oracle import brute_count, count_functions, dp_count, structural_check_M
from .permutations import (
    compose,
    d_left,
    d_right,
    dual_left,
    dual_right,
    flip,
    identity,
    inverse,
    inversion_number,
    is_normal_pair,
    phi,
    sigma_in,
    simple_enumeration,
)
from .spectral import charpoly, divides, new_factor_simple_roots, recurrence_check, rho_max, strip_x_power
from .words import NormalSequence, PositiveWord, degree, dth_factor, normalize, parse_word

__version__ = "0.1.0"
