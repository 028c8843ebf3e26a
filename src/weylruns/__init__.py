"""weylruns: exact signed alternating-run enumeration on A/B/D Weyl groups."""

from .errors import DomainError, IntegrityError
from .perm_core import (
    Permutation,
    SignedPermutation,
    altruns_a,
    altruns_b,
    classify_end_b,
    classify_ends_a,
    compl,
    flip_sgn,
    inv_a,
    inv_b,
    inv_d,
    is_alternating,
    is_snake_b,
    iter_group,
    peaks_valleys_a,
    peaks_valleys_b,
    rev,
)
from .poly import BiPoly, UniPoly, moment_check, one_plus_t_multiplicity
from .series import Series, egf_alt, egf_snakes
from .oracle import (
    SignedDistributionRequest,
    class_poly_a,
    count_alternating,
    count_snakes,
    dist_runs,
    dist_runs_parity_split,
    family_poly,
)
from .verify import available_ids, run_checks

__version__ = "0.1.0"
