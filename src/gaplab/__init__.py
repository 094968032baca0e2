"""gaplab: a numerical laboratory for spectral gaps of SU(2) tuples.

Core surface: quaternion group arithmetic (:mod:`gaplab.group`), the
irreducible levels (:mod:`gaplab.irreps`), averaging-operator spectra and gap
functionals (:mod:`gaplab.spectral`), Nielsen-move symmetries
(:mod:`gaplab.nielsen`), the rank-2 trace coordinates (:mod:`gaplab.charvar`),
and seeded experiment drivers (:mod:`gaplab.lab`).  The ``gaplab`` console
script fronts the lab.
"""

__version__ = "0.1.0"

from .group import (
    GroupElement,
    GroupTuple,
    Word,
    canonical_form,
    conjugate,
    conjugate_tuple,
    haar_sample,
    haar_tuple,
    identity,
    inv,
    mul,
    semicircle_cdf,
    trace,
    tuple_digest,
    word_eval,
)
from .irreps import IrrepLevel, RepMatrix, character, eigen_angles, irrep_matrix
from .spectral import (
    AveragingOperator,
    LevelGap,
    SpectralReport,
    averaging_operator,
    lambda1_estimate,
    lambda_max,
    level_gap_bounds,
    minmax_gap_estimate,
    literal_gap_formula,
    per_gen_min_displacement,
)
from .nielsen import (
    NielsenMove,
    apply_move,
    apply_sequence,
    inverse_sequence,
    move_to_basis_words,
    random_walk,
    word_length_bound,
)
from .charvar import (
    CharPoint,
    LevelSetSamplingError,
    commutator,
    commutator_trace,
    fricke,
    nielsen_on_traces,
    sample_level_set_counted,
    trace_coords,
)
