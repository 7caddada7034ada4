"""Exact computation with automorphisms of colored regular trees whose
local actions are almost prescribed by a pair of permutation groups."""

from .errors import TreeLocalError
from .permgroups import (
    PermGroup,
    Permutation,
    all_subgroups,
    find_mapping,
    generate,
    is_2transitive_direct,
    is_2transitive_stab,
    is_transitive,
    orbits,
    parse_cycles,
    pick_tau,
    preserves_orbits,
    stabilizer,
    symmetric_group,
    trivial_group,
)
from .tree import (
    BASE,
    EdgeRef,
    EventuallyPeriodic,
    LineSpec,
    Segment,
    Vertex,
    ball,
    distance,
    geodesic,
    is_aligned,
    midpoint,
    neighbor,
    reduce_word,
)
from .autom import (
    Automorphism,
    Compose,
    Diagonal,
    Elliptic,
    Inverse,
    InversionMove,
    Loxodromic,
    Patched,
    SubtreeDiagonal,
    WordTranslation,
    certify_membership,
    classify,
    eta,
    power,
)
from .localaction import (
    GroupContext,
    ObstructionWitness,
    boundary_escape_witness,
    build_line,
    e2_obstruction,
    edge_transitivity_check,
    is_translate,
    rotation_r,
    segment_orbit_census,
    segment_transport,
    translation_t,
    transport_into_line,
)
from .medianqm import (
    IndependenceCertificate,
    MedianQM,
    QMEvaluation,
    eval_qm,
    find_nonvanishing_qm,
    homogenize,
    homogenize_limit,
    independence_certificate,
    independence_search,
)
from .chains import (
    AlternatingChain,
    ComplexWindow,
    aligned_basis,
    aligned_closure_check,
    boundary,
    exactness_check,
    normalize,
    restriction_correspondence_check,
)
from .analysis import (
    BranchReport,
    RunConfig,
    ValidationReport,
    theorem1_branch,
    validate_inputs,
)

__version__ = "0.1.0"
