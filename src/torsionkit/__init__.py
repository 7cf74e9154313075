"""Exact simple homotopy invariants of based complexes over group rings:
Milnor/Reidemeister torsion, elementary simple operations, and the lens
space classification predicates."""

from .grouprings import (
    GroupRingElem,
    GroupSpec,
    GroupWord,
    augmentation,
    ring_add,
    ring_mul,
    ring_mul_add,
    word_multiply,
)
from .cyclofield import (
    CycloNum,
    Representation,
    TorsionClass,
    UnitSubgroup,
    canonical_rep,
    cyclo_inv,
    cyclotomic_polynomial,
    evaluate_rep,
    representation,
    unit_subgroup,
    zeta,
)
from .chaincomplex import (
    BasedComplex,
    ChainMap,
    FieldComplex,
    base_change,
    direct_sum,
    integral_homology,
    load_complex,
    mapping_cone,
    save_complex,
    shift,
    smith_normal_form,
    tensor_z_complexes,
    validate,
)
from .torsion import (
    EntryLimitError,
    NotAcyclicError,
    TorsionFingerprint,
    field_torsion,
    fingerprint,
    fingerprints_equivalent,
    reidemeister_torsion,
    torsion_of_map,
)
from .simpleops import (
    DeckTransform,
    Expansion,
    HandleSlide,
    OpCertificate,
    Retraction,
    SimpleOp,
    apply_op,
    random_op_sequence,
    replay,
)
from .lensspaces import (
    FreeProductReport,
    LensParams,
    LensVerdict,
    free_product_scenario,
    homotopy_equivalent,
    lens_complex,
    lens_params,
    lens_torsion,
    lens_verdict,
    modp_inverse,
    simple_homotopy_equivalent,
    torsion_distinguish,
)

__version__ = "0.1.0"
