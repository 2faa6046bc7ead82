"""Constructive geography of minimal symplectic 4-manifolds with kappa = 1.

Everything is exact integer arithmetic: twist words acting on the first
cohomology of a surface, Wang and Gysin rank bookkeeping for circle
bundles over mapping tori, fiber sums with elliptic surfaces, and a
realization map from admissible (signature, b1, degeneracy) triples to
certified constructions. All values are immutable NamedTuple records and
all operations are pure functions, so everything is safe to share across
threads.
"""

from .bundle_manifold import (
    KODAIRA_NEG_INF,
    BundleManifoldSpec,
    InvariantCertificate,
    canonical_class,
    construct,
    kodaira_classify,
)
from .circle_bundle import (
    bundle_b1,
    degeneracy_closed_form,
    lefschetz_pairing,
    nullity_closed_form,
)
from .errors import ConsistencyError, InadmissibleError
from .fiber_sum import (
    DolgachevSurface,
    EllipticSurface,
    FiberSumSpec,
    elliptic_invariants,
    fiber_sum_invariants,
)
from .geography import (
    OpenProblem,
    Recipe,
    default_genus,
    enumerate_region,
    is_admissible,
    is_null_admissible,
    realize,
    realize_null,
)
from .mapping_torus import (
    MappingTorus,
    WangData,
    bundle_wang_data,
    wang_cohomology,
)
from .surfaces import Twist, TwistWord, compose_word
from .verify import VerificationReport, verify_bundle_grid

__version__ = "0.1.0"
