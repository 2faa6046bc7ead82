"""Constructive geography of minimal symplectic 4-manifolds with kappa = 1.

Everything is exact integer arithmetic: twist words acting on the first
cohomology of a surface, Wang and Gysin rank bookkeeping for circle
bundles over mapping tori, fiber sums with elliptic surfaces, and a
realization map from admissible (signature, b1, degeneracy) triples to
certified constructions. Every record is an immutable NamedTuple and
every operation a pure function, but for two pieces of shared state that
need a lock to be shared across threads: the mutable
:class:`~geographer.verify.VerificationReport`, and the ``audit_values``
dict of each cached member of :func:`~geographer.mapping_torus.bundle_wang_data`,
filled by the bundle audit on first use and cleared by a sweep.
"""

from .bundle_manifold import (
    KODAIRA_NEG_INF,
    BundleManifoldSpec,
    InvariantCertificate,
    construct,
    kodaira_classify,
)
from .circle_bundle import bundle_b1, lefschetz_pairing
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
