"""Canonical forms and the completeness machinery (Sec. 2.3, Appendix A).

Besides the polyterm normal form of the paper's appendix, this package
hosts the canonical *structural* fingerprint of an LA expression
(:mod:`repro.canonical.fingerprint`) — input names abstracted to slots,
keyed with the dimension-size/sparsity signature — which is what the
Session API's plan cache uses as its key.
"""

from repro.canonical.normal_form import (
    Atom,
    Term,
    Polyterm,
    canonicalize,
    homomorphism,
    isomorphic,
    polyterms_isomorphic,
    equivalent,
)
from repro.canonical.la_equivalence import la_equivalent
from repro.canonical.fingerprint import (
    ExprSignature,
    SlotSpec,
    fingerprint,
    rebind_dim_sizes,
    signature_of,
    slot_dim_name,
    slot_expression,
    slot_var_name,
    sparsity_band,
)

__all__ = [
    "Atom",
    "Term",
    "Polyterm",
    "canonicalize",
    "homomorphism",
    "isomorphic",
    "polyterms_isomorphic",
    "equivalent",
    "la_equivalent",
    "ExprSignature",
    "SlotSpec",
    "fingerprint",
    "rebind_dim_sizes",
    "signature_of",
    "slot_dim_name",
    "slot_expression",
    "slot_var_name",
    "sparsity_band",
]
