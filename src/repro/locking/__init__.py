"""Per-resource blocking model and online PCP bounds (paper Eq. 15).

The package splits into a dependency-free request model and the bound
engine the admission controller drives:

- :mod:`repro.locking.model` — :class:`~repro.locking.model.ResourceSpec`
  declarations (resource id, stage, max requests, max critical-section
  length) with canonical ordering and wire encoding;
- :mod:`repro.locking.bounds` —
  :class:`~repro.locking.bounds.PCPBlockingState`, the online
  ``B_ij`` / ``beta_j`` derivation under the priority-ceiling protocol,
  updated incrementally and exactly as tasks arrive and depart.
"""

from .bounds import PCPBlockingState, compute_betas
from .model import (
    ResourceSpec,
    canonical_resources,
    resources_from_wire,
    resources_to_wire,
)

__all__ = [
    "ResourceSpec",
    "PCPBlockingState",
    "compute_betas",
    "canonical_resources",
    "resources_from_wire",
    "resources_to_wire",
]
