"""Exception hierarchy shared across the library.

A batched kernel never raises for a single point: it returns the error of
each failing point, in a dict keyed by the point's index into the batch
(``()`` for a pointwise call, see ``errors_at``).  ``raise_first`` is the
one place such an error is raised, by the callers that stop at the first.
"""

import numpy as np


class NhfieldsError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(NhfieldsError, ValueError):
    """Covector/vector/array shapes do not match the declared layout."""


class InvalidArgumentError(NhfieldsError, ValueError):
    """Argument violates a documented precondition."""


class EvaluationError(NhfieldsError):
    """A model evaluation produced a non-finite result."""


class RegularityError(NhfieldsError):
    """The Lagrangian Hessian is singular where an inverse is required."""


class OffConstraintError(NhfieldsError):
    """A point expected on the constraint set has |phi| above tolerance."""


class ConstraintRankError(NhfieldsError):
    """The constraint jet-derivative matrix is rank deficient."""


class CompatibilityError(NhfieldsError):
    """The compatibility matrix zeta_alpha(phi_beta) is (near) singular."""


class InternalConsistencyError(NhfieldsError):
    """A verified postcondition failed; indicates a bug, not bad input."""


class DdwSolveError(NhfieldsError):
    """The linear system for the connection coefficients has no solution."""


class DriftError(NhfieldsError):
    """Constraint drift exceeded the configured ceiling during evolution."""


class IntegrationError(NhfieldsError):
    """Time integration produced NaN/Inf or otherwise blew up."""


class ConfigError(NhfieldsError, ValueError):
    """Scenario configuration failed to parse or validate."""


def errors_at(bad, make) -> dict:
    """``{index: make(index)}`` over the failing points of the batch mask
    ``bad``, in C order."""
    if not np.any(bad):
        return {}
    return {idx: make(idx) for idx in (tuple(int(i) for i in row) for row in np.argwhere(bad))}


def raise_first(found: dict) -> None:
    """Raise the error of the first failing point of ``found`` in C order,
    if any, naming its index as ``at grid point (i, j, ...): <message>``
    unless the index is the pointwise ``()``."""
    if found:
        idx = min(found)
        if idx == ():
            raise found[idx]
        raise type(found[idx])(f"at grid point {idx}: {found[idx]}")
