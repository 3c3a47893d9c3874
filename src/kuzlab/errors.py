"""Shared exception types for the simulation laboratory."""

from __future__ import annotations


class KuzlabError(Exception):
    """Base class for all package-specific errors."""


class NonFiniteFieldError(KuzlabError, ValueError):
    """A field contains NaN or Inf values."""


class HyperbolicityBreakdown(KuzlabError, RuntimeError):
    """The factor 1 - alpha*eps*u_t dropped to or below the configured floor.

    Signals proximity to the degeneracy that the smallness conditions of the
    quasilinear theory are designed to exclude; the equation can no longer be
    solved pointwise for u_tt. For member-stacked fields, members marks the
    members that reached the floor.
    """

    def __init__(self, min_factor: float, floor: float, t: float | None = None, members=None):
        self.min_factor = float(min_factor)
        self.floor = float(floor)
        self.t = t
        self.members = members
        where = f" at t = {t:.6g}" if t is not None else ""
        super().__init__(
            f"hyperbolicity factor min {min_factor:.6g} <= floor {floor:.6g}{where}"
        )


class StepRejected(KuzlabError, RuntimeError):
    """A time step produced non-finite field values.

    For member-stacked fields, members marks the members whose fields did.
    """

    def __init__(self, message: str, members=None):
        self.members = members
        super().__init__(message)


class GuardViolation(KuzlabError, ValueError):
    """Initial data failed a run guard before any time stepping.

    Raised when data violate the sup-norm guard ||u_1||_inf < 1/(2 alpha_eff
    eps) or a smallness threshold that the run was asked to verify, when
    threshold-relative scaling takes data to the hyperbolicity floor, when
    explicit RK4 would amplify a linear mode, and when the Klainerman driver
    gets a damped model or a grid that is not origin-centered.
    """


class ConfigError(KuzlabError, ValueError):
    """A run configuration failed schema validation."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")
