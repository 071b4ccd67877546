"""Exception types shared across the package.

Every error that names a point carries it in ``.point`` so callers can
report the offending location without parsing the message.
"""

from __future__ import annotations


class CzmapError(Exception):
    """Base class for all package errors."""


class DegenerateMetric(CzmapError):
    """Metric matrix failed the positive-definiteness check at a point."""

    def __init__(self, point, min_eigenvalue: float):
        self.point = tuple(float(c) for c in point)
        self.min_eigenvalue = float(min_eigenvalue)
        super().__init__(
            f"metric not positive definite at {self.point}: "
            f"min eigenvalue {self.min_eigenvalue:.3e}"
        )


class Unreachable(CzmapError):
    """No grid path connects two points."""


class TargetEscape(CzmapError):
    """A map value left the target chart box."""

    def __init__(self, point, value):
        self.point = tuple(float(c) for c in point)
        self.value = tuple(float(c) for c in value)
        super().__init__(
            f"map value {self.value} at source point {self.point} "
            "is outside the target chart box"
        )


class LipschitzViolation(CzmapError, ValueError):
    """A sampled difference quotient exceeds the declared Lipschitz bound."""


class NotImmersion(CzmapError):
    """Differential is rank deficient at a grid point."""

    def __init__(self, point, min_singular_value: float):
        self.point = tuple(float(c) for c in point)
        self.min_singular_value = float(min_singular_value)
        super().__init__(
            f"differential is rank deficient at {self.point} "
            f"(smallest singular value {self.min_singular_value:.3e})"
        )


class SolverDiverged(CzmapError):
    """A linear solve failed: an iterative solve did not reach the requested
    residual, or ``reason`` says why a direct solve stopped."""

    def __init__(self, residual_history, reason: str | None = None):
        self.residual_history = list(residual_history)
        last = self.residual_history[-1] if self.residual_history else float("nan")
        super().__init__(
            reason or f"solver did not converge; final residual {last:.3e} "
            f"after {len(self.residual_history)} iterations"
        )


class NotDiffeomorphic(CzmapError):
    """Candidate coordinates have a (near) singular Jacobian."""


class HypothesisFailed(CzmapError):
    """An operator-spec hypothesis is violated; names the failing bound."""

    def __init__(self, bound_name: str, detail: str = ""):
        self.bound_name = bound_name
        msg = f"hypothesis violated: {bound_name}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class PreconditionFailed(CzmapError):
    """An estimate precondition (containment, radius bound) fails."""


class CertificateRequired(CzmapError):
    """A radius certificate is missing for a requested estimate."""


class DegenerateRadius(CzmapError):
    """Radius arithmetic has no meaningful value for these inputs."""


class ResolutionTooCoarse(CzmapError):
    """The grid cannot resolve the requested length scale."""


class EmptyFeasibleSet(CzmapError):
    """No candidate in a search family satisfied the preconditions."""


class UnsupportedExponent(CzmapError):
    """Norm exponent outside the supported open interval (1, inf)."""

    def __init__(self, p: float):
        self.p = float(p)
        super().__init__(f"unsupported exponent p={self.p}; need 1 < p < inf")


class EvalError(CzmapError):
    """Expression evaluation failed; carries source position."""

    def __init__(self, message: str, position: int | None = None, text: str = ""):
        self.position = position
        self.text = text
        loc = f" at column {position + 1}" if position is not None else ""
        super().__init__(f"{message}{loc}")


class ExpressionSyntaxError(CzmapError):
    """Expression text failed to parse; carries source position."""

    def __init__(self, message: str, position: int, text: str):
        self.position = int(position)
        self.text = text
        pointer = " " * self.position + "^"
        super().__init__(f"{message} at column {self.position + 1}\n  {text}\n  {pointer}")


class UnknownIdentifier(ExpressionSyntaxError):
    """Unknown variable or function name, with spelling suggestions."""

    def __init__(self, name: str, position: int, text: str, suggestions):
        self.name = name
        self.suggestions = list(suggestions)
        hint = f"; did you mean {', '.join(self.suggestions)}?" if self.suggestions else ""
        super().__init__(f"unknown identifier '{name}'{hint}", position, text)


class ValidationIssue:
    """One located validation failure inside a scenario file."""

    def __init__(self, path: str, line: int, invariant: str, detail: str):
        self.path = path
        self.line = int(line)
        self.invariant = invariant
        self.detail = detail

    def __repr__(self):
        return f"{self.path}:{self.line}: [{self.invariant}] {self.detail}"


class ScenarioError(CzmapError):
    """A scenario failed validation; holds every located issue."""

    def __init__(self, issues):
        self.issues = list(issues)
        lines = "\n".join(repr(i) for i in self.issues)
        super().__init__(f"scenario validation failed:\n{lines}")
