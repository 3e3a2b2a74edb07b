"""Normalization of transition-rate specifications.

Definition 1 of the paper allows local transition rates to depend on the
overall system state (the occupancy vector ``m̄``), and the paper notes
that everything extends to rates that depend explicitly on global time.
This module accepts all the convenient spellings a modeller might use and
normalizes them to one canonical signature ``rate(m, t) -> float``:

- a non-negative number — a constant rate;
- a callable ``f(m)`` — depends on the occupancy vector only;
- a callable ``f(m, t)`` — depends on occupancy and global time.

The arity is detected once, at model-construction time, so the hot path
(generator assembly inside ODE right-hand sides) pays no inspection cost.

A rate callable may additionally declare ``vectorized = True`` to promise
that it evaluates a whole *batch* of occupancy vectors at once: given
``m`` of shape ``(B, K)`` (and ``t`` scalar or of shape ``(B,)``) it
returns a ``(B,)`` value array.  Writing the body with ``m[..., j]``
indexing and numpy ufuncs (``np.maximum`` instead of ``max``) makes the
same code serve both the scalar and the batched path; the batched
Monte-Carlo engines then evaluate the rate once per sweep instead of
once per replica.  Expression rates get this for free via
:meth:`~repro.meanfield.expressions.Expression.compile`.

Rates are assumed pure, so transitions that share one underlying
callable (the same object passed for every transition, as the
population model's birth rate is) share one evaluation per generator
assembly; :func:`normalize_rate` records the callable it wrapped as
``rate_source`` so the compiled assembler can tell.

When per-level rates are slices of one vectorised computation, a
closure may declare that it belongs to a **rate family**: it sets
``family = F`` and ``family_column = c`` next to ``vectorized = True``,
where ``F(m)`` (or ``F(m, t)``) is itself vectorised and returns an
array of shape ``(..., C)`` whose column ``c`` is this closure's rate.
The closure should compute its value as ``F(m)[..., c]`` so the
interpreted path and the compiled assembler (which calls ``F`` once per
assembly for every member, see
:class:`~repro.meanfield.compiled.CompiledGenerator`) agree bit for bit.
:func:`~repro.models.load_balancing.load_balancing_model` computes all
its arrival rates from one reversed cumulative sum this way, O(K) per
assembly instead of O(K) per level.
"""

from __future__ import annotations

import inspect
from typing import Callable, Union

import numpy as np

from repro.exceptions import InvalidRateError

RateSpec = Union[float, int, Callable]
RateFunction = Callable[[np.ndarray, float], float]


def _positional_arity(func: Callable) -> int:
    """Number of positional parameters a callable accepts (capped at 2)."""
    try:
        sig = inspect.signature(func)
    except (TypeError, ValueError):
        # Builtins / numpy ufuncs without introspectable signatures: assume
        # the full (m, t) form and let the call fail loudly if wrong.
        return 2
    count = 0
    for param in sig.parameters.values():
        if param.kind in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        ):
            count += 1
        elif param.kind == inspect.Parameter.VAR_POSITIONAL:
            return 2
    return count


def normalize_rate(spec: RateSpec) -> RateFunction:
    """Convert any accepted rate specification to ``f(m, t) -> float``.

    Raises
    ------
    InvalidRateError
        If a constant rate is negative or non-finite, or a callable takes
        no positional arguments.
    """
    if callable(spec):
        arity = _positional_arity(spec)
        if arity >= 2:
            return spec
        if arity == 1:
            def rate_m_only(m: np.ndarray, t: float, _f=spec) -> float:
                return _f(m)

            rate_m_only._time_independent = True
            rate_m_only.vectorized = bool(getattr(spec, "vectorized", False))
            rate_m_only.rate_source = spec
            family = getattr(spec, "family", None)
            if family is not None:
                rate_m_only.family = family
                rate_m_only.family_column = spec.family_column
            return rate_m_only
        raise InvalidRateError(
            f"rate callable {spec!r} must accept (m) or (m, t)"
        )
    value = float(spec)
    if not np.isfinite(value) or value < 0.0:
        raise InvalidRateError(
            f"constant rate must be finite and >= 0, got {value}"
        )

    def constant_rate(m: np.ndarray, t: float, _v=value) -> float:
        return _v

    constant_rate._time_independent = True
    return constant_rate


def is_constant_rate(spec: RateSpec) -> bool:
    """``True`` iff the rate can never change (number or constant expression)."""
    if not callable(spec):
        return True
    from repro.meanfield.expressions import Expression, is_constant

    if isinstance(spec, Expression):
        return is_constant(spec)
    return False


def is_time_dependent_rate(rate: RateFunction) -> bool:
    """Conservatively, may this *normalized* rate depend on global time?

    ``False`` only when provably time-independent: constants, wrapped
    ``f(m)`` callables, and expressions without a ``Time`` node.  Unknown
    ``f(m, t)`` callables answer ``True`` — callers use this to decide
    whether time-shift cache sharing (the semigroup shortcut in
    ``EvaluationContext.at_time``) is sound, so the conservative answer
    is the safe one.
    """
    from repro.meanfield.expressions import Expression, depends_on_time

    if isinstance(rate, Expression):
        return depends_on_time(rate)
    return not getattr(rate, "_time_independent", False)


def evaluate_rate(rate: RateFunction, m: np.ndarray, t: float) -> float:
    """Evaluate a normalized rate and validate the result.

    Raises :class:`InvalidRateError` on negative or non-finite values, with
    enough context to locate the offending model ingredient.
    """
    value = float(rate(m, t))
    if not np.isfinite(value) or value < -1e-9:
        raise InvalidRateError(
            f"rate evaluated to {value} at m={np.asarray(m)!r}, t={t}"
        )
    # Tolerate (and clamp) round-off-level negatives produced by ODE
    # solvers stepping marginally off the simplex.
    return max(value, 0.0)
