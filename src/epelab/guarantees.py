"""Sample sizes that back the estimators' accuracy guarantees: per-state
budgets at which backward pushes and forward averaging meet a 2*epsilon
sup-norm guarantee, and the bidirectional estimator a relative-plus-absolute
one, with failure probability delta. The four formulas share one input
check, one horizon factor and one count step, each under :func:`guarded`."""

import functools
import inspect
import math

from .errors import ContractViolation


def check_formula_inputs(S: int, alpha=None, epsilon_rel=None, q_min=None, **positive: float) -> None:
    """Refuse the inputs of a sample-size formula unless epsilon_rel and
    q_min, when given, lie in (0,1) and (0,1], every one of ``positive`` is
    finite and > 0, S is finite and >= 1, and alpha, when given, lies in (0,1).
    Each test is the condition to pass, so a NaN, which fails every one, is refused."""
    if epsilon_rel is not None and not 0.0 < epsilon_rel < 1.0:
        raise ContractViolation(f"epsilon_rel must lie in (0,1), got {epsilon_rel}")
    if q_min is not None and not 0.0 < q_min <= 1.0:
        raise ContractViolation(f"q_min must lie in (0,1], got {q_min}")
    got = {**positive, "S": S}
    need = f"need {', '.join(positive)} > 0 and finite, S >= 1"
    ok = all(0.0 < value < math.inf for value in positive.values()) and 1 <= S < math.inf
    if alpha is not None:
        got["alpha"] = alpha
        need += ", alpha in (0,1)"
        ok = ok and 0.0 < alpha < 1.0
    if not ok:
        raise ContractViolation(f"{need}; got " + ", ".join(f"{name}={value}" for name, value in got.items()))


def guarded(formula):
    """``formula``, refusing an input its arithmetic cannot evaluate (a
    division by an underflowed square, an overflow, a count or log that is
    not finite) with a ContractViolation naming the formula and its inputs."""
    @functools.wraps(formula)
    def run(*args, **kwargs):
        try:
            return formula(*args, **kwargs)
        except ContractViolation:
            raise
        except (ArithmeticError, ValueError) as exc:
            bound = inspect.signature(formula).bind(*args, **kwargs).arguments
            inputs = ", ".join(f"{name}={value}" for name, value in bound.items())
            raise ContractViolation(f"{formula.__name__} cannot be evaluated at {inputs}: {exc.args[-1]}") from exc

    return run


def _count(value: float) -> int:
    return max(1, math.ceil(value))  # math.ceil raises on an infinite or NaN value


def _horizon(scale: float, c_inf: float, epsilon: float, alpha: float) -> int:
    """The count of log(scale * c_inf / epsilon) / (1 - alpha): 1 where epsilon >= scale * c_inf."""
    return _count(math.log(scale * c_inf / epsilon) / (1.0 - alpha))


@guarded
def sample_size_backward(epsilon: float, delta: float, alpha: float, c_inf: float, S: int) -> int:
    """Per-state draw count sufficient for a 2*epsilon sup-norm guarantee
    with failure probability delta."""
    check_formula_inputs(S, alpha, epsilon=epsilon, delta=delta, c_inf=c_inf)
    horizon = _horizon(4.0, c_inf, epsilon, alpha)
    factor = 2.0 * c_inf**2 * alpha**2 / (epsilon**2 * (1.0 - alpha) ** 2)
    return _count(factor * math.log((2.0 * S / delta) * horizon))


@guarded
def sample_size_forward(epsilon: float, delta: float, alpha: float, c_inf: float, S: int) -> tuple:
    """Trajectory length and count sufficient for a 2*epsilon sup-norm
    guarantee with failure probability delta; returns (T, m)."""
    check_formula_inputs(S, alpha, epsilon=epsilon, delta=delta, c_inf=c_inf)
    T = _horizon(2.0, c_inf, epsilon, alpha)
    return T, _count((c_inf**2 * alpha**2 / (2.0 * epsilon**2 * (1.0 - alpha) ** 2)) * math.log(2.0 * S * T / delta))


@guarded
def sample_size_forward_bd(epsilon: float, epsilon_rel: float, epsilon_abs: float, delta: float, S: int) -> int:
    """Per-state walk count sufficient for the relative-plus-absolute
    guarantee, given the backward stage ran at threshold epsilon."""
    check_formula_inputs(S, epsilon_rel=epsilon_rel, epsilon=epsilon, epsilon_abs=epsilon_abs, delta=delta)
    return _count(324.0 * epsilon * math.log(4.0 * S / delta) / (epsilon_rel**2 * epsilon_abs))


@guarded
def sample_size_backward_bd(
    epsilon_rel: float, epsilon_abs: float, delta: float, alpha: float, c_inf: float, S: int, q_min: float
) -> int:
    """Per-state backward draw count for the relative-plus-absolute guarantee.
    q_min is the smallest positive transition probability, which a
    sampling-only agent cannot observe: a caller passes a lower bound."""
    check_formula_inputs(
        S, alpha, epsilon_rel=epsilon_rel, q_min=q_min, epsilon_abs=epsilon_abs, delta=delta, c_inf=c_inf
    )
    horizon = _horizon(2.0, c_inf, epsilon_abs, alpha)
    return _count(3.0 * math.log(4.0 * S * S / delta) / ((math.log1p(epsilon_rel / 2.0)) ** 2 * q_min) * horizon**2)
