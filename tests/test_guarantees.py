"""The sample-size formulas refuse an input that is no number (for S, no
count), naming it, and a finite input their float arithmetic cannot
evaluate, naming the formula and its inputs."""

import re

import numpy as np
import pytest

from epelab import (
    ContractViolation,
    sample_size_backward,
    sample_size_backward_bd,
    sample_size_forward,
    sample_size_forward_bd,
)


def refusal(formula, first_input, error=""):
    """The pattern of the refusal of ``formula`` whose first input reads ``first_input``."""
    return f"^{formula} cannot be evaluated at {re.escape(first_input)}, .*: {re.escape(error)}"


@pytest.mark.parametrize(
    "epsilon, c_inf, error",
    [
        (1e-300, 1.0, "float division by zero"),  # epsilon**2 underflows to 0
        (0.1, 1e300, "Numerical result out of range"),  # c_inf**2 overflows
        (1e30, 1e-300, "math domain error"),  # the horizon's ratio underflows to 0
    ],
)
def test_backward_refuses_an_overflow_or_underflow(epsilon, c_inf, error):
    with pytest.raises(ContractViolation, match=refusal("sample_size_backward", f"epsilon={epsilon}", error) + "$"):
        sample_size_backward(epsilon, 0.1, 0.5, c_inf, 10)


@pytest.mark.parametrize("epsilon, c_inf", [(1e-300, 1.0), (0.1, 1e300)])
def test_forward_refuses_an_overflow_or_underflow(epsilon, c_inf):
    with pytest.raises(ContractViolation, match=refusal("sample_size_forward", f"epsilon={epsilon}")):
        sample_size_forward(epsilon, 0.1, 0.5, c_inf, 10)


@pytest.mark.parametrize(
    "epsilon, epsilon_rel, epsilon_abs",
    [
        (0.1, 0.5, 1e-320),  # the quotient overflows to inf
        (1e300, 0.5, 1e-10),  # so does the product
        (0.1, 1e-170, 0.1),  # epsilon_rel**2 underflows to 0
    ],
)
def test_forward_bd_refuses_an_overflow_or_underflow(epsilon, epsilon_rel, epsilon_abs):
    with pytest.raises(ContractViolation, match=refusal("sample_size_forward_bd", f"epsilon={epsilon}")):
        sample_size_forward_bd(epsilon, epsilon_rel, epsilon_abs, 0.1, 10)


@pytest.mark.parametrize(
    "epsilon_rel, delta, q_min",
    [
        (0.5, 0.1, 1e-320),  # the quotient overflows to inf
        (0.5, 1e-320, 0.1),  # so does 4 * S * S / delta
        (1e-170, 0.1, 0.1),  # log1p(epsilon_rel / 2)**2 underflows to 0
    ],
)
def test_backward_bd_refuses_an_overflow_or_underflow(epsilon_rel, delta, q_min):
    with pytest.raises(ContractViolation, match=refusal("sample_size_backward_bd", f"epsilon_rel={epsilon_rel}")):
        sample_size_backward_bd(epsilon_rel, 0.1, delta, 0.5, 1.0, 10, q_min)


def test_a_refused_input_keeps_its_own_message():
    with pytest.raises(ContractViolation, match=r"^q_min must lie in \(0,1\], got 0.0$"):
        sample_size_backward_bd(0.5, 0.1, 0.1, 0.5, 1.0, 10, 0.0)


@pytest.mark.parametrize(
    "formula, args, message",
    [
        (sample_size_backward, (True, 0.1, 0.5, 1.0, 100), "^epsilon must be a number, got True$"),
        (sample_size_forward, (0.1, 0.1, 0.5, 1.0, True), "^S must be a whole number, got True$"),
        (sample_size_backward, ("0.1", 0.1, 0.5, 1.0, 100), "^epsilon must be a number, got '0.1'$"),
    ],
    ids=["bool-epsilon", "bool-S", "str-epsilon"],
)
def test_an_input_of_the_wrong_kind_is_refused_naming_it(formula, args, message):
    with pytest.raises(ContractViolation, match=message):
        formula(*args)


def test_a_numpy_or_whole_float_input_gives_the_floats_result():
    assert sample_size_backward(np.float64(0.1), 0.1, 0.5, 1, np.int64(100)) == sample_size_backward(0.1, 0.1, 0.5, 1.0, 100)
    assert sample_size_forward(0.1, 0.1, 0.5, 1.0, 100.0) == sample_size_forward(0.1, 0.1, 0.5, 1.0, 100)
