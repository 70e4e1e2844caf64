"""Shared test helpers: independent numerical oracles and reporting."""

import os

import numpy as np
import pytest

from lightmc import softmax_decoder as sd

# per-criterion pass/fail lines collected by the acceptance suite; printed
# in the terminal summary so they show regardless of output capture
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children `os.fork` makes while the test runs."""
    made = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return made


def numeric_gradients(params, outputs, label, h=1e-5):
    """Central finite differences of the instance loss.

    Independent oracle for loss_gradients: perturbs every parameter and
    output coordinate and differences the decode+loss composition.
    """

    def objective(weights, biases, o):
        result = sd.decode(sd.DecoderParams(weights, biases), o)
        return sd.loss(result.probabilities, label)

    w, b = params.weights, params.biases
    grad_w = np.zeros_like(w)
    for i in range(w.shape[0]):
        for j in range(w.shape[1]):
            up, down = w.copy(), w.copy()
            up[i, j] += h
            down[i, j] -= h
            grad_w[i, j] = (
                objective(up, b, outputs) - objective(down, b, outputs)
            ) / (2 * h)
    grad_b = np.zeros_like(b)
    for i in range(b.shape[0]):
        up, down = b.copy(), b.copy()
        up[i] += h
        down[i] -= h
        grad_b[i] = (objective(w, up, outputs) - objective(w, down, outputs)) / (2 * h)
    grad_o = np.zeros_like(outputs)
    for j in range(outputs.shape[0]):
        up, down = outputs.copy(), outputs.copy()
        up[j] += h
        down[j] -= h
        grad_o[j] = (objective(w, b, up) - objective(w, b, down)) / (2 * h)
    return grad_w, grad_b, grad_o


def max_relative_error(analytic, numeric, floor=1e-6):
    gaps = [
        np.max(np.abs(a - n) / (np.maximum(np.abs(n), floor) + floor))
        for a, n in zip(analytic, numeric)
    ]
    return max(gaps)
