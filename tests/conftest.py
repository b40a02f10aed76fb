"""Shared fixtures, the acceptance-criteria summary hook, the full
spectrum that a real transform's half determines, and the radius sum of
per-entry radii that `character_sums` and `fold` take."""

import numpy as np
import pytest

from l1sweep.lemmas import run_all

CRITERION_LINES: list[str] = []


def record_criterion(line: str) -> None:
    print(line)
    CRITERION_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def lemma_results():
    """The lemma validation suite at the criterion grid, run once per session."""
    return run_all(grid_n=100)


def full_spectrum(shape, half):
    """Every character sum of a real lattice of `shape`, in enumeration
    order, from `character_sums`' half: the sum at (r, j) with j > n//2 is
    the exact conjugate of the one at (-r, n - j)."""
    rest, n = shape[:-1], shape[-1]
    half = half.reshape(rest + (n // 2 + 1,))
    neg = half[np.ix_(*(-np.arange(m) % m for m in rest))]
    return np.concatenate([half, np.conj(neg[..., n - n // 2 - 1:0:-1])], axis=-1).ravel()


def radius_sum(rads):
    """An upper bound on the sum of the per-entry radii `rads`: a float sum
    of n nonnegative terms, in any order, is at least (1 - (n - 1)u) times
    the exact sum, so scaling it by 1 + 2nu leaves an upper bound after the
    product's own rounding."""
    return float(np.sum(rads)) * (1.0 + 2.0 * rads.size * 2.0 ** -53)
