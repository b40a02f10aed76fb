"""Shared fixtures and the acceptance-criteria summary hook."""

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
