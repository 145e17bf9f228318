"""Shared pytest plumbing for the acceptance gate.

Acceptance tests register a one-line verdict per criterion through
``record_criterion``; the lines are printed together in the terminal
summary so a full run ends with an explicit pass/fail roster.

The full-grid oracle report is built once per session by
``full_grid_report`` and shared by the tests that need it.
"""

import functools
import time

from bumpscatter.oracle import default_verification_grid, verify_all

_CRITERION_LINES = {}


@functools.cache
def full_grid_report():
    """verify_all on the full default grid at rtol 1e-6 and atol 1e-10, and
    the seconds it took; built on the first call, then shared.  A plain
    cached function rather than a fixture, so a test that calls it inside
    its own try still sees the exception if building the report raises."""
    t0 = time.perf_counter()
    report = verify_all(default_verification_grid(), rtol=1e-6, atol=1e-10)
    return report, time.perf_counter() - t0


def record_criterion(number: int, passed: bool, detail: str) -> None:
    """Store the verdict line for one acceptance criterion."""
    verdict = "PASS" if passed else "FAIL"
    _CRITERION_LINES[number] = f"CRITERION {number}: {verdict} - {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_CRITERION_LINES):
        terminalreporter.write_line(_CRITERION_LINES[number])
