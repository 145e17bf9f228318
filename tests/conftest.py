"""Shared pytest plumbing for the acceptance gate.

Acceptance tests register a one-line verdict per criterion through
``record_criterion``; the lines are printed together in the terminal
summary so a full run ends with an explicit pass/fail roster.

The full-grid oracle report is built once per session by
``full_grid_report`` and shared by the tests that need it.

geoamp keeps the state of the last scan it evaluated; the ``cold_scans``
fixture clears it, for tests that count what a scan builds.
"""

import functools
import time

import pytest

from bumpscatter import geoamp
from bumpscatter.oracle import default_verification_grid, verify_all

_CRITERION_LINES = {}


@functools.cache
def full_grid_report():
    """verify_all on the full default grid (rtol 1e-6 and atol 1e-10), and
    the seconds it took; built on the first call, then shared.  A plain
    cached function rather than a fixture, so a test that calls it inside
    its own try still sees the exception if building the report raises."""
    t0 = time.perf_counter()
    report = verify_all(default_verification_grid())
    return report, time.perf_counter() - t0


@pytest.fixture
def cold_scans(monkeypatch):
    """Clear the scan state geoamp keeps (geoamp._f1_points), so that the
    test's first scan builds its own whatever ran before, and return the
    function that clears it again."""
    def clear():
        monkeypatch.setattr(geoamp, "_last_scan", (None, None))

    clear()
    return clear


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
