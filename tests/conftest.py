import re

# pctl sets the BLAS thread caps from PCTL_THREADS, which numpy reads only
# when it first loads, so pctl is imported before any test module loads numpy
import pctl  # noqa: F401

CRITERION_PATTERN = re.compile(r"test_criterion_(\d+[a-z]?)_(\w+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            if getattr(report, "when", "call") != "call" and status == "passed":
                continue
            match = CRITERION_PATTERN.search(getattr(report, "nodeid", ""))
            if match:
                number, name = match.groups()
                current = outcomes.get((number, name))
                outcomes[(number, name)] = "FAIL" if status != "passed" else \
                    (current or "PASS")
    if outcomes:
        terminalreporter.write_sep("=", "acceptance criteria")
        for (number, name), verdict in sorted(outcomes.items()):
            terminalreporter.write_line(
                f"criterion {number} {name.replace('_', '-')}: {verdict}")

