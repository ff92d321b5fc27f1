import re

# pctl sets the BLAS thread caps from PCTL_THREADS, which numpy reads only
# when it first loads, so pctl is imported before numpy
import pctl.trainer
import numpy as np
import pytest

from pctl.config import TrainConfig

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


@pytest.fixture
def save_with_switches(monkeypatch):
    """Save a state as checkpoints before ``TrainConfig.variant`` were written.

    The file has no ``cfg.variant`` record and one ``cfg.<switch>`` record per
    item of ``switches``; ``kept``, if given, limits the other train records
    to those it names.
    """
    records = pctl.trainer.config_records

    def save(state, path, switches, kept=None):
        def old_records(cfg):
            if not isinstance(cfg, TrainConfig):
                return records(cfg)
            out = [r for r in records(cfg) if r[0] != "cfg.variant"
                   and (kept is None or r[0] in kept)]
            return out + [(f"cfg.{k}", np.float64(v)) for k, v in switches.items()]

        with monkeypatch.context() as patch:
            patch.setattr(pctl.trainer, "config_records", old_records)
            pctl.trainer.save_checkpoint(state, path)

    return save
