"""Shared test helpers and the acceptance-summary report.

Acceptance tests register one (name, passed, detail) record apiece;
after the run a summary section prints one line per check so the
overall verdict is readable without digging through tracebacks.
"""

ACCEPTANCE_RECORDS = []


def cell(engine, temperature, partition) -> tuple:
    """(E_N, E_l, margin) of one cell, read from a 1 x 1 negativity_grid."""
    return tuple(engine.negativity_grid([temperature], [partition])[0, 0].tolist())


def record_acceptance(name: str, passed: bool, detail: str = "") -> None:
    ACCEPTANCE_RECORDS.append((name, bool(passed), detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RECORDS:
        return
    terminalreporter.section("acceptance checks")
    for name, passed, detail in ACCEPTANCE_RECORDS:
        status = "PASS" if passed else "FAIL"
        line = f"{status}  {name}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)
