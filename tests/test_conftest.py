"""The suite's own hooks."""

from types import SimpleNamespace

import pytest

from conftest import pytest_runtest_logreport


@pytest.mark.parametrize("nodeid,printed", [
    ("tests/test_acceptance.py::test_x", "\nACCEPTANCE test_x: PASS\n"),
    # A parametrized id that only names the acceptance file.
    ("tests/test_other.py::test_y[tests/test_acceptance.py]", ""),
])
def test_acceptance_lines_come_only_from_the_acceptance_file(nodeid, printed, capsys):
    pytest_runtest_logreport(SimpleNamespace(when="call", nodeid=nodeid, passed=True))
    assert capsys.readouterr().out == printed
