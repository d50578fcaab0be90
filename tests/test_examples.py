"""Every example script must run clean end to end.

Children run with ``-W error::DeprecationWarning``: no example may use a
deprecated form of a dependency's API.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

SCRIPTS = sorted(path.name for path in EXAMPLES.glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS)
def test_example_runs_clean(script):
    result = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert result.returncode == 0, (
        f"{script} failed:\n{result.stdout}\n{result.stderr}"
    )
    assert result.stdout.strip(), f"{script} printed nothing"
