"""Every example script must run clean end to end (reduced scales).

Children run with ``-W error::DeprecationWarning``: no example may use a
deprecated form of a dependency's API.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

#: Reduced-scale arguments; every other example runs with none.
ARGS = {
    "incast_rescue.py": ["--scale", "0.02"],
    "baremetal_gateway.py": ["--vips", "800", "--packets", "600"],
    "telemetry_sketches.py": ["--flows", "1500", "--packets", "1500"],
    "kv_cache_netcache.py": ["--keys", "800", "--queries", "500"],
    "l4_migration.py": ["--connections", "1500", "--packets", "3000"],
    "persistent_congestion_ecn.py": ["--duration-ms", "1.5"],
}
SCRIPTS = sorted(path.name for path in EXAMPLES.glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS)
def test_example_runs_clean(script):
    path, args = EXAMPLES / script, ARGS.get(script, [])
    result = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", str(path), *args],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert result.returncode == 0, (
        f"{script} failed:\n{result.stdout}\n{result.stderr}"
    )
    assert result.stdout.strip(), f"{script} printed nothing"
