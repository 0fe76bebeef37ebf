"""What a fresh process loads. The process pool (`concurrent.futures`, which
brings `multiprocessing`) is imported only where a scan starts one, and `csv`
only where a report is written as CSV. So the library API, the ring commands
and a one-worker scan load neither. Each case runs in a new interpreter,
since this test process has long since imported both."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ezdlab import lab

ROOT = Path(__file__).resolve().parent.parent
POOL_AND_CSV = ("concurrent.futures", "multiprocessing", "csv")

REPORT = """
import contextlib, io, json, sys
{code}
print(json.dumps(sorted(sys.modules)), file=sys.stderr)
"""


def _loaded_after(code: str) -> set[str]:
    """The modules in `sys.modules` after a new interpreter runs `code`;
    the CLI's own output is swallowed so the list is read off stderr."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", REPORT.format(code=code)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr.splitlines()[-1]))


def _cli(*argv: str) -> str:
    return (
        "import ezdlab.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = ezdlab.cli.main({list(argv)!r})\n"
        "assert code in (0, 1), code\n"
    )


@pytest.mark.parametrize("code", [
    "import ezdlab",
    "import ezdlab.cli",
    _cli("hilbert", "-n", "2", "x1^2, x2^2"),
    _cli("scan", "monomial", "-n", "2", "--workers", "1"),
], ids=["import-ezdlab", "import-cli", "hilbert", "one-worker-scan"])
def test_no_pool_and_no_csv_where_none_is_used(code):
    assert _loaded_after(code).isdisjoint(POOL_AND_CSV)


@pytest.mark.skipif(lab._usable_cpus() < 2, reason="a pool starts only with two usable CPUs")
def test_two_worker_scan_loads_the_pool():
    loaded = _loaded_after(_cli("scan", "monomial", "-n", "2", "--workers", "2"))
    assert "concurrent.futures.process" in loaded
    assert "csv" not in loaded


def test_csv_report_loads_csv():
    loaded = _loaded_after(_cli("scan", "monomial", "-n", "2", "--workers", "1", "--format", "csv"))
    assert "csv" in loaded
    assert loaded.isdisjoint(("concurrent.futures", "multiprocessing"))
