import os

# One BLAS thread, set before anything imports numpy: the suite's timing
# should not depend on other load on the host. CLI subprocesses inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pathlib
import sys

import pytest

TESTS_DIR = pathlib.Path(__file__).parent
if str(TESTS_DIR) not in sys.path:
    sys.path.insert(0, str(TESTS_DIR))

DATA_DIR = TESTS_DIR.parent / "data"


@pytest.fixture(scope="session")
def toy_data_dir():
    return DATA_DIR


def pytest_runtest_logreport(report):
    """One visible pass/fail line per acceptance criterion."""
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if not name.startswith("test_criterion"):
        return
    status = "PASS" if report.passed else "FAIL"
    sys.stderr.write(f"[{status}] {name}\n")
    sys.stderr.flush()
