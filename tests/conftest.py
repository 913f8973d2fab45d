import os
import subprocess
import sys

import pytest

import lczkit

# Appended to every script: the number of OS threads of the process (Linux).
_PRINT_TASKS = """
print(len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else -1)
"""


@pytest.fixture
def run_under_blas_threads():
    """Run a Python script in two fresh interpreters, with 1 and with 2 BLAS
    threads, and return each one's stdout split into fields. On Linux with
    more than one usable CPU the 2-thread process must really have more
    threads, so a passing comparison is not one of two 1-thread runs."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lczkit.__file__)))

    def run(script):
        results = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([sys.executable, "-c", "import os\n" + script + _PRINT_TASKS],
                                  env=env, capture_output=True, text=True, timeout=300, check=True)
            results.append(proc.stdout.split())
        (*out1, tasks1), (*out2, tasks2) = results
        if tasks1 != "-1" and len(os.sched_getaffinity(0)) > 1:
            assert int(tasks1) < int(tasks2)  # the thread setting took effect
        return out1, out2

    return run
