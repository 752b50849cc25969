"""Time one fresh-interpreter set-up and print the seconds it took.

    python3 bench/setup_probe.py <workload> <seed>   # import anyonmask + the workload's set-up
    python3 bench/setup_probe.py import <module>     # a bare cold import, e.g. numpy

The runner starts this with PYTHONPATH pointing at the checkout's ``src``.
"""

import time

t0 = time.perf_counter()

import importlib  # noqa: E402
import sys  # noqa: E402

if sys.argv[1] == "import":
    importlib.import_module(sys.argv[2])
else:
    import workloads  # noqa: E402  (imports anyonmask)

    workloads.setup(sys.argv[1], int(sys.argv[2]))
print(repr(time.perf_counter() - t0))
