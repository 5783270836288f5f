"""Child process for one timed job: import `uqsim.cli`, stamp, run `main`.

    python3 launcher.py STAMP_FILE ARGS...   run `uqsim ARGS...`
    python3 launcher.py --env                print the run environment

The job runs exactly as the `uqsim` console script runs it, with one
addition: right after `uqsim.cli` is imported, `time.monotonic()` is written
to STAMP_FILE, so the parent can split the job's wall time into set-up
(interpreter start plus import) and compute.
"""

import os
import sys
import time

# the checkout's sources replace this script's directory on the path, as
# an installed console script would see them
sys.path[0] = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

from uqsim.cli import main  # noqa: E402

if __name__ == "__main__":
    stamp = time.monotonic()
    if sys.argv[1:] == ["--env"]:
        import json
        import platform

        import numpy
        import scipy

        from uqsim.cli import JobConfig

        print(json.dumps({
            "nproc": os.cpu_count(),
            "cli_threads": JobConfig("dc").solver_options().threads,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        }))
        sys.exit(0)
    with open(sys.argv[1], "w") as fh:
        fh.write(repr(stamp))
    sys.exit(main(sys.argv[2:]))
