"""Set-up probe, run in a fresh process: import ``spectramap.cli`` and
load every pipeline given on the command line.  Prints the seconds this
took as one JSON line.

    python3 bench/probe.py MODELS_DIR [MODELS_DIR ...]
"""

import json
import os
import sys
import time


def main(argv) -> int:
    t0 = time.perf_counter()
    import spectramap.cli  # noqa: F401  (the import is what is timed)
    from spectramap.workflows import load_pipeline
    for models_dir in argv:
        load_pipeline(models_dir)
    elapsed = time.perf_counter() - t0
    src = os.path.dirname(os.path.abspath(spectramap.cli.__file__))
    print(json.dumps({"setup_s": elapsed, "package": src}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
