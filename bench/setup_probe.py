"""Set-up probe: import microtherm and parse/validate scenario files.

    python3 bench/setup_probe.py SRC_DIR SCENARIO...

run.py starts this in a fresh interpreter and times the whole process,
so ``setup_s`` is what a user waits before any numerics run.
"""

import sys

sys.path.insert(0, sys.argv[1])

import microtherm  # noqa: E402

for path in sys.argv[2:]:
    with open(path) as handle:
        microtherm.parse_scenario(handle.read())
