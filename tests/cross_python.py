"""Check the golden pins of golden_pins.py under each Python interpreter given.

    python tests/cross_python.py python3.10 python3.11 python3.12 python3.13

Each interpreter runs every golden pair, and the store pair twice over one
store directory, in one fresh process. One line is printed per interpreter and
pair, and one for the store. The exit status is 1 if any timeline digest,
report text or store digest differs from its pin, or an interpreter fails to
run the pairs.
Only the standard library is needed, in this process and in each child.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PATH = os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])
sys.path[:0] = PATH.split(os.pathsep)

from golden_pins import GOLDEN, REPORTS, STORE_PINS  # noqa: E402

# Printed by each child: its version, the digest and report text of each pair,
# then the store digests.
CHILD = """
import json, sys
from golden_pins import GOLDEN, observed, observed_store
print(json.dumps([sys.version.split()[0], {name: observed(name) for name in GOLDEN},
                  observed_store()]))
"""


def check(python: str) -> bool:
    """Run the pairs under python, print one line per pair, and say whether all match."""
    done = subprocess.run([python, "-W", "error", "-c", CHILD], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=PATH))
    if done.returncode != 0:
        print(f"{python}: exit {done.returncode}: {done.stderr.strip()}")
        return False
    version, seen, store = json.loads(done.stdout)
    ok = True
    for name, (digest, report) in seen.items():
        pinned = GOLDEN[name][2]
        same = (digest == pinned, report == REPORTS[name])
        print(f"{version} {name}: sha256 {digest[:12]} "
              f"{'ok' if same[0] else f'DIFFERS from {pinned[:12]}'}, "
              f"report {'ok' if same[1] else 'DIFFERS'}")
        ok = ok and all(same)
    same = tuple(store) == STORE_PINS
    print(f"{version} store of flow_a+scenario_a twice: sha256 "
          f"{' '.join(digest[:12] for digest in store)} {'ok' if same else 'DIFFERS'}")
    return ok and same


def main(pythons: list[str]) -> int:
    if not pythons:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    results = [check(python) for python in pythons]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
