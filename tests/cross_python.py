"""Check the golden pins of golden_pins.py, and that each healflow module
imports alone, under each Python interpreter given.

    python tests/cross_python.py python3.10 python3.11 python3.12 python3.13

Each interpreter runs every golden pair, and the store pair twice over one
store directory, and renders the palette schema, in one fresh process. One line
is printed per interpreter and pair, one for the store and one for the schema.
Then it imports each module under src/healflow in a fresh process of its own
with warnings as errors, and one line gives the count. The exit status is 1 if
any timeline digest, report text, store digest or the schema text differs from
its pin, an interpreter fails to run the pairs, or a module fails to import
alone.
Only the standard library is needed, in this process and in each child.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
PATH = os.pathsep.join([str(SRC), str(TESTS)])
MODULES = sorted(
    ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
    for path in (SRC / "healflow").rglob("*.py"))
sys.path[:0] = PATH.split(os.pathsep)

from golden_pins import GOLDEN, REPORTS, SCHEMA, STORE_PINS  # noqa: E402

# Printed by each child: its version, the digest and report text of each pair,
# the store digests, then the schema text.
CHILD = """
import json, sys
from golden_pins import GOLDEN, observed, observed_store, schema_text
print(json.dumps([sys.version.split()[0], {name: observed(name) for name in GOLDEN},
                  observed_store(), schema_text()]))
"""


def check(python: str) -> bool:
    """Run the pairs and the schema under python, print one line for each pair, the
    store and the schema, and say whether all match."""
    done = subprocess.run([python, "-W", "error", "-c", CHILD], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=PATH))
    if done.returncode != 0:
        print(f"{python}: exit {done.returncode}: {done.stderr.strip()}")
        return False
    version, seen, store, schema = json.loads(done.stdout)
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
    print(f"{version} palette schema: {schema.count(chr(10))} lines "
          f"{'ok' if schema == SCHEMA else 'DIFFERS'}")
    return ok and same and schema == SCHEMA


def imports_alone(python: str) -> bool:
    """Import each module in its own process under python, print one line, and say
    whether all imported."""
    failed = []
    for module in MODULES:
        done = subprocess.run([python, "-W", "error", "-c", f"import {module}"],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(SRC)))
        if done.returncode != 0:
            failed.append(f"{module} ({(done.stderr.strip().splitlines() or ['?'])[-1]})")
    print(f"{python}: {len(MODULES) - len(failed)} of {len(MODULES)} modules import alone"
          + "".join(f"\n  FAILED {line}" for line in failed))
    return not failed


def main(pythons: list[str]) -> int:
    if not pythons:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    results = [ok for python in pythons for ok in (check(python), imports_alone(python))]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
