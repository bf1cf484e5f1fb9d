"""Rewrite ``digests.json`` from this tree's outputs.

Run ``python tests/golden/update.py`` from the repository root.  Only a
change that is meant to move an output rewrites the file; list each changed
output in CHANGES.md with the reason and the old and new values.
"""

import json
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

import numpy  # noqa: E402
import scipy  # noqa: E402

from test_golden import COMMANDS, DIGESTS, EXCLUSION, digest, key, output  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        golden = {
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "digests": {key(argv): digest(argv, out / str(i)) for i, argv in enumerate(COMMANDS)},
            "exclusion": {key(EXCLUSION): json.loads(output(EXCLUSION, out / "exclusion.json"))},
        }
    DIGESTS.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden['digests'])} digests and 1 exclusion output to {DIGESTS}")


if __name__ == "__main__":
    main()
