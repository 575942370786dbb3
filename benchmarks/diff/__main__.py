"""``python benchmarks/diff MATRIX dump F | compare A B`` (see harness.py)."""
import importlib
import sys

import harness

MATRICES = ("deciders", "recorders", "cli", "backends", "symbolic")


def main(argv):
    if argv and argv[0] in MATRICES:
        matrix = importlib.import_module(argv[0])
        if len(argv) == 3 and argv[1] == "dump":
            return harness.dump(
                argv[2], matrix.entries(), getattr(matrix, "check", None)
            )
        if len(argv) == 4 and argv[1] == "compare":
            return harness.compare(
                argv[2], argv[3], getattr(matrix, "tolerate", None)
            )
        print(matrix.__doc__, file=sys.stderr)
    print(harness.__doc__, f"MATRIX is one of {MATRICES}.", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
