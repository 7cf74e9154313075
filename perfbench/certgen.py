"""Write cert-verify's certificates for one seed into the working directory.

    python3 perfbench/certgen.py SEED

Prints ``[p, q, free, length]`` of each certificate, in file order, as one
JSON list.  ``workloads.build_cert_verify`` runs this in a child process,
so that generation's memory is not part of the worker's peak memory.
"""
from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from perfbench import workloads  # noqa: E402


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(workloads.write_certificates(int(args[0]))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
