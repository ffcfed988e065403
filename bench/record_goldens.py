"""Record the cli workload's goldens: exit code and stdout of every scripted op.

    python3 bench/record_goldens.py

Run only at a commit whose outputs are trusted; the cli workload then checks
every later invocation against bench/goldens/cli.json byte for byte.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    data = inputs.build("cli", 0)
    workloads.write_cli_files(data)
    goldens = {}
    for name, argv in inputs.CLI_SCRIPT:
        code, stdout = workloads.run_eaqec(argv)
        goldens[name] = {"argv": argv, "exit": code, "stdout": stdout.decode("utf-8")}
        print(f"{name}: exit {code}, {len(stdout)} bytes")
    with open(workloads.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
