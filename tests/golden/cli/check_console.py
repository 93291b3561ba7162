"""Run the recorded CLI cases of manifest.json through a console command and
check that each exits with its recorded code and prints its recorded bytes.

    python tests/golden/cli/check_console.py [--command CMD] [SUBCOMMAND ...]

CMD defaults to the installed `nqsolve`; `--command "python -m
quantum_nqueens.cli"` runs the package without installing it. Given
subcommands, only the cases of those subcommands run. Exits 1 after listing
every case that differs.
"""

import argparse
import json
import shlex
import subprocess
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--command", default="nqsolve")
    parser.add_argument("subcommands", nargs="*")
    args = parser.parse_args()
    cases = json.loads((GOLDEN_DIR / "manifest.json").read_text(encoding="utf-8"))
    cases = [c for c in cases if not args.subcommands or c["argv"][0] in args.subcommands]
    if not cases:
        parser.error(f"no recorded case of {' '.join(args.subcommands)}")
    failed = []
    for case in cases:
        run = subprocess.run(shlex.split(args.command) + case["argv"], stdout=subprocess.PIPE)
        same = (run.returncode == case["exit"]
                and run.stdout == (GOLDEN_DIR / f"{case['name']}.out").read_bytes())
        print(case["name"], "ok" if same else f"DIFFERS (exit {run.returncode})")
        if not same:
            failed.append(case["name"])
    if failed:
        print(f"{len(failed)} case(s) differ: {' '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
