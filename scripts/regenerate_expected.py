"""Rebuild the bundled expected reports for `vopt reproduce-example`.

Runs every registered example command in-process and rewrites
src/vopt/fixtures/expected/<name>.json with elapsed_ms zeroed, so the
checked-in files stay byte-stable across regenerations.  Each line printed
ends in `changed` or `same`, by comparing the new bytes with the old file's.

Run from the repository root: PYTHONPATH=src python scripts/regenerate_expected.py
"""

import json

from vopt.cli import EXAMPLE_COMMANDS, EXPECTED, run_for_report


def main() -> None:
    EXPECTED.mkdir(exist_ok=True)
    for example_id, commands in sorted(EXAMPLE_COMMANDS.items()):
        for name, argv in commands:
            report = run_for_report(argv)
            report["elapsed_ms"] = 0
            path = EXPECTED / f"{name}.json"
            data = (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()
            same = path.exists() and path.read_bytes() == data
            path.write_bytes(data)
            print(f"{example_id}  {path.name}  {'same' if same else 'changed'}")


if __name__ == "__main__":
    main()
