"""Rewrite the golden record of the CLI runs and the demos.

    python3 tools/rewrite_golden.py

Reruns every line of ``tests/golden/runs.txt``, every demo and every help
text with the runner of ``tests/golden_record.py``, the one
``tests/test_golden.py`` compares with, on this checkout's ``src/``.  It writes
each run's ``.csv`` and ``.json``, each demo's ``.stdout`` and each help text's
``.help`` in ``tests/golden/`` and deletes record files that no run, demo or
help text writes any more.  A change that moves numbers commits the diff
and names each move in CHANGES.md.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import golden_record  # noqa: E402


def main():
    for line in golden_record.read_runs():
        golden_record.write_record(golden_record.run_name(line), golden_record.run_cli(line))
    for demo in golden_record.DEMOS:
        golden_record.GOLDEN.joinpath(f"{demo.stem}.stdout").write_text(
            golden_record.run_demo(demo), encoding="utf-8")
    for words in golden_record.HELPS:
        golden_record.GOLDEN.joinpath(golden_record.help_file(words)).write_text(
            golden_record.run_help(words), encoding="utf-8")
    keep = golden_record.record_files()
    for path in golden_record.GOLDEN.glob("*"):
        if path.suffix in (".csv", ".json", ".stdout", ".help") and path.name not in keep:
            path.unlink()


if __name__ == "__main__":
    main()
