"""Regenerate the frozen summaries under src/ncconvex/data/.

The `reproduce` subcommand compares live reruns against these files, so only
regenerate after an intentional change to the examples and re-check the diffs.
"""

import argparse
import json
from pathlib import Path

from ncconvex import cli


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--check", action="store_true",
                    help="compare against the stored files instead of writing")
    args = ap.parse_args()

    data_dir = Path(__file__).resolve().parent.parent / "src" / "ncconvex" / "data"
    ok = True
    # the id -> (runner, file) table that `reproduce` reads
    for fn, name in cli._REPRODUCE.values():
        path = data_dir / name
        text = json.dumps(fn(), indent=2, sort_keys=True) + "\n"
        if args.check:
            stored = path.read_text() if path.exists() else ""
            status = "ok" if stored == text else "MISMATCH"
            ok = ok and stored == text
            print(f"{name}: {status}")
        else:
            path.write_text(text)
            print(f"wrote {path}")
    if args.check and not ok:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
