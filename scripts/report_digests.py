"""Exit code and report digest of every input of a benchmark corpus.

    python scripts/report_digests.py --workload partial-accept --seed 1
    python scripts/report_digests.py --workload partial-reject --seed 1 \
        --region dom

Builds the workload's corpus with perfbench/corpus.py, runs each input
through `ncconvex.cli.main` in this process, and prints one line per
input: its name, exit code and the sha256 of its report with every
`time_s` removed (`cli.strip_timings`, canonical JSON).  `--region R`
is passed on to the `partial` inputs only (`xy` takes no region), so
their scans run on R instead of the default dom-plus.  Two checkouts
that print the same lines give the same verdicts and byte-identical
reports; two runs of one checkout must always do so.  The package is
imported from this checkout's src/.
"""

import os

# one BLAS thread, as in perfbench/run.py, so the digests do not depend
# on the thread count of the machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import corpus  # noqa: E402
from ncconvex import cli  # noqa: E402


def digest(argv):
    """(exit code, sha256 of the stripped report) of one cli.main call;
    the digest of the empty string when nothing was printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    text = out.getvalue()
    if text.strip():
        text = json.dumps(cli.strip_timings(json.loads(text)),
                          indent=2, sort_keys=True)
    return rc, hashlib.sha256(text.encode()).hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--region", help="the --region of every partial input")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        items = corpus.build(args.workload, args.seed, Path(work),
                             ROOT / "src" / "ncconvex" / "data")
        for item in items:
            extra = ["--region", args.region] \
                if args.region and item.argv[0] == "partial" else []
            rc, sha = digest(item.argv + extra)
            print("%s %s %s" % (item.name, rc, sha))
    return 0


if __name__ == "__main__":
    sys.exit(main())
