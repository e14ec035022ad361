"""ncconvex benchmark: time to verdict on three seeded input corpora.

    python3 perfbench/run.py --workload partial-reject --seed 1 \\
        --seconds 15 --trace 0

One closed-loop client: this process feeds the workload's input files one
at a time into `ncconvex.cli.main`, passes over the corpus until
--seconds have gone by and at least MIN_CALLS calls are timed, re-checks
every report against the input's known answer (outside the timed region)
and prints the end-to-end metrics.  Call times are reported at a fixed
machine speed: each is scaled by a fixed reference computation timed
right before and right after it (see speed_scale).
With --trace 1 it instead times half the run untraced and half with spans
around every layer call, and prints the per-layer metrics.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

import os

# pinned before numpy loads: one BLAS thread in the measured process and
# in every set-up subprocess it starts
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
if not (SRC / "ncconvex" / "__init__.py").is_file():
    sys.exit("error: the benchmark runs the package sources under %s, "
             "which are missing" % SRC)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import check  # noqa: E402
import corpus  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
from ncconvex import cli  # noqa: E402

MIN_CALLS = 100      # so that at least 10 calls lie beyond p90
SETUP_SAMPLES = 9
# Seconds of one reference() on the machine the baseline was taken on
# (2 shared vCPUs of an Intel Xeon); see speed_scale
REF_S = 0.011
HARD_STOP_S = 90.0   # whole passes overshoot --seconds; never by this much
REPRODUCE_IDS = ("intro-eval", "example-A3", "example-A4")


def reference():
    """Seconds taken by a fixed piece of work like the program's own.

    Small dense linear algebra and dict-of-tuple arithmetic, as in the
    package.  Its code is the benchmark's, so it never changes between
    two commits under comparison; only the machine's speed moves it.
    """
    rng = np.random.default_rng(0)
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(100):
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = m + m.conj().T
        acc += np.linalg.eigvalsh(h)[0]
        acc += np.linalg.svd(m, compute_uv=False)[0]
        acc += np.linalg.inv(h + 30 * np.eye(6))[0, 0].real
        terms = {}
        for k in range(60):
            w = (k % 7, k % 3, k % 5)
            terms[w] = terms.get(w, 0.0) + 0.5 * k
        acc += sum(terms.values())
    return time.perf_counter() - t0


def speed_scale(refs):
    """Factor that turns seconds measured between the reference() times
    `refs` into seconds at the baseline machine's speed.

    The shared host runs everything here up to 1.5 times slower for
    seconds to minutes at a time.  The reference work, run right before
    and right after each measured step, slows with it.
    """
    return REF_S / statistics.mean(refs)


def setup_seconds():
    """Median wall time of a fresh interpreter importing ncconvex.cli.

    Not scaled by reference(): the import runs in a child process, whose
    speed the parent's reference work was found not to follow.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ncconvex.cli"],
                       env=env, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def call(argv, tracer=None):
    """One cli.main call: (exit code or exception, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    if tracer is not None:
        tracer.active = True
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a crash is a failed check, not a stop
        rc = exc
    finally:
        if tracer is not None:
            tracer.active = False
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0


class Client:
    """Passes over the corpus; keeps every call's time, exit and check.

    A call's time is its wall time at the baseline machine's speed,
    scaled by the reference() runs just before and just after it.
    """

    def __init__(self, items):
        self.items = items
        self.times = []
        self.exits = []
        self.failures = []
        self.calls = 0

    def one_pass(self, items=None, tracer=None):
        """Run and then check every input once."""
        items = self.items if items is None else items
        calls = []
        before = reference()
        for item in items:
            rc, out, err, seconds = call(item.argv, tracer)
            after = reference()
            calls.append((item, rc, out, err,
                          seconds * speed_scale((before, after))))
            before = after
        for item, rc, out, err, seconds in calls:
            self.calls += 1
            self.times.append(seconds)
            self.exits.append(rc)
            problems = check.check(item, rc, out, err)
            if problems:
                self.failures.append("%s: %s" % (item.name,
                                                 "; ".join(problems)))

    def warm_up(self):
        """One untimed call, so lazy imports are not billed to a verdict."""
        self.one_pass(self.items[:1])
        self.times, self.exits = [], []

    def passes(self, seconds, min_calls=0, tracer=None, each=None):
        """Whole passes until --seconds are up; the call times of these
        passes."""
        t0 = time.perf_counter()
        n0 = len(self.times)
        while True:
            self.one_pass(tracer=tracer)
            if each is not None:
                each()
            elapsed = time.perf_counter() - t0
            if elapsed >= HARD_STOP_S or (
                    elapsed >= seconds and len(self.times) - n0 >= min_calls):
                return self.times[n0:]


def reproduce_failures():
    failures = []
    for rid in REPRODUCE_IDS:
        rc, out, _, _ = call(["reproduce", rid])
        if rc != 0 or out.strip() != "%s: ok" % rid:
            failures.append("reproduce %s: exit %r %s" % (rid, rc, out[-200:]))
    return failures


def end_to_end(client, times, workload):
    decided = sum(1 for rc in client.exits if rc in (0, 1))
    print("%s: %d timed calls over %d passes of %d inputs"
          % (workload, len(times), len(times) // len(client.items),
             len(client.items)))
    return {
        "setup_s": (setup_seconds(), "s"),
        "verdict_p50_s": (statistics.median(times), "s"),
        "verdict_p90_s": (statistics.quantiles(times, n=10)[-1], "s"),
        "verdicts_per_s": (len(times) / sum(times), "1/s"),
        "decided_share": (decided / len(times), "ratio"),
        "verified_share": (1 - len(client.failures) / attempted(client),
                           "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def per_layer(client, seconds, workload, seed):
    untraced = client.passes(seconds / 2)
    tracer = spans.Tracer()
    tracer.install("ncconvex")
    first, per_pass = [], []

    def collect():
        if not first:
            first.append(list(tracer.spans))
        per_pass.append(layers.pass_metrics(tracer.spans, tracer.linalg))
        tracer.reset()

    try:
        traced = client.passes(seconds / 2, tracer=tracer, each=collect)
    finally:
        tracer.uninstall()
    (OUT / ("trace-%s-%d.json" % (workload, seed))).write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent", "outcome"],
         "spans": first[0]}))
    metrics = layers.combine(per_pass)
    metrics["trace.overhead_ratio"] = (
        sum(untraced) / len(untraced) * len(traced) / sum(traced), "ratio")
    return metrics


def attempted(client):
    return client.calls + len(REPRODUCE_IDS)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        items = corpus.build(args.workload, args.seed, Path(work),
                             SRC / "ncconvex" / "data")
        client = Client(items)
        client.failures += reproduce_failures()
        client.warm_up()
        if args.trace:
            metrics = per_layer(client, args.seconds, args.workload,
                                args.seed)
        else:
            times = client.passes(args.seconds, min_calls=MIN_CALLS)
            metrics = end_to_end(client, times, args.workload)
    for line in client.failures:
        print("FAILED %s" % line, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print("%-44s %.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": not client.failures,
        "attempted": attempted(client),
        "failed": len(client.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
