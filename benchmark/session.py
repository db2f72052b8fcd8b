"""
One benchmark session in a fresh interpreter.

    python3 benchmark/session.py < request.json     # run a session
    python3 benchmark/session.py --probe            # import only, for set-up time

The session imports garside_census from the checkout's src/ and runs the
request's argv lists one at a time through ``garside_census.cli.main``,
with stdout captured.  The request is a JSON object on stdin with keys
``ops`` (list of argv lists), ``trace`` (bool), ``layers`` (per-layer
metric names) and ``spans_path``.  The result is one JSON object on
stdout.  ``ready`` is the CLOCK_MONOTONIC time at which the CLI was
imported; the parent subtracts its own launch time from it.

Host speed.  On a shared host the same session runs up to ~1.5x slower
for seconds or minutes at a time, whatever the program does.  So each
process also times a fixed pure-Python loop (``reference``): five times
right after import, and in untraced sessions every SAMPLE_EVERY_S from a
SIGALRM handler while the ops run (about 3% extra time, not counted).  ``RefClock`` turns raw time into
reference seconds, scaling each stretch by REF_NOMINAL_S over the median
of the last five samples, and stands still while the loop itself runs.
Raw times, with the loop's own time taken out, are reported beside them.
"""
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
from garside_census import cli  # noqa: E402

READY = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402

REF_NOMINAL_S = 0.003   # the reference loop's time on that VM in its fast phases
SAMPLE_EVERY_S = 0.1
WINDOW = 5


def reference() -> int:
    # Small tuples, frozensets and dict churn, like the package's own inner
    # loops: on a shared 2-vCPU VM this tracked the host's slow phases far
    # better (spread of program time over loop time 0.04, against 0.19)
    # than a loop of integer arithmetic.
    table = {}
    for i in range(6_000):
        key = (i & 7, i & 15, i % 11)
        table[key] = frozenset(key)
        if len(table) > 500:
            table.clear()
    return len(table)


def time_reference() -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def speed_factor(samples) -> float:
    return REF_NOMINAL_S / statistics.median(samples)


class RefClock:
    """A clock in reference seconds, advanced at the host speed last sampled."""

    def __init__(self, samples: list[float]):
        self.samples = list(samples)
        self.spent = 0.0  # raw seconds spent in the reference loop
        # (raw base, reference base, factor) is replaced as one tuple, so a
        # sample taken in the middle of now() cannot tear it.
        self.state = (time.perf_counter(), 0.0, speed_factor(self.samples[-WINDOW:]))

    def now(self) -> float:
        raw, ref, factor = self.state
        return ref + (time.perf_counter() - raw) * factor

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        raw, ref, factor = self.state
        ref += (t0 - raw) * factor
        reference()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += t1 - t0
        self.state = (t1, ref, speed_factor(self.samples[-WINDOW:]))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _run_op(argv):
    buf = io.StringIO()
    error = None
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 2)
    except Exception as exc:  # a raising op is a failed op, not a harness crash
        code, error = None, f"{type(exc).__name__}: {exc}"
    return code, buf.getvalue(), error


def main() -> int:
    start_samples = [time_reference() for _ in range(WINDOW)]
    setup_factor = speed_factor(start_samples)
    if sys.argv[1:] == ["--probe"]:
        sys.stdout.write(json.dumps({"ready": READY, "setup_factor": setup_factor}))
        return 0
    req = json.load(sys.stdin)
    ops = req["ops"]
    tracer = clock = None
    if req["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    else:
        clock = RefClock(start_samples)
        clock.start()

    raw_latencies, ref_latencies, outcomes = [], [], []
    for i, argv in enumerate(ops):
        if tracer is not None:
            t0 = time.perf_counter()
            outcomes.append(tracer.root(i, _run_op, argv))
            raw_latencies.append(time.perf_counter() - t0)
            continue
        r0, spent0, t0 = clock.now(), clock.spent, time.perf_counter()
        outcomes.append(_run_op(argv))
        t1 = time.perf_counter()
        ref_latencies.append(clock.now() - r0)
        raw_latencies.append(t1 - t0 - (clock.spent - spent0))
    if clock is not None:
        clock.stop()

    result = {
        "ready": READY,
        "setup_factor": setup_factor,
        "raw_latencies_s": raw_latencies,
        "ref_latencies_s": ref_latencies,
        "speed_samples_s": clock.samples if clock else start_samples,
        "exits": [code for code, _, _ in outcomes],
        "digests": [hashlib.sha256(out.encode()).hexdigest()[:16] for _, out, _ in outcomes],
        "stdout_tail": [out[-200:] for _, out, _ in outcomes],
        "errors": [err for _, _, err in outcomes],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "inputs_sha256": hashlib.sha256(json.dumps(ops, separators=(",", ":")).encode()).hexdigest(),
    }
    if tracer is not None:
        tracer.restore()
        result["restored"] = tracer.restored()
        result["layers"] = tracer.metrics(req["layers"])
        tracer.write_spans(req["spans_path"])
    sys.stdout.write(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
