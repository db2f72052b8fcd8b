"""
The garside-census benchmark.

    python3 benchmark/run.py --workload census --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --workload all --seed 1      # every workload in turn
    python3 benchmark/run.py --smoke                      # tiny sessions, self-check

A run repeats one workload's session, each time in a fresh interpreter
(session.py), closed loop, one process at a time, until the next session
would end after ``--seconds`` (at least two sessions).  Every session
starts with empty caches, as a CLI user does.  Before them the run starts
PROBES interpreters that only import the CLI, for set-up time.

With ``--trace 0`` every session is untraced and the run prints the
end-to-end metrics of BENCHMARK.json: medians over the run's sessions,
and op latency percentiles over all ops of the run.  With ``--trace 1``
sessions alternate untraced and traced, and the run prints the per-layer
metrics (median over traced sessions) and ``trace.overhead_s``, the
traced minus the untraced median raw wall time.

Every op's exit code and stdout digest are checked against expected.tsv
(written by record.py), and the run checks anchors that do not depend on
that file: three values from the README, and each dp-oracle answer against
``count`` on the matrix pipeline.  The last line of stdout is one JSON
object with keys correct, attempted, failed and metrics.  A record with
every raw sample, the machine and the inputs' hash goes to benchmark/runs/.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SESSION = os.path.join(HERE, "session.py")
RUNS_DIR = os.path.join(HERE, "runs")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

PROBES = 5
MIN_SESSIONS = 2
HARD_STOP_S = 120  # start no session after this, so a run ends well within 180 s

README_ANCHORS = (
    (["count", "5", "4", "--last", "delta", "2"], "5260\n"),
    (["count", "4", "5"], "45252\n"),
    (["charpoly", "4", "--raw"], "coefficients (constant first): -6 27 -44 32 -10 1\n"),
)


class HarnessError(RuntimeError):
    pass


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_expected() -> dict[str, tuple[int, str]]:
    out = {}
    with open(os.path.join(HERE, "expected.tsv"), encoding="utf-8") as fh:
        for line in fh:
            key, code, digest = line.split()
            out[key] = (int(code), digest)
    return out


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("GC_THREADS", None)
    return env


def _spawn(args: list[str], stdin: str | None = None) -> dict:
    launched = time.monotonic()
    proc = subprocess.run([sys.executable, SESSION] + args, input=stdin, capture_output=True,
                          text=True, env=_child_env(), cwd=ROOT)
    if proc.returncode != 0:
        raise HarnessError(f"session exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout)
    result["process_s"] = time.monotonic() - launched
    result["raw_setup_s"] = result["ready"] - launched
    result["setup_s"] = result["raw_setup_s"] * result["setup_factor"]
    return result


def probe_setup() -> dict:
    return _spawn(["--probe"])


def run_session(ops, traced: bool, layers: list[str], spans_path: str | None) -> dict:
    request = json.dumps({"ops": ops, "trace": traced, "layers": layers, "spans_path": spans_path})
    result = _spawn([], request)
    result["traced"] = traced
    result["raw_wall_s"] = sum(result["raw_latencies_s"])
    result["wall_s"] = sum(result["ref_latencies_s"]) if not traced else None
    return result


def measure(ops, seconds: float, trace: bool, layers: list[str], tag: str) -> list[dict]:
    sessions = []
    start = time.monotonic()
    while True:
        traced = trace and len(sessions) % 2 == 1
        spans = os.path.join(RUNS_DIR, f"{tag}-spans{len(sessions)}.jsonl.gz") if traced else None
        sessions.append(run_session(ops, traced, layers, spans))
        if len(sessions) < MIN_SESSIONS:
            continue
        elapsed = time.monotonic() - start
        next_s = statistics.median(s["process_s"] for s in sessions)
        if elapsed > HARD_STOP_S or elapsed + next_s > seconds:
            return sessions


def check_ops(ops, sessions, expected) -> list[dict]:
    failures = []
    for k, s in enumerate(sessions):
        for i, argv in enumerate(ops):
            want = expected.get(workloads.op_key(argv))
            if s["errors"][i] is not None:
                why = s["errors"][i]
            elif want is None:
                why = "no recorded digest for this op"
            elif s["exits"][i] != want[0]:
                why = f"exit {s['exits'][i]}, expected {want[0]}"
            elif s["digests"][i] != want[1]:
                why = f"stdout digest {s['digests'][i]}, expected {want[1]}"
            else:
                continue
            failures.append({"session": k, "op": i, "argv": argv[:6], "why": why,
                             "stdout_tail": s["stdout_tail"][i]})
    return failures


def check_anchors(ops, sessions) -> list[dict]:
    """README values and dp oracle against count, evaluated in this process."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from garside_census import cli

    def call(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        return code, buf.getvalue()

    anchors = []
    for argv, want in README_ANCHORS:
        code, out = call(argv)
        anchors.append({"argv": argv, "ok": code == 0 and out == want, "stdout": out})
    for i, argv in enumerate(ops):
        count_argv = workloads.matching_count(argv)
        if count_argv is None:
            continue
        code, out = call(count_argv)
        ok = code == 0 and all(s["digests"][i] == _digest(out) for s in sessions)
        anchors.append({"argv": argv, "against": count_argv, "ok": ok, "stdout": out})
    return anchors


def p50_p90(values) -> tuple[float, float]:
    """Median and 90th percentile, interpolated between order statistics.

    Interpolation matters where few ops cluster by cost (crosscheck has
    ten): a nearest-rank median jumps between clusters from run to run.
    """
    if len(values) == 1:
        return values[0], values[0]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[4], deciles[8]


def end_to_end(sessions, probes) -> dict[str, float]:
    """Medians over the untraced sessions, and op latency percentiles over
    all their ops; times in reference seconds (see session.py)."""
    plain = [s for s in sessions if not s["traced"]]
    p50, p90 = p50_p90([x for s in plain for x in s["ref_latencies_s"]])
    return {
        "wall_s": statistics.median(s["wall_s"] for s in plain),
        "setup_s": statistics.median(s["setup_s"] for s in probes + sessions),
        "op_p50_ms": 1000 * p50,
        "op_p90_ms": 1000 * p90,
        "peak_rss_mib": statistics.median(s["peak_rss_mib"] for s in plain),
    }


def per_layer(sessions, names) -> dict[str, float]:
    """Medians over the traced sessions; the overhead compares raw wall times."""
    traced = [s for s in sessions if s["traced"]]
    plain = [s for s in sessions if not s["traced"]]
    out = {name: statistics.median(s["layers"][name] for s in traced)
           for name in names if name != "trace.overhead_s"}
    out["trace.overhead_s"] = (statistics.median(s["raw_wall_s"] for s in traced)
                               - statistics.median(s["raw_wall_s"] for s in plain))
    return {name: out[name] for name in names}


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
    return proc.stdout.strip() or None


def _src_sha256() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "garside_census")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def run_workload(name, seed, seconds, trace, spec, expected, smoke=False) -> tuple[dict, dict]:
    """One run: returns the result line and the full record."""
    ops = workloads.smoke(name, seed) if smoke else workloads.generate(name, seed)
    layers = [m["name"] for m in spec["per_layer"]]
    session_layers = [m for m in layers if m != "trace.overhead_s"]
    tag = f"{name}-seed{seed}-trace{int(trace)}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    os.makedirs(RUNS_DIR, exist_ok=True)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "inputs_sha256": workloads.inputs_sha256(ops), "ops_per_session": len(ops),
        "python": sys.version, "platform": platform.platform(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
        "loadavg_start": os.getloadavg(), "commit": _commit(), "src_sha256": _src_sha256(),
    }
    probes = [probe_setup() for _ in range(1 if smoke else PROBES)]
    sessions = measure(ops, 0 if smoke else seconds, trace, session_layers, tag)
    failures = check_ops(ops, sessions, expected)
    anchors = check_anchors(ops, sessions)
    same_inputs = all(s["inputs_sha256"] == record["inputs_sha256"] for s in sessions)
    restored = all(s.get("restored", True) for s in sessions)
    attempted = len(ops) * len(sessions)
    e2e = end_to_end(sessions, probes)
    layer = per_layer(sessions, layers) if trace else None
    record.update({
        "loadavg_end": os.getloadavg(),
        "setup_probes": [{k: p[k] for k in ("setup_s", "raw_setup_s", "setup_factor")} for p in probes],
        "sessions": [{k: s.get(k) for k in ("traced", "setup_s", "raw_setup_s", "setup_factor", "process_s",
                                            "wall_s", "raw_wall_s", "ref_latencies_s", "raw_latencies_s",
                                            "speed_samples_s", "peak_rss_mib", "exits", "restored", "layers")}
                     for s in sessions],
        "failures": failures, "anchors": anchors, "same_inputs": same_inputs,
        "wrappers_restored": restored, "attempted": attempted, "failed": len(failures),
        "failed_frac": len(failures) / attempted, "end_to_end": e2e, "per_layer": layer,
    })
    record_path = os.path.join(RUNS_DIR, f"{tag}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    record["record_path"] = os.path.relpath(record_path, ROOT)

    chosen = spec["per_layer"] if trace else spec["end_to_end"]
    values = layer if trace else e2e
    result = {
        "correct": not failures and all(a["ok"] for a in anchors) and same_inputs and restored,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen},
    }
    return result, record


def print_run(result: dict, record: dict) -> None:
    traced = sum(1 for s in record["sessions"] if s["traced"])
    print(f"workload {record['workload']}  seed {record['seed']}  sessions {len(record['sessions'])}"
          f" ({traced} traced)  ops/session {record['ops_per_session']}"
          f"  inputs_sha256 {record['inputs_sha256'][:16]}")
    for name, m in result["metrics"].items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':<36} {record['failed_frac']:>14.6g} ({record['failed']}/{record['attempted']} ops)")
    bad = [a["argv"] for a in record["anchors"] if not a["ok"]]
    print(f"  anchors {len(record['anchors']) - len(bad)}/{len(record['anchors'])} ok"
          f"  wrappers restored: {record['wrappers_restored']}  record: {record['record_path']}")
    for f in record["failures"][:5]:
        print(f"  FAILED session {f['session']} op {f['op']} {f['argv']}: {f['why']}")
    for argv in bad[:5]:
        print(f"  ANCHOR MISMATCH {argv}")


def smoke_check(result: dict, record: dict, spec: dict) -> list[str]:
    problems = []
    if not result["correct"]:
        problems.append("outputs, anchors or wrapper restore failed")
    for name in [m["name"] for m in spec["end_to_end"]]:
        if not record["end_to_end"][name] > 0:
            problems.append(f"end-to-end {name} is not positive")
    for name in [m["name"] for m in spec["per_layer"]]:
        if not isinstance(record["per_layer"].get(name), (int, float)):
            problems.append(f"per-layer {name} missing")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="garside-census benchmark")
    parser.add_argument("--workload", default="all", choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sessions, untraced and traced; exit 1 on any problem")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "garside_census", "cli.py")):
        print(f"error: no garside_census package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    expected = load_expected()
    names = workloads.NAMES if args.workload == "all" else (args.workload,)

    problems = []
    for name in names:
        try:
            result, record = run_workload(name, args.seed, seconds, args.smoke or bool(args.trace),
                                          spec, expected, smoke=args.smoke)
        except HarnessError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print_run(result, record)
        if args.smoke:
            found = smoke_check(result, record, spec)
            problems += [f"{name}: {p}" for p in found]
            print(f"smoke {name}: {'ok' if not found else 'FAILED: ' + '; '.join(found)}")
        else:
            print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
