"""
Record the expected stdout digest and exit code of every op the workloads
can generate, by running each through ``garside_census.cli.main`` of the
checkout's src/.  Run it once at the commit whose outputs are taken as
correct, and commit the file it writes:

    python3 benchmark/record.py            # writes benchmark/expected.tsv

Each line of expected.tsv is ``<op key> <exit code> <stdout digest>``,
where the key and digest are the first 16 hex digits of SHA-256 over
json.dumps(argv) and over stdout.
"""
import contextlib
import hashlib
import io
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from garside_census import cli  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    ops = workloads.all_pool_ops()
    lines = {}
    start = time.monotonic()
    for k, argv in enumerate(ops):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        lines[workloads.op_key(argv)] = f"{code} {hashlib.sha256(buf.getvalue().encode()).hexdigest()[:16]}"
        if k % 500 == 0:
            print(f"{k}/{len(ops)} ops, {time.monotonic() - start:.0f} s", file=sys.stderr)
    with open(os.path.join(HERE, "expected.tsv"), "w", encoding="utf-8") as fh:
        for key in sorted(lines):
            fh.write(f"{key} {lines[key]}\n")
    print(f"recorded {len(lines)} ops", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
