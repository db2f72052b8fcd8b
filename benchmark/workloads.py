"""
Seeded workloads of the garside-census benchmark.

A workload turns a seed into a session: a list of argv lists for the
``garside-census`` command.  The program sees only these argv lists.

Every op a session can contain comes from a fixed pool (the pools do not
depend on the seed), so that ``expected.tsv`` can hold a recorded stdout
digest for each of them.  The seed picks ops from the pools and, except
in crosscheck, their order.  Draws are stratified by strand count, degree, --last kind and
word length, so the amount of work in a session barely moves with the
seed while the inputs themselves change.
"""
from __future__ import annotations

import hashlib
import json
import random

NAMES = ("census", "spectrum", "words", "crosscheck")

# One line per workload on why it is in the benchmark; BENCHMARK.json
# carries the same lines.
WHY = {
    "census": "table, verify and ~120 point counts: rebuilding Mbar and re-iterating from d=1 dominate (one counting path shows here)",
    "spectrum": "conjecture --nmax 12: Mbar at n=11,12, Berkowitz, Fraction gcd and rho_max dominate; words and iteration idle",
    "words": "100 normalize calls, n=3..10: 80 short (<=40 letters) set p50; 20 long (200-390 letters, rewrite cost ~L^2) set wall and p90",
    "crosscheck": "dp oracle at n=7, Mprime at n=9 and M23 at n=6: the oracle and full-matrix paths, and the memory-heavy case",
}

CENSUS_NMAX = 10
CENSUS_DMAX = 30
CENSUS_PER_N = 13
WORDS_NMIN, WORDS_NMAX = 3, 10
SHORT_PER_N = 10       # one per length band, from a pool of SHORT_MAX words, one per length
SHORT_MAX = 40
LONG_STRATA = 20       # one long word per stratum k: n = 3 + k % 8, 200 + 10k letters
LONG_VARIANTS = 3
LONG_BASE, LONG_STEP = 200, 10
# The seed picks pins and order; the degrees are fixed, since cost grows with d.
ORACLE_N, ORACLE_DS = 7, (4, 5, 6, 7)
MPRIME_N, MPRIME_DS = 9, (3, 7, 11)
M23_N, M23_DS = 6, (2, 5, 8)


def fmt_perm(p) -> str:
    return "[" + ",".join(str(v) for v in p) + "]"


def perm_pool(n: int) -> list[tuple[int, ...]]:
    """A fixed handful of permutations per strand count, for --last pins."""
    rng = random.Random(f"perm:{n}")
    found = set()
    for _ in range(4):
        p = list(range(1, n + 1))
        rng.shuffle(p)
        found.add(tuple(p))
    return sorted(found)


def _lasts(n: int) -> list[list[str]]:
    return ([[]] + [["--last", "delta", str(r)] for r in range(1, n + 1)]
            + [["--last", fmt_perm(p)] for p in perm_pool(n)])


def census_pool(n: int) -> list[list[str]]:
    return [["count", str(n), str(d)] + last
            for d in range(1, CENSUS_DMAX + 1) for last in _lasts(n)]


def _word(rng: random.Random, n: int, length: int, delta_rate: float) -> str:
    """Tokens s<i>, bare <i>, s<i>^2 and D^k, exactly ``length`` letters in all."""
    dlen = n * (n - 1) // 2
    tokens, letters = [], 0
    while letters < length:
        room = length - letters
        if rng.random() < delta_rate and dlen <= room:
            e = rng.randint(1, max(1, min(3, room // dlen)))
            tokens.append("D" if e == 1 else f"D^{e}")
            letters += e * dlen
            continue
        i = rng.randint(1, n - 1)
        r = rng.random()
        if r < 0.1 and room >= 2:
            tokens.append(f"s{i}^2")
            letters += 2
        else:
            tokens.append(str(i) if r < 0.2 else f"s{i}")
            letters += 1
    return " ".join(tokens)


def normalize_op(n: int, word: str) -> list[str]:
    return ["normalize", "-n", str(n), word]


def short_pool(n: int) -> list[list[str]]:
    return [normalize_op(n, _word(random.Random(f"short:{n}:{length}"), n, length, 0.1))
            for length in range(1, SHORT_MAX + 1)]


def long_pool(k: int) -> list[list[str]]:
    n = WORDS_NMIN + k % (WORDS_NMAX - WORDS_NMIN + 1)
    length = LONG_BASE + LONG_STEP * k
    return [normalize_op(n, _word(random.Random(f"long:{k}:{v}"), n, length, 0.02))
            for v in range(LONG_VARIANTS)]


def _pin(rng: random.Random, n: int, delta: bool) -> list[str]:
    if delta:
        return ["--last", "delta", str(rng.randint(1, n))]
    return ["--last", fmt_perm(rng.choice(perm_pool(n)))]


def _band(k: int, bands: int, top: int) -> tuple[int, int]:
    """The k-th of ``bands`` near-equal bands of 1..top, so draws cover the range evenly."""
    return k * top // bands + 1, (k + 1) * top // bands


def _spread_kinds(rng: random.Random, count: int) -> list[str]:
    """--last kinds in near-equal shares: none, delta R or a permutation."""
    kinds = [("none", "delta", "perm")[k % 3] for k in range(count)]
    rng.shuffle(kinds)
    return kinds


def oracle_op(n: int, d: int, last: list[str]) -> list[str]:
    return ["oracle", str(n), str(d), "--engine", "dp"] + last


def via_op(n: int, d: int, perm, via: str) -> list[str]:
    return ["count", str(n), str(d), "--last", fmt_perm(perm), "--via", via]


def crosscheck_pool() -> list[list[str]]:
    pins = _lasts(ORACLE_N)[1:]
    ops = [oracle_op(ORACLE_N, d, last) for d in ORACLE_DS for last in pins]
    ops += [via_op(MPRIME_N, d, p, "Mprime") for d in MPRIME_DS for p in perm_pool(MPRIME_N)]
    ops += [via_op(M23_N, d, p, "M23") for d in M23_DS for p in perm_pool(M23_N)]
    return ops


TABLE_OP = ["table", "--nmax", "8", "--dmax", "20"]
VERIFY_OP = ["verify"]
CONJECTURE_OP = ["conjecture", "--nmax", "12"]


def generate(name: str, seed: int) -> list[list[str]]:
    """The session of workload ``name`` for ``seed``: a list of argv lists."""
    rng = random.Random(f"{name}:{seed}")
    if name == "census":
        ops = [TABLE_OP, VERIFY_OP]
        for n in range(2, CENSUS_NMAX + 1):
            kinds = _spread_kinds(rng, CENSUS_PER_N)
            for k, kind in enumerate(kinds):
                d = rng.randint(*_band(k, CENSUS_PER_N, CENSUS_DMAX))
                last = [] if kind == "none" else _pin(rng, n, kind == "delta")
                ops.append(["count", str(n), str(d)] + last)
    elif name == "spectrum":
        return [CONJECTURE_OP]
    elif name == "words":
        ops = []
        for n in range(WORDS_NMIN, WORDS_NMAX + 1):
            pool = short_pool(n)
            ops += [pool[rng.randint(*_band(k, SHORT_PER_N, SHORT_MAX)) - 1] for k in range(SHORT_PER_N)]
        ops += [rng.choice(long_pool(k)) for k in range(LONG_STRATA)]
    elif name == "crosscheck":
        kinds = [True, True, False, False]
        rng.shuffle(kinds)
        ops = [oracle_op(ORACLE_N, d, _pin(rng, ORACLE_N, delta)) for d, delta in zip(ORACLE_DS, kinds)]
        ops += [via_op(MPRIME_N, d, rng.choice(perm_pool(MPRIME_N)), "Mprime") for d in MPRIME_DS]
        ops += [via_op(M23_N, d, rng.choice(perm_pool(M23_N)), "M23") for d in M23_DS]
        # Kept in this order: with only ten ops, which op of a kind runs
        # first and pays the cold caches would otherwise move p50 and p90.
        return ops
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(ops)
    return ops


SMOKE_TABLE_OP = ["table", "--nmax", "4", "--dmax", "6"]
SMOKE_VERIFY_OP = ["verify", "--nmax", "4", "--dmax", "6"]
SMOKE_CONJECTURE_OP = ["conjecture", "--nmax", "6"]


def smoke(name: str, seed: int) -> list[list[str]]:
    """Tiny sessions that run each workload's commands in well under a second."""
    rng = random.Random(f"smoke:{name}:{seed}")
    if name == "census":
        ops = [SMOKE_TABLE_OP, SMOKE_VERIFY_OP]
        for n in range(2, 6):
            ops += rng.sample(census_pool(n), 2)
        return ops
    if name == "spectrum":
        return [SMOKE_CONJECTURE_OP]
    if name == "words":
        return [rng.choice(short_pool(n)) for n in range(3, 9)]
    if name == "crosscheck":
        return SMOKE_CROSSCHECK
    raise ValueError(f"unknown workload {name!r}")


SMOKE_CROSSCHECK = [
    oracle_op(5, 3, ["--last", "delta", "2"]),
    oracle_op(5, 4, ["--last", fmt_perm(perm_pool(5)[0])]),
    via_op(5, 3, perm_pool(5)[1], "Mprime"),
    via_op(4, 3, perm_pool(4)[0], "M23"),
]


def all_pool_ops() -> list[list[str]]:
    """Every op that generate() or smoke() can return, for any seed."""
    ops = [TABLE_OP, VERIFY_OP, CONJECTURE_OP, SMOKE_TABLE_OP, SMOKE_VERIFY_OP, SMOKE_CONJECTURE_OP]
    for n in range(2, CENSUS_NMAX + 1):
        ops += census_pool(n)
    for n in range(WORDS_NMIN, WORDS_NMAX + 1):
        ops += short_pool(n)
    for k in range(LONG_STRATA):
        ops += long_pool(k)
    return ops + crosscheck_pool() + SMOKE_CROSSCHECK


def op_key(argv: list[str]) -> str:
    return hashlib.sha256(json.dumps(argv).encode()).hexdigest()[:16]


def inputs_sha256(ops: list[list[str]]) -> str:
    return hashlib.sha256(json.dumps(ops, separators=(",", ":")).encode()).hexdigest()


def matching_count(argv: list[str]) -> list[str] | None:
    """For a dp-oracle op, the ``count`` op on the matrix pipeline that must print the same number."""
    if argv[0] != "oracle":
        return None
    last = argv[argv.index("--last"):] if "--last" in argv else []
    return ["count", argv[1], argv[2]] + last
