"""The explicit list of compositions, the reference the inductive sums are checked against."""


def compositions(n):
    """All 2^(n-1) sequences of positive integers summing to n, for n >= 1."""
    out = []

    def extend(prefix, rest):
        if rest == 0:
            out.append(prefix)
            return
        for p in range(1, rest + 1):
            extend(prefix + (p,), rest - p)

    extend((), n)
    return out
