"""Reference kernel that measures the host's current speed.

A fixed amount of work of the kinds picardlab does, with no picardlab code:
exact Fraction and big-integer arithmetic on sparse polynomials held as dicts,
and a list of many small tuples like the geography pairs.  run.py times it as
a child process, the same way as a picardlab invocation, right after every
set-up sample, and scales each timing by run.REFERENCE_S over the kernel's
time measured around it, to read as on a host of the reference speed.  It
prints DIGEST.

    python3 perfbench/calibrate.py
"""

from fractions import Fraction

DIGEST = 226558014


def kernel() -> int:
    # Products of sparse bivariate polynomials with Fraction coefficients.
    p = {(i, 7 - i): Fraction(i + 1, 3) for i in range(8)}
    q = {(0, 0): Fraction(1, 2), (1, 0): Fraction(-2, 5), (0, 1): Fraction(3, 7),
         (1, 1): Fraction(1, 11)}
    for _ in range(16):
        r = {}
        for (a, b), c in p.items():
            for (d, e), f in q.items():
                key = (a + d, b + e)
                r[key] = r.get(key, 0) + c * f
        p = r
    digest = sum(c.numerator % 1_000_003 for c in p.values())
    # Many small tuples of exact integers, held at once and then scanned.
    pairs = [(4 * n * n - 12 * n + 9, n * n - n + 1) for n in range(2, 250_000)]
    digest += len({k % 4096 for k, _chi in pairs})
    return digest


if __name__ == "__main__":
    print(kernel())
