"""The Fraction polar Newton of classify_ak, kept as a test oracle.

It runs the Newton iteration of the polar branch f_y(x, phi) = 0 on series
of Fraction coefficients and reads k + 1 = ord_x f(x, phi).  picardlab
clears the jet's denominators and scales x instead, so that every step is an
exact integer division; the tests compare both verdicts, and both
JetBoundErrors, on the same jets.
"""

from fractions import Fraction

from picardlab.curves import CorankAtLeastTwo, JetBoundError, Smooth
from picardlab.polynomials import Poly, substitute
from picardlab.singularities import A

_X = Poly.variable(0)
_Y = Poly.variable(1)


def _compose(columns: list, phi: list, m: int) -> list:
    """sum_j columns[j](x) * phi(x)^j modulo x^m by Horner's rule; phi has
    order >= 2, so column j, padded to x^m, counts modulo x^(m - 2j) only."""
    acc: list = []
    for j in reversed(range(min(len(columns), (m + 1) // 2))):
        acc, prev = columns[j][: m - 2 * j], acc
        for i, p in enumerate(phi[: len(acc)]):
            if p:
                for t, a in enumerate(prev[: len(acc) - i]):
                    acc[i + t] += p * a
    return acc


def classify_ak(f: Poly, jet_bound: int):
    """Smooth, A_k or corank >= 2 modulo total degree jet_bound, by Newton
    iteration on Fraction series; JetBoundError as in picardlab."""
    if f.constant_term != 0:
        raise ValueError("the germ must vanish at the origin")
    if jet_bound < 3:
        raise ValueError("jet bound below 3 cannot even see the quadratic part")
    g = f.truncated(jet_bound)
    if g.homogeneous_part(1):
        return Smooth()
    a = g.coefficient((2, 0))
    b = g.coefficient((1, 1))
    c = g.coefficient((0, 2))
    if 4 * a * c - b * b != 0:
        return A(1)
    if not (a or b or c):
        return CorankAtLeastTwo()
    if c == 0:
        g = substitute(g, _Y, _X, trunc=jet_bound)
    elif b != 0:
        g = substitute(g, _X, _Y - Fraction(b, 2 * c) * _X, trunc=jet_bound)

    columns = [[g.coeffs.get((i, j), 0) for i in range(jet_bound - j)] for j in range(jet_bound)]
    fy = [[(j + 1) * v for v in column] for j, column in enumerate(columns[1:])]
    fyy = [[(j + 1) * v for v in column] for j, column in enumerate(fy[1:])]
    phi: list = [0, 0]
    while (known := len(phi)) < jet_bound - 1:
        m = min(2 * known, jet_bound - 1)
        num, den = _compose(fy, phi, m), _compose(fyy, phi, m - known)
        for t in range(known, m):
            step = num[t] + sum(phi[i] * den[t - i] for i in range(known, t))
            phi.append(Fraction(-step, den[0]))
    on_polar = _compose(columns, phi, jet_bound)
    if not any(on_polar):
        raise JetBoundError(f"f(x, phi) on the polar curve vanishes modulo x^{jet_bound}; "
                            "enlarge the jet bound or the germ is degenerate")
    return A(next(t for t, v in enumerate(on_polar) if v) - 1)
