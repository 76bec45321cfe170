"""The per-n seed-curve certificate, kept as a test oracle.

It computes every stage of the certificate of C_n = Q(X0^n, X1^n, X2^n)
afresh for the given n, on concrete polynomials: the conic facts, the
pulled-back curve, the Euclid step on t^n - 1, the Jacobian of the power
map and the local normal form y^2 - 4x^n.  picardlab proves the same stages
once for symbolic n (curves.seed_proof) and reads them at n; the tests
compare the two stage by stage.
"""

from fractions import Fraction

from picardlab.curves import SeedCertificate, Stage, _conic, tangent_cone_avoids
from picardlab.polynomials import Poly, substitute
from picardlab.singularities import A

_X = Poly.variable(0)
_Y = Poly.variable(1)


def power_pullback(f: Poly, powers: tuple[int, ...]) -> Poly:
    """f at (x0^p0, x1^p1, ...): every exponent scaled, no arithmetic."""
    return Poly({tuple(k * p for k, p in zip(e, powers)): c for e, c in f.coeffs.items()},
                f.nvars)


def normal_form_type(f: Poly):
    """A_{k-1} when f is a*y^2 + c*x^k with a, c nonzero and k >= 2, the
    normal form of that germ; None for any other polynomial."""
    others = [e for e in f.coeffs if e != (0, 2)]
    if (0, 2) not in f.coeffs or len(others) != 1:
        return None
    k, j = others[0]
    return A(k - 1) if j == 0 and k >= 2 else None


def seed_certificate(n: int) -> SeedCertificate:
    """Every stage of the seed curve's certificate, computed at this n."""
    x0, x1, x2 = (Poly.variable(i, 3) for i in range(3))
    q = _conic(x0, x1, x2)
    (a, b, c), (d, e, f), (g, h, i) = (
        [q.partial(r).partial(s).constant_term for s in range(3)] for r in range(3)
    )
    hessian_determinant = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    vertices = tuple(q(*vertex) for vertex in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    on_lines = tuple(q.restrict(index) for index in range(3))
    tangent = all(line == (_X - _Y) ** 2 for line in on_lines)
    q_local = _conic(1, 1 - _Y, _X)
    local_ok = q_local == (_X + _Y) ** 2 - 4 * _X
    completed = substitute(q_local, _X, _Y - _X)
    symmetric = _conic(x1, x0, x2) == q and _conic(x0, x2, x1) == q

    curve = power_pullback(q, (n, n, n))
    t_root = power_pullback(_X, (n, 1)) - 1
    remainder = t_root - Poly({(1, 0): Fraction(1, n)}) * t_root.partial(0)
    points_per_line = t_root.degree()
    power_map = [power_pullback(Poly.variable(i, 3), (n, n, n)) for i in range(3)]
    jacobian = power_map[0].partial(0) * power_map[1].partial(1) * power_map[2].partial(2)
    torus = curve.exponents_divisible_by(n)
    normal_form = power_pullback(completed, (n, 1))
    singularity = normal_form_type(normal_form)
    transversal = tangent_cone_avoids(normal_form, (0, 1))

    stages = (
        Stage("smooth conic", (("determinant", hessian_determinant),),
              hessian_determinant != 0, "Hessian determinant of Q = {determinant}"),
        Stage("vertices", (("values", vertices),), all(vertices),
              "Q = C = {values} at (1:0:0), (0:1:0), (0:0:1)"),
        Stage("tangency",
              (("conic", on_lines[2]), ("curve", power_pullback(on_lines[2], (n, n))),
               ("remainder", remainder), ("points", points_per_line)),
              tangent and remainder.degree() == 0,
              "Q = {conic} and C = {curve} on each coordinate line; "
              "t^n - 1 - (t/n)*(n*t^(n-1)) = {remainder}, so {points} contact points per line"),
        Stage("etale off the triangle", (("jacobian", jacobian), ("torus", torus)),
              list(jacobian.coeffs) == [(n - 1,) * 3] and torus,
              "Jacobian determinant of the power map = {jacobian}; "
              "torus exponent divisibility: {torus}"),
        Stage("local normal form",
              (("conic", q_local), ("completed", completed), ("curve", normal_form),
               ("type", singularity), ("transversal", transversal), ("symmetric", symmetric)),
              local_ok and singularity is not None and transversal and symmetric,
              "Q(1, 1 - y, x) = {conic} at (1:1:0), {completed} after y -> y - x; "
              "with x -> x^n the curve is {curve} -> {type}, transversal: {transversal}; "
              "Q symmetric: {symmetric}"),
    )
    return SeedCertificate(n, stages, singularity, points_per_line)
