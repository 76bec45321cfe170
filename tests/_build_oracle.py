"""The per-member build, kept as a test oracle.

It builds and certifies one family member from scratch, as the package did
before its families were proved once per class: every stage runs on this
member's numbers, through the record-level functions of surfaces, covers
and singularities (each with its own checks), and the three verdicts are
computed, not read off a proof.  picardlab proves each class once
(constructions.family_proof) and makes each member's records from its
numbers; the tests compare the two reports field by field and as text.
"""

from picardlab.constructions import (
    _ORIGINS,
    DoubleBranchPoint,
    ConstructionReport,
    ParameterError,
    THEOREMS,
)
from picardlab.covers import (
    BidoubleCoverData,
    CoverDataError,
    DoubleCoverData,
    bidouble_invariants,
    canonical_ample_check,
    cyclic_pullback_class,
    double_invariants,
)
from picardlab.curves import seed_certificate
from picardlab.singularities import (
    BidoubleBranchPoint,
    CyclicBranchPoint,
    SingInventory,
    picard_lower_bound,
    transport_bidouble,
    transport_cyclic,
    transport_double,
    union_type,
)
from picardlab.surfaces import DivisorClass, compose, half, hirzebruch, intersect, plus, projective_plane


def _halve(base, name, u):
    if [c for c in u if c % 2]:
        raise ParameterError(f"validate: {name} = {DivisorClass(base, u)} is not twice a class")
    return tuple(map(half, u))


def build(theorem, *, n, m=None):
    """The report of one member, every stage computed at its parameters."""
    family = THEOREMS[theorem]
    values = [{"m": m, "n": n}[p.name] for p in family.params]
    family.check(*values)
    params = tuple((p.name, v) for p, v in zip(family.params, values))
    certificate = seed_certificate(n)
    sing, per_line = certificate.singularity, certificate.points_per_line
    rows = family.pipeline(1 if m is None else m)
    if m is None:
        base = projective_plane()
        line = third = base.divisor(1)
        section = base.zero()
        on_line = on_third = (sing, per_line)
    else:
        base = hirzebruch(m)
        line, section = base.divisor(0, 1), base.divisor(1, 0)
        third = cyclic_pullback_class(hirzebruch(1).divisor(1, 1), m)
        (on_line,) = transport_cyclic((CyclicBranchPoint(sing, True, count=per_line),), m).entries
        (on_third,) = transport_cyclic((CyclicBranchPoint(sing, count=per_line),), m).entries
    curve = 2 * n * third
    for name, d1, d2, expected in (
        ("line.curve", line, curve, 2 * on_line[1]),
        ("third.curve", third, curve, 2 * on_third[1]),
        ("section.curve", section, curve, 0),
        ("section.third", section, third, 0),
    ):
        value = intersect(d1, d2)
        if value != expected:
            raise ParameterError(f"transport: {name} = {value}, expected {expected}")

    components = (line.coeffs, section.coeffs, third.coeffs, curve.coeffs)
    branch = [compose(mults, components) for mults in rows]
    bidouble = len(branch) == 3
    if bidouble:
        B1, B2, B3 = branch
        L1, L2 = _halve(base, "B2 + B3", plus(B2, B3)), _halve(base, "B1 + B3", plus(B1, B3))
        record, classes = BidoubleCoverData, (L1, L2, compose((1, 1, -1), (L1, L2, B3)), *branch)
    else:
        record, classes = DoubleCoverData, (_halve(base, "B", branch[0]), branch[0])
    data = record(base, *[DivisorClass(base, c) for c in classes])

    carrier = max(i for i, mults in enumerate(rows, 1) if mults[3])
    joined, met, kept = [], [], []
    for (point_type, count), (column, lines) in zip((on_line, on_third), ((0, 2), (2, 1))):
        holders = [i for i, mults in enumerate(rows, 1) for _ in range(mults[column])]
        if holders and carrier not in holders:
            met += [BidoubleBranchPoint(carrier, point_type, meets=i, count=count) for i in holders]
            continue
        placement = "join" if holders else "keep"
        if placement == "join":
            point_type, batch = union_type(point_type, 1), joined
        else:
            batch = kept
        if bidouble:
            batch.append(BidoubleBranchPoint(carrier, point_type, count=lines * count))
        else:
            batch.append(DoubleBranchPoint(point_type, lines * count, _ORIGINS[placement]))
    points = joined + met + kept
    branch_inventory = SingInventory(tuple(
        (p.branch_type if bidouble else p.sing, p.count) for p in points
    ))
    if bidouble:
        cover_inventory, invariants_of = transport_bidouble(points), bidouble_invariants
    else:
        cover_inventory, invariants_of = transport_double(branch_inventory), double_invariants
    try:
        invariants = invariants_of(data)
    except CoverDataError as exc:
        raise ParameterError(f"assembled building data is invalid: {exc}") from None
    lower = picard_lower_bound(cover_inventory, base.rank)
    closed_form = family.pair(*values)
    return ConstructionReport(
        theorem=family.theorem,
        params=params,
        base=base,
        building_data=data,
        branch_points=tuple(points),
        branch_inventory=branch_inventory,
        cover_inventory=cover_inventory,
        computed=invariants,
        closed_form=closed_form,
        ample=canonical_ample_check(data),
        n_indep=base.rank,
        picard_lower=lower,
        h11=invariants.h11,
        maximal=lower == invariants.h11,
        match=(invariants.K2, invariants.chi) == closed_form,
    )
