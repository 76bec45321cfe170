"""The record classes: their fields, their slots, and their checks; and the
package's public names.

Every record is a collections.namedtuple subclass.  ConstructionReport's
JSON writer reads the building data's fields in sorted order, and the
golden files pin the field order of every report, so the fields are pinned
here for every record; a new record must be added to the table.
"""

import importlib
import inspect
import pkgutil
from types import ModuleType

import pytest

import picardlab
from picardlab.covers import SurfaceInvariants
from picardlab.geography import GeoPair
from picardlab.singularities import (
    A,
    BidoubleBranchPoint,
    CyclicBranchPoint,
    SingInventory,
    SingType,
)
from picardlab.surfaces import BaseSurface, DivisorClass, hirzebruch, projective_plane

# (module, class): (_fields, _field_defaults)
RECORDS = {
    ("surfaces", "BaseSurface"): (("kind", "e"), {}),
    ("surfaces", "DivisorClass"): (("surface", "coeffs"), {}),
    ("covers", "SurfaceInvariants"): (("K2", "chi", "p_g", "q", "h11"), {}),
    ("covers", "DoubleCoverData"): (("base", "L", "B"), {}),
    ("covers", "BidoubleCoverData"): (("base", "L1", "L2", "L3", "B1", "B2", "B3"), {}),
    ("singularities", "SingType"): (("family", "index"), {}),
    ("singularities", "SingInventory"): (("entries",), {}),
    ("singularities", "BidoubleBranchPoint"): (
        ("carrier", "sing", "meets", "contact", "count"), {}
    ),
    ("singularities", "CyclicBranchPoint"): (("sing", "on_fiber", "count"), {}),
    ("curves", "Stage"): (("name", "values", "ok", "statement"), {}),
    ("curves", "SeedCertificate"): (("n", "stages", "singularity", "points_per_line"), {}),
    ("curves", "SeedProof"): (("stages", "singularity", "points_per_line"), {}),
    ("curves", "LineCheck"): (
        ("line_index", "representative", "restriction_is_square", "distinct_points",
         "partials_vanish", "germ", "transversal"),
        {},
    ),
    ("curves", "CurveSingularityReport"): (
        ("n", "expected_type", "lines", "torus_invariant", "failures", "note"), {}
    ),
    ("constructions", "_LineSolver"): (("divisor", "offset", "quadratic"), {}),
    ("constructions", "Param"): (("name", "minimum", "step"), {}),
    ("constructions", "Family"): (
        ("label", "theorem", "params", "pair", "solve", "pipeline", "period"),
        {"solve": None, "pipeline": None, "period": 1},
    ),
    ("constructions", "DoubleBranchPoint"): (("sing", "count", "origin"), {}),
    ("constructions", "ConstructionReport"): (
        ("theorem", "params", "base", "building_data", "branch_points", "branch_inventory",
         "cover_inventory", "computed", "closed_form", "ample", "n_indep", "picard_lower",
         "h11", "maximal", "match"),
        {},
    ),
    ("geography", "GeoPair"): (("chi", "K2", "set_label", "params"), {}),
    ("geography", "SlopeRow"): (("m", "n", "K2", "chi", "mu", "identity_ok"), {}),
    ("geography", "SlopeLimitReport"): (
        ("fixed", "rows", "limit", "symbolic_identity", "final_gap", "threshold",
         "within_threshold"),
        {},
    ),
    ("geography", "Claim"): (("claim_id", "status", "detail", "witnesses"), {"witnesses": ()}),
    ("geography", "SetRelationsReport"): (("bound", "claims"), {}),
    ("geography", "_Run"): (("label", "n", "params", "chis", "k2s", "head", "tail"), {}),
}


def _record_classes():
    """Every tuple class with _fields that a picardlab module defines."""
    found = {}
    for info in pkgutil.iter_modules(picardlab.__path__):
        module = importlib.import_module(f"picardlab.{info.name}")
        for name, cls in vars(module).items():
            if (inspect.isclass(cls) and issubclass(cls, tuple) and hasattr(cls, "_fields")
                    and cls.__module__ == module.__name__):
                found[info.name, name] = cls
    return found


def test_every_record_is_pinned_and_slotted():
    classes = _record_classes()
    assert sorted(classes) == sorted(RECORDS)
    for key, cls in classes.items():
        assert (cls._fields, cls._field_defaults) == RECORDS[key], key
        # No instance __dict__: every class in the MRO declares __slots__.
        assert cls.__dictoffset__ == 0, key


# One valid record of each checked class, and a field value its check refuses.
P2 = projective_plane()
CHECKED = [
    (hirzebruch(1), {"e": -1}),
    (P2.divisor(1), {"coeffs": (1, 2)}),
    (SurfaceInvariants(K2=1, chi=1, p_g=0, q=0, h11=9), {"h11": 0}),
    (A(1), {"index": 0}),
    (SingInventory(((A(1), 2),)), {"entries": ((A(1), -1),)}),
    (BidoubleBranchPoint(1), {"carrier": 4}),
    (CyclicBranchPoint(A(1)), {"count": 0}),
    (GeoPair(1, 1, "A1", (("n", 3),)), {"chi": 0}),
]


def test_the_eight_checked_records_are_those_with_a_new():
    checked = {cls for cls in _record_classes().values() if "__new__" in vars(cls)}
    assert checked == {type(record) for record, _ in CHECKED} == {
        BaseSurface, DivisorClass, SurfaceInvariants, SingType, SingInventory,
        BidoubleBranchPoint, CyclicBranchPoint, GeoPair,
    }


@pytest.mark.parametrize("record, bad", CHECKED, ids=lambda x: type(x).__name__)
def test_replace_runs_the_check(record, bad):
    assert record._replace() == record
    with pytest.raises(ValueError):
        record._replace(**bad)


def test_public_names_are_pinned():
    # Each name is imported from its own module; the package exports none.
    assert picardlab.__all__ == []
    # The submodules loaded by now are attributes of the package, not exports.
    star = {}
    exec("from picardlab import *", star)
    assert not [n for n, v in star.items() if isinstance(v, ModuleType)]
