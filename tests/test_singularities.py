"""Inventories, union rules, transport rules and the Picard lower bound."""

import random
from fractions import Fraction

import pytest

from picardlab.constructions import FAMILIES
from picardlab.covers import SurfaceInvariants
from picardlab.polynomials import domain_variables
from picardlab.singularities import (
    A,
    BidoubleBranchPoint,
    CyclicBranchPoint,
    D,
    SingInventory,
    SingType,
    TransportError,
    bidouble_rule,
    cyclic_rule,
    picard_lower_bound,
    transport_bidouble,
    transport_cyclic,
    transport_double,
    union_rule,
    union_type,
)


class TestSingType:
    def test_index_bounds(self):
        A(1), D(4), SingType("E", 6), SingType("E", 7), SingType("E", 8)
        with pytest.raises(ValueError, match=r"^A-type index must be >= 1, got 0$"):
            A(0)
        with pytest.raises(ValueError, match=r"^D-type index must be >= 4, got 3$"):
            D(3)
        with pytest.raises(ValueError, match=r"^E-type index must be 6, 7 or 8, got 5$"):
            SingType("E", 5)
        with pytest.raises(ValueError, match=r"^unknown singularity family 'F'$"):
            SingType("F", 4)

    def test_fields_are_read_only_and_replace_checks(self):
        sing = A(3)
        with pytest.raises(AttributeError):
            sing.index = 4
        assert sing == A(3) and sing._replace(family="D", index=7) == D(7)
        with pytest.raises(ValueError, match=r"^A-type index must be >= 1, got 0$"):
            sing._replace(index=0)

    @pytest.mark.parametrize("index", [2.5, 2.0, Fraction(3), "2"])
    def test_non_integer_index_is_refused(self, index):
        with pytest.raises(TypeError):
            SingType("A", index)

    def test_bool_index_is_its_int(self):
        assert SingType("A", True) == A(1) and str(SingType("A", True)) == "A1"
        assert type(SingType("A", True).index) is int


class TestInventory:
    def test_merges_and_sorts(self):
        inv = SingInventory(((D(4), 2), (A(3), 1), (D(4), 2), (A(3), 3)))
        assert inv.entries == ((A(3), 4), (D(4), 4))
        assert inv == SingInventory.from_counts({A(3): 4, D(4): 4})
        e6 = SingType("E", 6)
        assert SingInventory()._replace(entries=inv.entries[::-1] + ((e6, 0),)) == inv

    def test_zero_counts_drop(self):
        assert SingInventory.from_counts({A(1): 0}) == SingInventory()
        assert not SingInventory()

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            SingInventory.from_counts({A(1): -1})

    @pytest.mark.parametrize("count", [1.5, 1.0, Fraction(2), "1"])
    def test_non_integer_count_is_refused(self, count):
        with pytest.raises(TypeError):
            SingInventory(((A(1), count),))

    def test_bool_count_is_its_int(self):
        inv = SingInventory(((A(1), True), (A(2), False)))
        assert inv == SingInventory(((A(1), 1),)) and str(inv) == "1 x A1"
        assert type(inv.entries[0][1]) is int

    def test_str(self):
        assert str(SingInventory()) == "none"
        assert str(SingInventory.from_counts({A(3): 4, D(4): 12})) == "4 x A3, 12 x D4"


def test_resolution_curve_count_examples():
    # One class per exceptional curve (a type's index counts them) plus n_indep.
    for n_indep in (1, 2):
        for counts, curves in (({D(4): 4, A(3): 4}, 28), ({}, 0), ({SingType("E", 8): 1}, 8)):
            inventory = SingInventory.from_counts(counts)
            assert picard_lower_bound(inventory, n_indep) == curves + n_indep


def test_picard_lower_bound_examples():
    assert picard_lower_bound(SingInventory.from_counts({D(10): 8, A(3): 8}), 2) == 106
    with pytest.raises(ValueError):
        picard_lower_bound(SingInventory(), 3)
    with pytest.raises(ValueError):
        picard_lower_bound(SingInventory(), 0)


def test_h11_examples():
    # SurfaceInvariants holds h11 to 10*chi - K2 - 2q, the number that the
    # Picard lower bound is compared with.
    for chi, K2, q, h11 in ((3, 1, 0, 29), (11, 16, 0, 94), (1, 9, 0, 1)):
        assert SurfaceInvariants(K2, chi, chi - 1 + q, q, h11).h11 == h11
        for wrong in (h11 - 1, h11 + 1):
            with pytest.raises(ValueError, match="inconsistent invariants: h11="):
                SurfaceInvariants(K2, chi, chi - 1 + q, q, wrong)


class TestUnionType:
    def test_transverse_node(self):
        assert union_type(None, 1) == A(1)

    def test_a_point_with_transversal_curve(self):
        assert union_type(A(3), 1) == D(6)

    def test_smooth_tangency(self):
        for n in range(1, 6):
            assert union_type(None, n + 1) == A(2 * n + 1)

    def test_tangential_contact_at_singularity_rejected(self):
        with pytest.raises(TransportError):
            union_type(A(2), 2)

    def test_d_and_e_branches_rejected(self):
        with pytest.raises(TransportError):
            union_type(D(4), 1)
        with pytest.raises(TransportError):
            union_type(SingType("E", 6), 1)


def test_ring_rules_on_ints_and_polys():
    # The rules the builds call: on ints at a member, and on Polys in the
    # domain variables of family 2's (m, n) on a class.
    m, n = domain_variables(FAMILIES["A2"].params)
    for k, c, d in ((3, 3, 2), (n - 1, n, m)):
        assert union_rule(None, 1) == ("A", 1)
        assert union_rule(None, c) == ("A", 2 * c - 1)
        assert union_rule(("A", k), 1) == ("D", k + 3)
        assert bidouble_rule(None, union_rule(None, 1), 5) is None  # R0
        assert bidouble_rule(None, ("A", 2 * c - 1), 5) == (("A", c - 1), 5)  # R1
        assert bidouble_rule(("A", k), ("D", k + 3), 5) == (("A", 2 * k + 1), 5)  # R2
        assert bidouble_rule(("D", k + 3), None, 5) == (("D", k + 3), 10)  # R3
        assert cyclic_rule(("A", k), 5, d, True) == (("A", d * (k + 1) - 1), 5)
        assert cyclic_rule(("D", k + 3), 5, d, False) == (("D", k + 3), 5 * d)


class TestTransportBidouble:
    def test_smooth_tangency_rule(self):
        points = [BidoubleBranchPoint(carrier=1, meets=2, contact=2)]
        assert transport_bidouble(points) == SingInventory.from_counts({A(1): 1})

    def test_singular_carrier_rule(self):
        # A11 upstairs from an A5 point met transversally (m = 3, n = 2 chain).
        points = [BidoubleBranchPoint(carrier=3, sing=A(5), meets=2, count=1)]
        assert transport_bidouble(points) == SingInventory.from_counts({A(11): 1})

    def test_isolated_point_doubles(self):
        points = [BidoubleBranchPoint(carrier=3, sing=D(4))]
        assert transport_bidouble(points) == SingInventory.from_counts({D(4): 2})

    def test_transverse_crossing_gives_nothing(self):
        points = [BidoubleBranchPoint(carrier=1, meets=2, contact=1, count=7)]
        assert transport_bidouble(points) == SingInventory()

    def test_unmatched_entries_rejected(self):
        with pytest.raises(TransportError):
            transport_bidouble([BidoubleBranchPoint(carrier=1)])
        with pytest.raises(TransportError):
            transport_bidouble([BidoubleBranchPoint(carrier=1, sing=D(4), meets=2)])

    def test_counts_multiply(self):
        points = [
            BidoubleBranchPoint(carrier=3, sing=D(5), count=4),
            BidoubleBranchPoint(carrier=3, sing=A(3), meets=1, count=2),
        ]
        inv = transport_bidouble(points)
        assert inv == SingInventory.from_counts({D(5): 8, A(7): 2})


class TestTransportDouble:
    def test_identity_on_inventory(self):
        inv = SingInventory.from_counts({D(10): 8, A(3): 8})
        assert transport_double(inv) == inv
        assert transport_double(SingInventory()) == SingInventory()
        assert transport_double(SingInventory.from_counts({A(1): 1})) == SingInventory.from_counts({A(1): 1})


class TestTransportCyclic:
    def test_on_fiber_node(self):
        points = [CyclicBranchPoint(A(1), on_fiber=True)]
        assert transport_cyclic(points, 3) == SingInventory.from_counts({A(5): 1})

    def test_off_fiber_replication(self):
        points = [CyclicBranchPoint(A(3))]
        assert transport_cyclic(points, 2) == SingInventory.from_counts({A(3): 2})

    def test_odd_n_on_fiber_rejected(self):
        with pytest.raises(TransportError):
            transport_cyclic([CyclicBranchPoint(A(2), on_fiber=True)], 2)

    def test_non_a_type_on_fiber_rejected(self):
        with pytest.raises(TransportError):
            transport_cyclic([CyclicBranchPoint(D(4), on_fiber=True)], 2)

    def test_degree_one_is_identity(self):
        points = [
            CyclicBranchPoint(A(1), on_fiber=True, count=3),
            CyclicBranchPoint(D(7), count=2),
            CyclicBranchPoint(A(4), count=1),
        ]
        assert transport_cyclic(points, 1) == SingInventory.from_counts(
            {A(1): 3, D(7): 2, A(4): 1}
        )

    def test_counting_conservation_randomized(self):
        rng = random.Random(1812)
        families = [lambda k: A(k), lambda k: D(k + 3)]
        for _ in range(50):
            d = rng.randint(1, 6)
            off = [
                CyclicBranchPoint(rng.choice(families)(rng.randint(1, 6)), count=rng.randint(1, 4))
                for _ in range(rng.randint(0, 4))
            ]
            on = [
                CyclicBranchPoint(A(2 * rng.randint(1, 4) - 1), on_fiber=True, count=rng.randint(1, 4))
                for _ in range(rng.randint(0, 4))
            ]
            out = transport_cyclic(off + on, d)
            n_off = sum(p.count for p in off)
            n_on = sum(p.count for p in on)
            assert sum(c for _, c in out.entries) == d * n_off + n_on
            off_only = transport_cyclic(off, d)
            assert picard_lower_bound(off_only, 1) == 1 + d * sum(
                p.sing.index * p.count for p in off
            )

    def test_degree_must_be_positive(self):
        with pytest.raises(ValueError):
            transport_cyclic([CyclicBranchPoint(A(1), on_fiber=True)], 0)


def test_union_then_transport_reproduces_proof_chain():
    # A_{n-1} union a transversal line is D_{n+2}; met by a second branch
    # divisor it transports to A_{2n-1}: the n = 4 chain.
    n = 4
    assert union_type(A(n - 1), 1) == D(n + 2)
    out = transport_bidouble([BidoubleBranchPoint(carrier=3, sing=A(n - 1), meets=1)])
    assert out == SingInventory.from_counts({A(2 * n - 1): 1})
