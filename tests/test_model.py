import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posauctions.model import (Assignment, AuctionError, AuctionInstance, Bidder, BidProfile,
                               DiscountCurve, geometric_curve, instance_from_json,
                               instance_to_json, utility, welfare)


def two_slot_instance(va=0.9, vb=1.0):
    return AuctionInstance(
        bidders=(Bidder(0, "a", va), Bidder(1, "b", vb)),
        curves={"a": DiscountCurve((1.0, 0.0)), "b": DiscountCurve((1.0, 1.0))},
        slot_count=2,
    )


class TestDiscountCurve:
    def test_monotone_required(self):
        with pytest.raises(AuctionError):
            DiscountCurve((0.5, 0.8))

    def test_range_required(self):
        with pytest.raises(AuctionError):
            DiscountCurve((1.2, 0.1))
        with pytest.raises(AuctionError):
            DiscountCurve((0.5, -0.1))

    def test_geometric(self):
        c = geometric_curve(1.0, 0.5, 3)
        assert c.per_slot == (1.0, 0.5, 0.25)
        assert c.at(1) == 1.0 and c.at(3) == 0.25


class TestInstance:
    def test_ids_must_be_consecutive(self):
        with pytest.raises(AuctionError):
            AuctionInstance((Bidder(1, "a", 1.0),), {"a": DiscountCurve((1.0,))}, 1)

    def test_curve_length_checked(self):
        with pytest.raises(AuctionError):
            AuctionInstance((Bidder(0, "a", 1.0),), {"a": DiscountCurve((1.0,))}, 2)

    def test_unknown_type(self):
        with pytest.raises(AuctionError):
            AuctionInstance((Bidder(0, "zz", 1.0),), {"a": DiscountCurve((1.0,))}, 1)

    def test_negative_value(self):
        with pytest.raises(AuctionError):
            Bidder(0, "a", -0.5)

    def test_delta_matrix(self):
        inst = two_slot_instance()
        assert np.array_equal(inst.delta, [[1.0, 0.0], [1.0, 1.0]])


class TestUtility:
    def test_direct_formula(self):
        inst = AuctionInstance((Bidder(0, "a", 1.0),), {"a": DiscountCurve((1.0, 0.5))}, 2)
        assert utility(inst, 0, 2, 0.2) == pytest.approx(0.4, abs=1e-12)

    def test_price_equals_value(self):
        inst = AuctionInstance((Bidder(0, "a", 1.0),), {"a": DiscountCurve((1.0,))}, 1)
        assert utility(inst, 0, 1, 1.0) == 0.0

    def test_unallocated(self):
        inst = two_slot_instance()
        assert utility(inst, 0, None) == 0.0

    def test_domain_errors(self):
        inst = two_slot_instance()
        with pytest.raises(AuctionError):
            utility(inst, 5, 1)
        with pytest.raises(AuctionError):
            utility(inst, 0, 3)

    @given(v=st.floats(0, 10), p1=st.floats(0, 10), p2=st.floats(0, 10))
    @settings(max_examples=60)
    def test_monotone_in_price_and_value(self, v, p1, p2):
        inst = AuctionInstance((Bidder(0, "a", v),), {"a": DiscountCurve((0.7,))}, 1)
        lo, hi = sorted((p1, p2))
        assert utility(inst, 0, 1, lo) >= utility(inst, 0, 1, hi)
        inst2 = AuctionInstance((Bidder(0, "a", v + 1.0),), {"a": DiscountCurve((0.7,))}, 1)
        assert utility(inst2, 0, 1, lo) >= utility(inst, 0, 1, lo)


class TestWelfare:
    def test_canonical_two_bidder_assignment(self):
        inst = two_slot_instance(0.9, 1.0)
        assignment = Assignment.from_slot_vector([1, 2])
        assert welfare(inst, assignment, [0.9, 1.0]) == pytest.approx(1.9, abs=1e-12)

    def test_empty_assignment(self):
        inst = two_slot_instance()
        assert welfare(inst, Assignment({}, {}), [0.9, 1.0]) == 0.0

    def test_three_bidder_matches_direct_sum(self):
        rng = np.random.default_rng(42)
        curves = {"x": DiscountCurve((1.0, 0.6, 0.2)), "y": DiscountCurve((0.9, 0.5, 0.5))}
        bidders = tuple(Bidder(i, "x" if i % 2 else "y", float(rng.uniform(0, 2)))
                        for i in range(3))
        inst = AuctionInstance(bidders, curves, 3)
        assignment = Assignment.from_slot_vector([2, 3, 1])
        expected = sum(inst.discount(i, s) * inst.bidders[i].value
                       for i, s in assignment.slot_of.items())
        assert welfare(inst, assignment, inst.values) == pytest.approx(expected, abs=1e-12)

    def test_length_mismatch(self):
        inst = two_slot_instance()
        with pytest.raises(AuctionError):
            welfare(inst, Assignment.from_slot_vector([1, 2]), [1.0])

    @given(scale=st.floats(0.0, 7.5), va=st.floats(0, 1), vb=st.floats(0, 1))
    @settings(max_examples=60)
    def test_linearity(self, scale, va, vb):
        inst = two_slot_instance()
        assignment = Assignment.from_slot_vector([2, 1])
        base = welfare(inst, assignment, [va, vb])
        scaled = welfare(inst, assignment, [scale * va, scale * vb])
        assert scaled == pytest.approx(scale * base, abs=1e-9)


class TestAssignment:
    def test_mutual_inverse_enforced(self):
        with pytest.raises(AuctionError):
            Assignment({0: 1}, {2: 0})

    def test_round_trip(self):
        a = Assignment.from_slot_vector([2, -1, 1])
        assert a.slot_of == {0: 2, 2: 1}
        assert a.bidder_in == {2: 0, 1: 2}


class TestBidProfile:
    def test_nonnegative(self):
        with pytest.raises(AuctionError):
            BidProfile((-0.1,))

    def test_replaced(self):
        p = BidProfile((0.1, 0.2))
        assert p.replaced(1, 0.5).bids == (0.1, 0.5)
        assert p.bids == (0.1, 0.2)


class TestSerialization:
    def test_round_trip_bit_exact(self):
        inst = AuctionInstance(
            bidders=(Bidder(0, "a", 0.1 + 0.2), Bidder(1, "b", 1.0 / 3.0)),
            curves={"a": DiscountCurve((1.0, 0.1 * 3)), "b": DiscountCurve((0.7, 0.7))},
            slot_count=2,
        )
        text = instance_to_json(inst)
        back = instance_from_json(text)
        assert back == inst
        assert instance_to_json(back) == text

    def test_schema_fields(self):
        inst = two_slot_instance()
        doc = json.loads(instance_to_json(inst))
        assert set(doc) == {"slots", "curves", "bidders"}
        assert doc["bidders"][0] == {"id": 0, "type": "a", "value": 0.9}

    def test_malformed(self):
        with pytest.raises(AuctionError):
            instance_from_json('{"slots": 1}')
