from fractions import Fraction

import pytest

from rlw import GroupArithmeticError, GroupElement, GroupSignature, SingularSet
from rlw.group import QMODZ


class TestQmodZ:
    def test_canonical_form(self):
        x = QMODZ.parse("7/5")
        assert x.values == (Fraction(2, 5),)
        assert QMODZ.parse("-1/5") == QMODZ.parse("4/5")

    def test_arithmetic(self):
        a = QMODZ.parse("1/5")
        b = QMODZ.parse("2/5")
        assert (a + b) == QMODZ.parse("3/5")
        assert (a - b) == QMODZ.parse("4/5")
        assert (-a) == QMODZ.parse("4/5")
        assert (a * 5).is_zero
        assert 3 * a == QMODZ.parse("3/5")

    def test_divided_by(self):
        x = QMODZ.parse("1/5")
        assert x.divided_by(3) == QMODZ.parse("1/15")
        assert (x.divided_by(3) * 3) == x

    def test_zero(self):
        assert QMODZ.zero().is_zero
        assert not QMODZ.parse("1/2").is_zero

    def test_json_round_trip(self):
        x = QMODZ.parse("3/7")
        assert x.to_json() == "3/7"
        assert QMODZ.parse(x.to_json()) == x

    def test_hashable(self):
        assert len({QMODZ.parse("1/5"), QMODZ.parse("6/5")}) == 1


class TestProductGroups:
    def setup_method(self):
        self.sig = GroupSignature([("QmodZ",), ("Z",), ("Zmod", 4)])

    def test_parse_and_normalize(self):
        x = self.sig.parse(["1/3", -2, 7])
        assert x.values == (Fraction(1, 3), -2, 3)

    def test_scalar_rejected_for_product(self):
        with pytest.raises(GroupArithmeticError):
            self.sig.parse("1/3")

    def test_arithmetic_componentwise(self):
        x = self.sig.parse(["1/3", 1, 2])
        y = self.sig.parse(["2/3", 4, 3])
        assert (x + y) == self.sig.parse(["0", 5, 1])
        assert (-x) == self.sig.parse(["2/3", -1, 2])

    def test_mixed_signature_rejected(self):
        with pytest.raises(GroupArithmeticError):
            self.sig.parse(["0", 0, 0]) + QMODZ.zero()

    def test_divided_by_integer_parts(self):
        x = self.sig.parse(["1/2", 6, 2])
        y = x.divided_by(2)
        assert y == self.sig.parse(["1/4", 3, 1])
        with pytest.raises(GroupArithmeticError):
            self.sig.parse(["0", 3, 0]).divided_by(2)

    def test_signature_json_round_trip(self):
        j = self.sig.to_json()
        assert GroupSignature.from_json(j) == self.sig

    def test_bad_coordinate_count(self):
        with pytest.raises(GroupArithmeticError):
            self.sig.parse(["1/3", 1])

    def test_zmod_requires_positive_modulus(self):
        with pytest.raises(GroupArithmeticError):
            GroupSignature([("Zmod", 0)])


class TestSingularSet:
    def test_torsion_predicate(self):
        X = SingularSet.torsion_dividing(6)
        assert X.contains(QMODZ.parse("1/2"))
        assert X.contains(QMODZ.parse("1/3"))
        assert X.contains(QMODZ.zero())
        assert X.is_generic(QMODZ.parse("1/5"))
        assert X.is_generic(QMODZ.parse("1/4"))

    def test_explicit_list_must_be_symmetric(self):
        ok = SingularSet.from_elements([QMODZ.parse("1/3"), QMODZ.parse("2/3")])
        assert ok.contains(QMODZ.parse("1/3"))
        with pytest.raises(GroupArithmeticError):
            SingularSet.from_elements([QMODZ.parse("1/3")])

    def test_emptiness_on_finite_group(self):
        X = SingularSet.from_elements([])
        assert X.is_empty_on()
        Y = SingularSet.torsion_dividing(1)
        assert not Y.is_empty_on()  # 0 is always torsion

    def test_json_round_trip(self):
        X = SingularSet.torsion_dividing(6)
        assert SingularSet.from_json(X.to_json(), QMODZ).contains(QMODZ.parse("1/6"))
        Y = SingularSet.from_elements([QMODZ.parse("1/3"), QMODZ.parse("2/3")])
        Y2 = SingularSet.from_json(Y.to_json(), QMODZ)
        assert Y2.contains(QMODZ.parse("2/3"))
