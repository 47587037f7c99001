"""Outcome triples for the standard and prime boxes, and model parsing."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from coincomp import cheat_model
from coincomp.cheat_model import PRIME, STD, CheatModel


class TestValidation:
    def test_rejects_nonpositive_a(self):
        with pytest.raises(ValueError):
            CheatModel(0.0, 2.0)
        with pytest.raises(ValueError):
            CheatModel(-1.0, 2.0)

    def test_rejects_b_below_one(self):
        with pytest.raises(ValueError):
            CheatModel(1.0, 0.5)

    def test_prime_requires_linear(self):
        with pytest.raises(ValueError):
            CheatModel(1.0, 2.0, PRIME)
        CheatModel(1.0, 1.0, PRIME)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            CheatModel(1.0, 1.0, "double-prime")

    @pytest.mark.parametrize("a,b", [(math.nan, 1.0), (math.inf, 1.0),
                                     (1.0, math.nan), (1.0, math.inf)])
    def test_rejects_non_finite(self, a, b):
        with pytest.raises(ValueError, match="finite"):
            CheatModel(a, b)


class TestStandardTriple:
    def test_honest_point(self):
        t = cheat_model.triple(CheatModel(1.0, 2.0), 0.0)
        assert t.as_tuple() == (0.5, 0.5, 0.0)

    def test_catch_scales_as_power(self):
        m = CheatModel(2.0, 3.0)
        t = cheat_model.triple(m, 0.1)
        assert t.pc == 2.0 * 0.1 ** 3

    def test_survivors_split_by_bias(self):
        m = CheatModel(1.0, 2.0)
        t = cheat_model.triple(m, 0.1)
        keep = 1.0 - 0.01
        assert t.p0 == keep * 0.6
        assert t.p1 == keep * 0.4

    def test_negative_eps_mirrors(self):
        m = CheatModel(1.0, 2.0)
        t_pos = cheat_model.triple(m, 0.2)
        t_neg = cheat_model.triple(m, -0.2)
        assert t_neg.p0 == t_pos.p1
        assert t_neg.p1 == t_pos.p0
        assert t_neg.pc == t_pos.pc

    def test_domain_edges_rejected(self):
        m = CheatModel(1.0, 2.0)
        with pytest.raises(ValueError):
            cheat_model.triple(m, 0.51)
        m_strong = CheatModel(8.0, 2.0)
        # a |eps|^b <= 1 binds before |eps| <= 1/2 here
        with pytest.raises(ValueError):
            cheat_model.triple(m_strong, 0.4)
        cheat_model.triple(m_strong, 0.35)

    @given(st.floats(min_value=0.1, max_value=4.0),
           st.floats(min_value=1.0, max_value=4.0),
           st.floats(min_value=-0.5, max_value=0.5))
    def test_probabilities_sum_to_one(self, a, b, eps):
        m = CheatModel(a, b)
        assume(a * abs(eps) ** b <= 1.0)
        t = cheat_model.triple(m, eps)
        assert t.p0 >= 0.0 and t.p1 >= 0.0 and 0.0 <= t.pc <= 1.0
        assert math.isclose(t.p0 + t.p1 + t.pc, 1.0, rel_tol=0, abs_tol=1e-12)


class TestPrimeTriple:
    def test_honest_point(self):
        t = cheat_model.triple(CheatModel(1.0, 1.0, PRIME), 0.0)
        assert t.as_tuple() == (0.5, 0.5, 0.0)

    def test_up_probability_is_half_plus_eps(self):
        m = CheatModel(1.0, 1.0, PRIME)
        t = cheat_model.triple(m, 0.2)
        assert t.p0 == 0.7
        assert t.pc == 0.2
        assert math.isclose(t.p1, 0.5 - 2.0 * 0.2, abs_tol=1e-15)

    def test_eps_max_exhausts_down_probability(self):
        m = CheatModel(1.0, 1.0, PRIME)
        t = cheat_model.triple(m, m.eps_max)
        assert t.p1 == 0.0
        assert math.isclose(t.p0 + t.pc, 1.0, abs_tol=1e-15)

    def test_eps_max_value(self):
        assert CheatModel(1.0, 1.0, PRIME).eps_max == 0.25
        assert CheatModel(3.0, 1.0, PRIME).eps_max == 0.125

    def test_negative_eps_rejected(self):
        m = CheatModel(1.0, 1.0, PRIME)
        with pytest.raises(ValueError):
            cheat_model.triple(m, -0.01)

    def test_above_eps_max_rejected(self):
        m = CheatModel(1.0, 1.0, PRIME)
        with pytest.raises(ValueError):
            cheat_model.triple(m, 0.2500001)

    @given(st.floats(min_value=0.1, max_value=4.0),
           st.floats(min_value=0.0, max_value=1.0))
    def test_probabilities_sum_to_one(self, a, frac):
        m = CheatModel(a, 1.0, PRIME)
        t = cheat_model.triple(m, frac * m.eps_max)
        assert t.p0 >= 0.0 and t.p1 >= 0.0 and t.pc >= 0.0
        assert math.isclose(t.p0 + t.p1 + t.pc, 1.0, rel_tol=0, abs_tol=1e-12)


class TestArrayTriple:
    @staticmethod
    def _grid(model):
        lo = 0.0 if model.variant == PRIME else -model.eps_max
        return np.append(np.linspace(lo, model.eps_max, 37), model.eps_max)

    @pytest.mark.parametrize("model", [CheatModel(0.5, 1.0, PRIME),
                                       CheatModel(3.0, 1.0, PRIME),
                                       CheatModel(1.0, 1.0), CheatModel(0.3, 1.0)])
    def test_linear_matches_scalar_bit_for_bit(self, model):
        # the walk solver relies on this for b = 1
        eps = self._grid(model)
        t = cheat_model.triple(model, eps)
        for i, e in enumerate(eps.tolist()):
            s = cheat_model.triple(model, e)
            assert (t.p0[i], t.p1[i], t.pc[i]) == s.as_tuple()

    def test_power_law_matches_scalar_to_rounding(self):
        # numpy's power may round |eps|**b differently from the scalar one
        model = CheatModel(2.0, 3.0)
        eps = self._grid(model)
        t = cheat_model.triple(model, eps)
        for i, e in enumerate(eps.tolist()):
            s = cheat_model.triple(model, e)
            for got, want in zip((t.p0[i], t.p1[i], t.pc[i]), s.as_tuple()):
                assert math.isclose(got, want, rel_tol=1e-15, abs_tol=1e-300)

    @pytest.mark.parametrize("model,bad", [
        (CheatModel(1.0, 1.0, PRIME), -0.01),
        (CheatModel(1.0, 1.0, PRIME), 0.26),
        (CheatModel(1.0, 1.0), -0.6),
        (CheatModel(4.0, 1.0), 0.3),
        (CheatModel(1.0, 1.0), math.nan),
    ])
    def test_array_checked_by_extremes(self, model, bad):
        eps = np.array([0.0, 0.1, bad, 0.2])
        with pytest.raises(ValueError):
            cheat_model.triple(model, eps)

    def test_nan_scalar_rejected(self):
        for model in (CheatModel(1.0, 1.0, PRIME), CheatModel(1.0, 2.0)):
            with pytest.raises(ValueError):
                cheat_model.triple(model, math.nan)


class TestDominance:
    @given(st.floats(min_value=0.1, max_value=4.0),
           st.floats(min_value=0.0, max_value=1.0))
    def test_prime_never_worse_for_cheater(self, a, frac):
        prime = CheatModel(a, 1.0, PRIME)
        std = CheatModel(a, 1.0, STD)
        eps = frac * prime.eps_max
        assert cheat_model.dominates(prime, std, eps)

    def test_requires_matching_a(self):
        with pytest.raises(ValueError):
            cheat_model.dominates(CheatModel(1.0, 1.0, PRIME),
                                  CheatModel(2.0, 1.0, STD), 0.1)

    def test_requires_variant_order(self):
        std = CheatModel(1.0, 1.0, STD)
        prime = CheatModel(1.0, 1.0, PRIME)
        with pytest.raises(ValueError):
            cheat_model.dominates(std, prime, 0.1)


class TestParseModelString:
    def test_standard(self):
        m = cheat_model.parse_model_string("std:a=1,b=2")
        assert (m.a, m.b, m.variant) == (1.0, 2.0, STD)

    def test_prime(self):
        m = cheat_model.parse_model_string("prime:a=1")
        assert (m.a, m.b, m.variant) == (1.0, 1.0, PRIME)

    def test_case_insensitive(self):
        m = cheat_model.parse_model_string("STD:A=0.5,B=1.5")
        assert (m.a, m.b) == (0.5, 1.5)

    def test_prime_accepts_explicit_b_1(self):
        m = cheat_model.parse_model_string("prime:a=2,b=1")
        assert m.variant == PRIME

    @pytest.mark.parametrize("bad", [
        "",
        "std",
        "std:b=2",
        "std:a=1",
        "prime:a=1,b=2",
        "quantum:a=1",
        "std:a=1,b=2,c=3",
        "std:a=1,a=2,b=2",
        "std:a=zero,b=2",
        "std:a=-1,b=2",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            cheat_model.parse_model_string(bad)
