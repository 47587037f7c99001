"""Outcome triples for the standard and prime boxes, and model parsing."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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

    @pytest.mark.parametrize("flag", [True, False])
    def test_rejects_bool_a(self, flag):
        with pytest.raises(ValueError, match=f"^a must be a number, not a bool, got {flag}$"):
            CheatModel(flag, 2.0)

    @pytest.mark.parametrize("flag", [True, False])
    def test_rejects_bool_b(self, flag):
        with pytest.raises(ValueError, match=f"^b must be a number, not a bool, got {flag}$"):
            CheatModel(1.0, flag, PRIME)

    def test_takes_ints(self):
        assert CheatModel(2, 1, PRIME) == (2.0, 1.0, PRIME)


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
        return np.append(np.linspace(lo, model.eps_max, 37), model.eps_max).tolist()

    @pytest.mark.parametrize("model", [CheatModel(0.5, 1.0, PRIME),
                                       CheatModel(3.0, 1.0, PRIME),
                                       CheatModel(1.0, 1.0), CheatModel(0.3, 1.0)])
    def test_linear_matches_scalar_bit_for_bit(self, model):
        # the walk solver relies on this for b = 1
        eps = self._grid(model)
        t = cheat_model.triple(model, eps)
        for i, e in enumerate(eps):
            s = cheat_model.triple(model, e)
            assert (t.p0[i], t.p1[i], t.pc[i]) == s.as_tuple()

    def test_power_law_matches_scalar_to_rounding(self):
        # written for numpy arrays, whose power rounded |eps|**b differently;
        # a list is bit for bit, see TestListTriple
        model = CheatModel(2.0, 3.0)
        eps = self._grid(model)
        t = cheat_model.triple(model, eps)
        for i, e in enumerate(eps):
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
        eps = [0.0, 0.1, bad, 0.2]
        with pytest.raises(ValueError):
            cheat_model.triple(model, eps)

    def test_nan_scalar_rejected(self):
        for model in (CheatModel(1.0, 1.0, PRIME), CheatModel(1.0, 2.0)):
            with pytest.raises(ValueError):
                cheat_model.triple(model, math.nan)


def _hex(t):
    return [[v.hex() for v in col] for col in t]


class TestListTriple:
    @pytest.mark.parametrize("model", [
        CheatModel(0.5, 1.0, PRIME), CheatModel(3.0, 1.0, PRIME),
        CheatModel(1.0, 1.0), CheatModel(0.3, 1.0), CheatModel(2.0, 3.0),
        CheatModel(1.0, 2.0), CheatModel(2.0, 1.5)])
    def test_list_equals_scalar_calls_bit_for_bit(self, model):
        lo = 0.0 if model.variant == PRIME else -model.eps_max
        eps = [lo + (model.eps_max - lo) * k / 100 for k in range(101)]
        eps += [model.eps_max, 0.0, -0.0 if model.variant == STD else 0.0]
        t = cheat_model.triple(model, eps)
        assert all(type(col) is list for col in t.as_tuple())
        want = [cheat_model.triple(model, e).as_tuple() for e in eps]
        assert _hex(t.as_tuple()) == _hex(zip(*want))

    @given(st.sampled_from([CheatModel(2.0, 3.0), CheatModel(1.0, 1.0),
                            CheatModel(0.7, 2.5), CheatModel(2.0, 1.0, PRIME)]),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_random_lists_equal_scalar_calls(self, model, fracs):
        sign = 1.0
        eps = []
        for f in fracs:
            eps.append(f * model.eps_max * sign)
            if model.variant == STD:
                sign = -sign
        t = cheat_model.triple(model, eps)
        want = [cheat_model.triple(model, e).as_tuple() for e in eps]
        assert _hex(t.as_tuple()) == _hex(zip(*want))

    def test_empty_list(self):
        assert cheat_model.triple(CheatModel(1.0, 1.0), []).as_tuple() == ([], [], [])


class TestListCheck:
    """min and max skip a NaN that is not first; the check must not."""

    @pytest.mark.parametrize("where", [0, 2, 4])
    @pytest.mark.parametrize("model,bad,message", [
        (CheatModel(1.0, 1.0, PRIME), math.nan, "requires eps >= 0, got nan"),
        (CheatModel(1.0, 1.0, PRIME), math.inf, "exceeds eps_max"),
        (CheatModel(1.0, 1.0, PRIME), -math.inf, "requires eps >= 0, got -inf"),
        (CheatModel(1.0, 2.0), math.nan, r"\|eps\| <= 1/2, got nan"),
        (CheatModel(1.0, 2.0), math.inf, r"\|eps\| <= 1/2, got inf"),
        (CheatModel(1.0, 2.0), -math.inf, r"\|eps\| <= 1/2, got -inf"),
    ])
    def test_non_finite_at_any_position(self, model, bad, message, where):
        eps = [0.1, 0.2, 0.0, 0.2, 0.1]
        eps[where] = bad
        with pytest.raises(ValueError, match=message):
            model.check_eps(eps)
        with pytest.raises(ValueError, match=message):
            cheat_model.triple(model, eps)

    def test_both_infinities(self):
        # their sum is NaN with no NaN entry; min names -inf
        with pytest.raises(ValueError, match="got -inf"):
            CheatModel(1.0, 2.0).check_eps([0.0, math.inf, -math.inf])


class TestDominance:
    @given(st.floats(min_value=0.1, max_value=4.0),
           st.floats(min_value=0.0, max_value=1.0))
    def test_prime_never_worse_for_cheater(self, a, frac):
        # at equal a, on the shared domain 0 <= eps <= eps_max, the prime box
        # gives the cheater a p0 no smaller and a pc no larger than the
        # standard linear box, so a bound proved for the prime box carries
        # over to the standard one
        prime = CheatModel(a, 1.0, PRIME)
        eps = frac * prime.eps_max
        tp = cheat_model.triple(prime, eps)
        ts = cheat_model.triple(CheatModel(a, 1.0, STD), eps)
        assert tp.p0 >= ts.p0 and tp.pc <= ts.pc


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
