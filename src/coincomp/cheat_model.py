"""Parametric cheat-sensitive coin models.

One invocation of the black box yields outcome 0 (up), outcome 1 (down) or
"caught cheating", with probabilities controlled by the cheater through a
single bias knob eps.  Catching is governed by two sensitivity parameters:
a cheater biasing by eps is caught with probability a * |eps|**b.

Two variants:

* standard ("std"): pc = a|eps|^b, p0 = (1-pc)(1/2+eps), p1 = (1-pc)(1/2-eps),
  valid for |eps| <= 1/2 with a|eps|^b <= 1.
* prime: the linear-detection box tilted in the cheater's favor, b = 1 only:
  p0 = 1/2 + eps, p1 = 1/2 - (1+a)eps, pc = a*eps, valid for
  0 <= eps <= eps_max = 1/(2+2a).  It upper-bounds what a standard linear
  box can give the cheater, which is what makes it useful for bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

STD = "std"
PRIME = "prime"


@dataclass(frozen=True)
class OutcomeTriple:
    p0: float
    p1: float
    pc: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.p0, self.p1, self.pc)


@dataclass(frozen=True)
class CheatModel:
    a: float
    b: float
    variant: str = STD

    def __post_init__(self):
        if self.variant not in (STD, PRIME):
            raise ValueError(f"unknown variant {self.variant!r}")
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"a and b must be finite, got a = {self.a}, b = {self.b}")
        if not self.a > 0:
            raise ValueError(f"a must be positive, got {self.a}")
        if self.b < 1:
            raise ValueError(f"b must be >= 1, got {self.b}")
        if self.variant == PRIME and self.b != 1:
            raise ValueError(f"prime variant requires b = 1, got b = {self.b}")

    @property
    def eps_max(self) -> float:
        """Largest legal |eps| (prime: largest legal eps, one-sided)."""
        if self.variant == PRIME:
            return 1.0 / (2.0 + 2.0 * self.a)
        return min(0.5, (1.0 / self.a) ** (1.0 / self.b))

    def check_eps(self, eps) -> None:
        """Raise ValueError naming the violated bound; arrays by their extremes."""
        if isinstance(eps, np.ndarray):
            for e in (eps.min(), eps.max()):
                self.check_eps(float(e))
            return
        if self.variant == PRIME:
            if not eps >= 0.0:
                raise ValueError(f"prime model requires eps >= 0, got {eps}")
            if not eps <= self.eps_max:
                raise ValueError(f"eps = {eps} exceeds eps_max = {self.eps_max}")
            return
        if not abs(eps) <= 0.5:
            raise ValueError(f"standard model requires |eps| <= 1/2, got {eps}")
        if self.a * abs(eps) ** self.b > 1.0:
            raise ValueError(f"a*|eps|^b = {self.a * abs(eps) ** self.b} > 1 "
                             f"at eps = {eps}: pc is not a probability")


def triple(model: CheatModel, eps) -> OutcomeTriple:
    """Outcome probabilities (p0, p1, pc) at eps, a float or a float array."""
    model.check_eps(eps)
    if model.variant == PRIME:
        p0 = 0.5 + eps
        p1 = 0.5 - (1.0 + model.a) * eps
        pc = model.a * eps
        # p1 vanishes exactly at eps_max; shave the <= 1 ulp rounding dust
        low = p1.min() if isinstance(p1, np.ndarray) else p1
        if low < 0.0:
            if low < -1e-12:
                raise AssertionError(f"prime p1 = {low} went negative")
            p1 = (p1 + abs(p1)) / 2.0  # max(p1, 0) elementwise, exact
        return OutcomeTriple(p0, p1, pc)
    pc = model.a * abs(eps) ** model.b
    return OutcomeTriple((1.0 - pc) * (0.5 + eps), (1.0 - pc) * (0.5 - eps), pc)


def dominates(prime: CheatModel, standard: CheatModel, eps: float) -> bool:
    """True when the prime box is at least as good for the cheater at this eps.

    Good means p0 no smaller and pc no larger.  Expected to hold on the whole
    shared domain 0 <= eps <= eps_max; any bound proved for the prime box then
    carries over to the standard linear box.
    """
    if prime.variant != PRIME or standard.variant != STD:
        raise ValueError("expected (prime, standard) models in that order")
    if standard.b != 1:
        raise ValueError(f"dominance compares linear boxes, got b = {standard.b}")
    if prime.a != standard.a:
        raise ValueError(f"mismatched a: {prime.a} vs {standard.a}")
    tp = triple(prime, eps)
    ts = triple(standard, eps)
    return tp.p0 >= ts.p0 and tp.pc <= ts.pc


def parse_model_string(text: str) -> CheatModel:
    """Parse CLI model syntax: "std:a=1,b=2" or "prime:a=1" (case-insensitive)."""
    s = text.strip().lower()
    head, sep, tail = s.partition(":")
    if not sep or head not in (STD, PRIME):
        raise ValueError(f"model string must look like 'std:a=1,b=2' or "
                         f"'prime:a=1', got {text!r}")
    params: dict[str, float] = {}
    for item in tail.split(","):
        key, eq, value = item.partition("=")
        key = key.strip()
        if not eq or key not in ("a", "b"):
            raise ValueError(f"bad model parameter {item!r} in {text!r}")
        if key in params:
            raise ValueError(f"duplicate parameter {key!r} in {text!r}")
        try:
            params[key] = float(value)
        except ValueError:
            raise ValueError(f"bad numeric literal {value!r} in {text!r}") from None
    if "a" not in params:
        raise ValueError(f"model string {text!r} is missing a=")
    if head == PRIME:
        if params.get("b", 1.0) != 1.0:
            raise ValueError("prime variant requires b = 1")
        return CheatModel(params["a"], 1.0, PRIME)
    if "b" not in params:
        raise ValueError(f"standard model string {text!r} is missing b=")
    return CheatModel(params["a"], params["b"], STD)
