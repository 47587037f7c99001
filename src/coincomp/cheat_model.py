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

triple() takes one eps or a list of them.  A list gives three lists, built
element by element with the very expressions the scalar call uses (the
scalar call is a list of one), so a list entry equals the scalar triple at
that eps bit for bit for every b.  columns() is triple() on a list whose
eps a boundary has already checked (walk.check_policy), so that each
value is checked once.  The module needs no numpy: the walk
solver, its one caller on lists, runs on plain lists too.
"""

from __future__ import annotations

import math
from typing import NamedTuple

STD = "std"
PRIME = "prime"


class OutcomeTriple(NamedTuple):
    p0: float
    p1: float
    pc: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.p0, self.p1, self.pc)


class _CheatModelFields(NamedTuple):
    a: float
    b: float
    variant: str = STD


class CheatModel(_CheatModelFields):
    """The (a, b, variant) of a box, checked where it is built."""

    __slots__ = ()

    def __new__(cls, a: float, b: float, variant: str = STD):
        if variant not in (STD, PRIME):
            raise ValueError(f"unknown variant {variant!r}")
        for name, value in (("a", a), ("b", b)):
            # a bool is an int subclass that math.isfinite takes as 0 or 1
            if type(value) is bool:
                raise ValueError(f"{name} must be a number, not a bool, got {value!r}")
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"a and b must be finite, got a = {a}, b = {b}")
        if not a > 0:
            raise ValueError(f"a must be positive, got {a}")
        if b < 1:
            raise ValueError(f"b must be >= 1, got {b}")
        if variant == PRIME and b != 1:
            raise ValueError(f"prime variant requires b = 1, got b = {b}")
        return super().__new__(cls, a, b, variant)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, which would skip __new__'s checks
        return cls(*iterable)

    @property
    def eps_max(self) -> float:
        """Largest legal |eps| (prime: largest legal eps, one-sided)."""
        if self.variant == PRIME:
            return 1.0 / (2.0 + 2.0 * self.a)
        return min(0.5, (1.0 / self.a) ** (1.0 / self.b))

    def check_eps(self, eps) -> None:
        """Raise ValueError naming the violated bound; a list by its extremes."""
        if isinstance(eps, list):
            if not eps:
                return
            # min and max pass over a NaN that is not first in the list; a
            # NaN entry, or both infinities, makes the sum NaN
            if math.isnan(sum(eps)):
                for e in eps:
                    if e != e:
                        self.check_eps(e)
            for e in (min(eps), max(eps)):
                self.check_eps(e)
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
    """Outcome probabilities (p0, p1, pc) at eps, a float or a list of floats.

    On a list each field is a list, entry i the scalar value at eps[i].
    """
    model.check_eps(eps)
    if isinstance(eps, list):
        return OutcomeTriple(*columns(model, eps))
    (p0,), (p1,), (pc,) = columns(model, [eps])
    return OutcomeTriple(p0, p1, pc)


def columns(model: CheatModel, eps: list) -> tuple[list, list, list]:
    """p0, p1 and pc lists at eps that model.check_eps has already passed.

    triple() without its check, for a caller that checked the list where
    it entered; entry i is the scalar triple at eps[i] bit for bit.
    """
    a = model.a
    if model.variant == PRIME:
        p0 = [0.5 + e for e in eps]
        p1 = [0.5 - (1.0 + a) * e for e in eps]
        pc = [a * e for e in eps]
        # p1 vanishes exactly at eps_max; shave the <= 1 ulp rounding dust
        low = min(p1, default=0.0)
        if low < 0.0:
            if low < -1e-12:
                raise AssertionError(f"prime p1 = {low} went negative")
            p1 = [(p + abs(p)) / 2.0 for p in p1]  # max(p, 0), exact
        return p0, p1, pc
    b = model.b
    # |e| ** 1 is |e| to the bit: pow errs by less than an ulp, so a power
    # that is itself a double comes back exactly.  The linear box skips it.
    pc = [a * abs(e) for e in eps] if b == 1.0 else [a * abs(e) ** b for e in eps]
    return ([(1.0 - c) * (0.5 + e) for c, e in zip(pc, eps)],
            [(1.0 - c) * (0.5 - e) for c, e in zip(pc, eps)], pc)


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
        params.setdefault("b", 1.0)  # CheatModel refuses any other b
    elif "b" not in params:
        raise ValueError(f"standard model string {text!r} is missing b=")
    return CheatModel(params["a"], params["b"], head)
