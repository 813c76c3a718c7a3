"""One record per verdict: every check the lab states is a `Check`."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    """Passes while value <= limit + slack (side "<=") or value >= limit -
    slack (">=").  A statistical check has the standard error se of its
    value and a slack of a few se; an exact check has se None, slack 0."""

    name: str
    value: float
    limit: float
    side: str = "<="
    slack: float = 0.0
    se: float | None = None

    @property
    def passed(self) -> bool:
        if self.side == "<=":
            return self.value <= self.limit + self.slack
        return self.value >= self.limit - self.slack

    @property
    def margin(self) -> float | None:
        """How far the value lies inside its limit, in se (negative past
        it); None for an exact check."""
        if self.se is None:
            return None
        return self._in_se(self.limit - self.value if self.side == "<="
                           else self.value - self.limit)

    def _in_se(self, x: float) -> float:
        if self.se:
            return x / self.se
        return math.copysign(math.inf, x) if x else 0.0

    def line(self) -> str:
        """`name: value side limit [+ slack in se, margin in se]: yes/NO`."""
        text = f"{self.name}: {self.value:.6g} {self.side} {self.limit:.6g}"
        if self.se is not None:
            text += (f" {'+' if self.side == '<=' else '-'} "
                     f"{self._in_se(self.slack):.2f} se, margin "
                     f"{self.margin:+.2f} se")
        return f"{text}: {'yes' if self.passed else 'NO'}"
