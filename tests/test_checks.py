"""The check record: pass/fail at the boundary, margins and summary lines."""

import math

import pytest

from mflab.checks import Check


class TestCheck:
    @pytest.mark.parametrize("side, value, passed", [
        ("<=", 1.5, True), ("<=", 1.75, True), ("<=", 2.0, False),
        (">=", 0.5, True), (">=", 0.25, True), (">=", 0.0, False)])
    def test_slack_widens_the_limit_on_its_side(self, side, value, passed):
        # Limit 1 with slack 3/4: "<=" passes up to 1.75, ">=" down to 0.25.
        check = Check("c", value, 1.0, side, 0.75, 0.25)
        assert check.passed is passed

    def test_margin_is_negative_past_the_limit(self):
        assert Check("c", 1.5, 1.0, "<=", 1.0, 0.25).margin == -2.0
        assert Check("c", 1.5, 1.0, ">=", 1.0, 0.25).margin == 2.0
        assert Check("c", 0.5, 1.0, "<=", 1.0, 0.25).margin == 2.0

    def test_exact_check_has_no_margin(self):
        check = Check("monotone", 0.0, 0.0)
        assert check.passed and check.margin is None
        assert check.line() == "monotone: 0 <= 0: yes"

    def test_zero_se(self):
        assert Check("c", 0.5, 1.0, se=0.0).margin == math.inf
        assert Check("c", 1.5, 1.0, se=0.0).margin == -math.inf
        assert Check("c", 1.0, 1.0, se=0.0).margin == 0.0

    def test_line_names_the_check_and_its_margin(self):
        check = Check("mala_agrees", 0.55, 0.0, "<=", 0.45, 0.15)
        assert check.line() == ("mala_agrees: 0.55 <= 0 + 3.00 se, "
                                "margin -3.67 se: NO")
