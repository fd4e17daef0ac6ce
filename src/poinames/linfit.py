"""Ordinary least squares for a straight line, shared by the log-log fits."""

from __future__ import annotations

from math import fsum
from typing import NamedTuple, Sequence


class LineFit(NamedTuple):
    """y = intercept + slope * x, with the coefficient of determination."""

    intercept: float
    slope: float
    r_squared: float


def line_fit(x: Sequence[float], y: Sequence[float]) -> LineFit:
    """Fit y ~ intercept + slope * x by ordinary least squares.

    Mean-centered two-pass computation with compensated sums.
    """
    n = len(x)
    if n != len(y):
        raise ValueError("x and y must have equal length")
    if n < 2:
        raise ValueError("degenerate regression: need at least 2 points")
    if max(x) == min(x):
        raise ValueError("degenerate regression: zero variance in x")
    mean_x = fsum(x) / n
    mean_y = fsum(y) / n
    if max(y) == min(y):
        # horizontal data: slope 0 by convention, and R^2 := 0 (not 0/0)
        return LineFit(mean_y, 0.0, 0.0)
    sxx = fsum((xi - mean_x) ** 2 for xi in x)
    syy = fsum((yi - mean_y) ** 2 for yi in y)
    sxy = fsum((xi - mean_x) * (yi - mean_y) for xi, yi in zip(x, y))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = fsum((yi - (intercept + slope * xi)) ** 2 for xi, yi in zip(x, y))
    r_squared = 1.0 - ss_res / syy
    return LineFit(intercept, slope, min(max(r_squared, 0.0), 1.0))
