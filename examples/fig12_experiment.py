"""Regenerate the paper's Figure 12 (§5) and draw it as an ASCII chart.

The experiment: an index scan over the OO7 AtomicParts extent (70 000
objects × 56 bytes, 1000 pages, 96 % fill), response time vs selectivity,
three series — measured (simulated ObjectStore), the calibrated linear
estimate, and the wrapper-exported Yao-formula rule.

Run:  python examples/fig12_experiment.py [--small]
"""

import sys

from repro.bench.fig12 import run_fig12
from repro.oo7 import PAPER, SMALL


def ascii_chart(result, width: int = 64, height: int = 18) -> str:
    """A rough terminal rendering of the three Figure 12 curves."""
    points = result.points
    max_y = max(p.calibration_ms for p in points) * 1.05
    max_x = max(p.selectivity for p in points)
    grid = [[" "] * (width + 1) for _ in range(height + 1)]

    def plot(selectivity: float, value_ms: float, char: str) -> None:
        x = round(selectivity / max_x * width)
        y = height - round(value_ms / max_y * height)
        if grid[y][x] == " ":
            grid[y][x] = char

    for point in points:
        plot(point.selectivity, point.calibration_ms, "c")
        plot(point.selectivity, point.yao_rule_ms, "y")
        plot(point.selectivity, point.measured_ms, "*")
    lines = ["".join(row) for row in grid]
    axis = "-" * (width + 1)
    legend = "  * experiment   y yao-rule estimate   c calibration estimate"
    return "\n".join(
        [f"T (max {max_y / 1000:.0f}s)"] + lines + [axis, "0" + " " * (width - 8) + f"sel={max_x}", legend]
    )


def main() -> None:
    config = SMALL if "--small" in sys.argv else PAPER
    print(f"running Figure 12 on the {config.name!r} configuration "
          f"({config.num_atomic_parts} AtomicParts)...")
    result = run_fig12(config=config)
    print()
    print(result.report())
    print()
    print(ascii_chart(result))


if __name__ == "__main__":
    main()
