"""Tunable knobs, grouped by the stage that consumes them.

The line solver's seed and residual tolerance, which tests and the CLI
set; settings no caller changes are constants of the module that uses them.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class LineSolveConfig:
    residual_tol: float = 1e-10          # relative backward error per line
    seed: int = 0


@dataclass
class Config:
    lines: LineSolveConfig = field(default_factory=LineSolveConfig)


DEFAULT = Config()
