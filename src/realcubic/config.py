"""Tunable knobs, grouped by the stage that consumes them.

The seeds and thresholds that tests and the CLI set, one stage at a time;
settings no caller changes are constants of the module that uses them.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class LineSolveConfig:
    residual_tol: float = 1e-10          # relative backward error per line
    seed: int = 0


@dataclass
class ClassifyConfig:
    seed: int = 0


@dataclass
class Config:
    lines: LineSolveConfig = field(default_factory=LineSolveConfig)
    classify: ClassifyConfig = field(default_factory=ClassifyConfig)


DEFAULT = Config()
