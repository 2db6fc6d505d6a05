"""Solver configuration and frozen default constants."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError

P_PRACTICAL = "practical"
P_THEORETICAL = "theoretical"

DEFAULT_EPS = 0.1
DEFAULT_REPS = 8

# Accuracy used internally by the repeated stochastic-greedy initialization;
# with this setting each repetition lands a 1/8-approximation with
# probability at least 1/2, so best-of-repeats boosts the success odds.
INIT_ACCURACY = 1.0 / math.e - 0.25

# Flip point that maximizes the combined guarantee coefficient; frozen from
# optimize_bound_params(k=1_000_000, eps=1e-6), which grid-searches the
# flip point and the convex-combination weights at step 1e-3. The matching
# weights and bound value are kept alongside for reference.
DEFAULT_FLIP_POINT = 0.362
FROZEN_BOUND_P = (0.201, 0.024, 0.775)
FROZEN_BOUND_VALUE = 0.385604883


@dataclass
class SolverConfig:
    """Tunables shared by every solver in the package.

    `t_s` is the flip point: the fraction of greedy iterations during which
    the guiding set is excluded from the candidate pool. Greedy candidate
    pools always exclude the partial solution built so far. `p_mode`
    selects the per-round sample rate of stochastic greedy, and `seed`
    seeds every random decision of a run.
    """

    k: int
    eps: float = DEFAULT_EPS
    t_s: float = DEFAULT_FLIP_POINT
    p_mode: str = P_PRACTICAL
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if not (0.0 < self.eps < 1.0):
            raise ConfigError(f"eps must lie in (0, 1), got {self.eps}")
        if not (0.0 <= self.t_s <= 1.0):
            raise ConfigError(f"t_s must lie in [0, 1], got {self.t_s}")
        if self.p_mode not in (P_PRACTICAL, P_THEORETICAL):
            raise ConfigError(f"unknown p_mode {self.p_mode!r}")
        # An eps near the smallest float overflows the counts derived from
        # it (or underflows eps * eps to zero). The local search draws i*
        # from [0, L), and Generator.integers takes no bound above 2**63.
        try:
            counts = (attempts_count(self.eps), iteration_count(self.k, self.eps),
                      sample_rate(self.k, self.eps, self.p_mode))
        except (OverflowError, ZeroDivisionError):
            counts = (math.inf,)
        if not all(map(math.isfinite, counts)) or counts[1] > 2**63:
            raise ConfigError(f"eps={self.eps} is too small: the counts it sets are not finite "
                              "or exceed 2**63")


def attempts_count(eps: float) -> int:
    """Number of repetitions used for initialization and retry loops."""
    return math.ceil(math.log2(1.0 / eps))


def iteration_count(k: int, eps: float) -> int:
    """Default swap-iteration budget of the fast local search."""
    return math.ceil(16.0 * k / (eps * (1.0 - 1.0 / math.e)))


def sample_rate(k: int, eps: float, p_mode: str) -> float:
    """Fraction of the candidate pool sampled per stochastic-greedy round."""
    if p_mode == P_THEORETICAL:
        return 8.0 / (k * eps * eps) * math.log(2.0 / eps)
    return 8.0 / (k * eps)
