"""Decision procedures for the completability and semi-soundness problems.

The paper's two analysis questions (Definitions 3.13 and 3.14) are exposed
through two dispatchers that select a procedure based on the guarded form's
fragment (Section 3.5 / Table 1):

* :func:`repro.analysis.completability.decide_completability`
* :func:`repro.analysis.semisoundness.decide_semisoundness`

The individual procedures (polynomial saturation for the positive fragments,
exact canonical-state search for depth-1 forms, bounded exploration for the
general — undecidable — case) can also be invoked directly.

All exploration-based procedures run on the shared
:class:`~repro.engine.ExplorationEngine`; pass ``engine=`` to reuse interned
shapes and memoized guard evaluations across analyses, and ``frontier=`` to
pick the exploration order.
"""

from repro.analysis.completability import (
    completability_bounded,
    completability_by_saturation,
    completability_depth1,
    decide_completability,
)
from repro.analysis.invariants import always_holds, can_reach
from repro.analysis.results import AnalysisResult, ExplorationLimits
from repro.analysis.semisoundness import (
    decide_semisoundness,
    semisoundness_bounded,
    semisoundness_depth1,
)
from repro.analysis.statespace import (
    Depth1MaskGraph,
    Depth1StateGraph,
    StateGraph,
    explore_bounded,
    explore_depth1,
    legacy_explore_bounded,
    legacy_explore_depth1,
)

__all__ = [
    "decide_completability",
    "completability_by_saturation",
    "completability_depth1",
    "completability_bounded",
    "decide_semisoundness",
    "semisoundness_depth1",
    "semisoundness_bounded",
    "always_holds",
    "can_reach",
    "AnalysisResult",
    "ExplorationLimits",
    "StateGraph",
    "Depth1MaskGraph",
    "Depth1StateGraph",
    "explore_depth1",
    "explore_bounded",
    "legacy_explore_depth1",
    "legacy_explore_bounded",
]
