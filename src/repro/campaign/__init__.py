"""Scenario campaigns: differential fuzzing of the exploration engine.

A *campaign* fans thousands of deterministically generated guarded forms
(:mod:`repro.campaign.generator`) through a stack of differential oracles
(:mod:`repro.campaign.oracles`) — serial vs parallel, cold vs resumed,
unbudgeted vs budgeted, cached vs uncached, engine vs legacy — and
persists one outcome/perf row per form into an sqlite store
(:mod:`repro.campaign.store`).  Triage (:mod:`repro.campaign.triage`) turns
the store into distributions, flags outliers, surfaces disagreements as
minimized replayable artifacts, and promotes the hardest instances into the
committed benchmark corpus.

Driven by ``repro campaign run / report / promote`` (see ``repro.cli``).

:mod:`repro.campaign.strategies` (the Hypothesis strategies shared with the
property suite) is deliberately not imported here: it needs ``hypothesis``,
which is a test-only dependency.
"""

from repro.campaign.generator import (
    FAMILIES,
    CampaignFamily,
    FormSpec,
    campaign_specs,
    generate_form,
    resolve_families,
    seed_corpus_specs,
    write_seed_corpus,
)
from repro.campaign.oracles import (
    DEFAULT_STACK,
    ORACLES,
    ExecutionContext,
    Oracle,
    OracleOutcome,
    resolve_stack,
)
from repro.campaign.runner import (
    CampaignConfig,
    CampaignPulse,
    CampaignSummary,
    evaluate_spec,
    run_campaign,
)
from repro.campaign.store import CampaignRow, CampaignStore
from repro.campaign.triage import build_report, promote_outliers, render_report

__all__ = [
    "FAMILIES",
    "CampaignFamily",
    "FormSpec",
    "campaign_specs",
    "generate_form",
    "resolve_families",
    "seed_corpus_specs",
    "write_seed_corpus",
    "DEFAULT_STACK",
    "ORACLES",
    "ExecutionContext",
    "Oracle",
    "OracleOutcome",
    "resolve_stack",
    "CampaignConfig",
    "CampaignPulse",
    "CampaignSummary",
    "evaluate_spec",
    "run_campaign",
    "CampaignRow",
    "CampaignStore",
    "build_report",
    "promote_outliers",
    "render_report",
]
