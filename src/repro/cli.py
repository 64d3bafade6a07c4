"""Command-line interface for the guarded-forms library.

The CLI exposes the workflows a form designer needs without writing Python:

``guarded-forms catalog``
    list the built-in example forms, or export one to JSON;
``guarded-forms render FORM.json``
    print the schema (Figure 1 style), the access-rule table (Example 3.12
    style) and the completion formula;
``guarded-forms analyze FORM.json``
    decide completability and semi-soundness, printing witnesses and
    counterexamples;
``guarded-forms invariant FORM.json "¬d[a ∧ r]"``
    check that a formula holds at the root of every reachable instance;
``guarded-forms workflow FORM.json --dot out.dot``
    extract the implied workflow, print its diagnostics and optionally export
    it to Graphviz DOT;
``guarded-forms store info STORE.db``
    inspect a persistent state store (row counts, owning form, resumable
    checkpoints);
``guarded-forms campaign run --families all --count 1000 --store c.db``
    fan generated forms through the differential oracle stack, persisting
    per-form outcome/perf rows (see :mod:`repro.campaign`); ``campaign
    report`` prints distributions, outliers and disagreements, ``campaign
    promote`` commits the hardest instances as benchmark workloads;
``guarded-forms trace report TRACE.json``
    summarize a telemetry trace written by ``--trace`` (per-process span
    totals, counters, wall span);
``guarded-forms table1``
    print the paper's complexity table.

``FORM.json`` is the JSON format of :mod:`repro.io.serialization`; built-in
catalogue names (``leave-application``, ``tax-declaration``, …, plus the
``bench-*`` benchgen families) are accepted wherever a file path is expected.

Long explorations can be persisted and resumed: ``analyze``, ``invariant``
and ``workflow`` accept ``--store PATH`` (an sqlite state store holding
interned shapes, canonical representatives and frontier checkpoints; guard
evaluations are recomputed, never stored) and ``--resume`` (continue an interrupted identically
parameterised run instead of restarting).  They also accept ``--workers N``
to expand frontier waves on N worker processes
(:mod:`repro.engine.parallel`); the resulting graphs, verdicts and witnesses
are bit-identical to serial runs, so the flag is purely a throughput knob.
``--resident-budget N`` bounds how many states' representatives, shapes and
memoized expansions stay resident during a store-backed exploration (least
recently used first, transparently reloaded from the store — again
bit-identical, a memory knob only), which is what lets a small-RAM machine
work against a very large store.  A Ctrl-C during a store-backed
exploration checkpoints before exiting, so ``--resume`` always has something
to pick up.  See :mod:`repro.engine.store`.

``analyze``, ``invariant`` and ``workflow`` also share one observability
flag family (:mod:`repro.obs`): ``--trace PATH`` records engine / store /
worker spans into a Chrome trace-event JSON file (load it in Perfetto or
``chrome://tracing``, or summarize it with ``trace report``), ``--metrics``
prints the metric registry snapshot after the run, and ``--profile`` wraps
the command in cProfile.  All three are off by default and the disabled
telemetry path costs one attribute check, so results are bit-identical
either way.

The module is usable both through the ``guarded-forms`` console script and as
``python -m repro``.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.completability import decide_completability
from repro.analysis.invariants import always_holds
from repro.analysis.results import AnalysisResult, ExplorationLimits
from repro.analysis.semisoundness import decide_semisoundness
from repro.catalog import CATALOG, resolve_form
from repro.core.fragments import classify
from repro.engine import (
    STRATEGIES,
    SqliteStore,
    engine_for,
    open_store,
)
from repro.exceptions import CampaignError, ReproError, StoreError
from repro.io.dot import lts_to_dot
from repro.io.render import render_rule_table, render_schema, render_table1
from repro.io.serialization import guarded_form_to_dict, save_guarded_form
from repro.obs import (
    Telemetry,
    load_trace_events,
    maybe_profiled,
    render_trace_report,
    summarize_trace,
    use_telemetry,
)
from repro.workflow.extraction import extract_workflow
from repro.workflow.soundness import analyse_workflow

#: Re-exported from :mod:`repro.catalog` (the catalogue's home since the
#: service API made form references a shared concern); importing it from
#: here keeps existing ``from repro.cli import CATALOG`` users working.
_load_form = resolve_form

def _limits_from_args(args: argparse.Namespace) -> ExplorationLimits:
    return ExplorationLimits(
        max_states=args.max_states,
        max_instance_nodes=args.max_instance_nodes,
        max_sibling_copies=args.max_sibling_copies,
    )


def _add_limit_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-states",
        type=int,
        default=50_000,
        help="state budget for the bounded explorer (default: 50000)",
    )
    parser.add_argument(
        "--max-instance-nodes",
        type=int,
        default=40,
        help="largest instance (in nodes) the explorer will expand (default: 40)",
    )
    parser.add_argument(
        "--max-sibling-copies",
        type=int,
        default=None,
        help="cap on same-label siblings under one node (default: unlimited)",
    )
    parser.add_argument(
        "--frontier",
        choices=STRATEGIES,
        default="bfs",
        help="frontier strategy of the exploration engine (default: bfs)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="expand frontier waves on N worker processes (default: 1 = "
        "serial; results are bit-identical either way, see "
        "repro.engine.parallel)",
    )
    parser.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help="back the exploration with a persistent sqlite state store at "
        "PATH (created on first use; interned shapes, representatives and "
        "frontier checkpoints survive the process)",
    )
    parser.add_argument(
        "--resident-budget",
        type=int,
        default=None,
        metavar="N",
        help="keep at most N states' representatives/shapes/expansions "
        "resident during a store-backed exploration, evicting the least "
        "recently used to the store (results are bit-identical to an "
        "unbounded run; requires --store; default: unbounded)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="continue from the checkpoint an interrupted identically "
        "parameterised run left in --store instead of restarting",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=1000,
        metavar="N",
        help="checkpoint a store-backed exploration every N state "
        "expansions (default: 1000)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record engine/store/worker telemetry spans into a Chrome "
        "trace-event JSON file at PATH (Perfetto-loadable; summarize with "
        "'trace report PATH'; results are bit-identical with or without)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the telemetry metric snapshot (counters, gauges, "
        "latency histograms) after the run",
    )


@contextmanager
def _telemetry_scope(args: argparse.Namespace, out):
    """Activate a telemetry recorder for a command when asked to.

    With ``--trace PATH`` and/or ``--metrics`` a live
    :class:`~repro.obs.Telemetry` is pushed for the duration of the command
    body, so every engine/store the command builds internally picks it up
    through :func:`~repro.obs.default_telemetry`.  The trace file is written
    (and the metric snapshot printed) even when the body raises — an
    interrupted exploration still leaves an inspectable trace.
    """
    trace_path = getattr(args, "trace", None)
    want_metrics = getattr(args, "metrics", False)
    if not trace_path and not want_metrics:
        yield None
        return
    telemetry = Telemetry(process="repro-cli")
    try:
        with use_telemetry(telemetry):
            yield telemetry
    finally:
        if trace_path:
            count = telemetry.write_chrome_trace(trace_path)
            print(f"trace: {count} event(s) written to {trace_path}", file=sys.stderr)
        if want_metrics:
            _print_metrics(telemetry, out)


def _print_metrics(telemetry, out) -> None:
    snapshot = telemetry.metrics.snapshot()
    if not snapshot:
        print("metrics: (none recorded)", file=out)
        return
    print("metrics:", file=out)
    for name in sorted(snapshot):
        if name.endswith("_series"):
            continue  # gauge time series are trace material, not summary
        value = snapshot[name]
        if isinstance(value, dict):
            print(
                f"  {name}: count={value['count']} sum={value['sum']:.6f} "
                f"mean={value['mean']:.6f}",
                file=out,
            )
        elif isinstance(value, float):
            print(f"  {name}: {value:.6f}", file=out)
        else:
            print(f"  {name}: {value}", file=out)


def _check_workers(args: argparse.Namespace) -> None:
    if args.workers < 1:
        raise ReproError(f"--workers must be a positive integer, got {args.workers}")
    budget = getattr(args, "resident_budget", None)
    if budget is not None:
        if budget < 1:
            raise ReproError(
                f"--resident-budget must be a positive integer, got {budget}"
            )
        if args.store is None:
            raise ReproError(
                "--resident-budget needs --store: without a persistent store "
                "there is nowhere to evict resident state to"
            )


def _describe(result: AnalysisResult, out) -> None:
    print(f"  {result.describe()}", file=out)
    if result.witness_run is not None and result.answer:
        print("  witness run:", file=out)
        for step in result.witness_run.describe():
            print(f"    - {step}", file=out)
    if result.counterexample is not None:
        fields = sorted(
            "/".join(node.label_path())
            for node in result.counterexample.nodes()
            if not node.is_root()
        )
        print(f"  stuck reachable instance: {{{', '.join(fields)}}}", file=out)
        if result.witness_run is not None:
            print("  reached by:", file=out)
            for step in result.witness_run.describe():
                print(f"    - {step}", file=out)


# --------------------------------------------------------------------------- #
# sub-commands
# --------------------------------------------------------------------------- #


def _cmd_catalog(args: argparse.Namespace, out) -> int:
    if args.name is None:
        print("built-in forms:", file=out)
        for name in sorted(CATALOG):
            form = CATALOG[name]()
            print(
                f"  {name:34s} depth={form.schema_depth()} "
                f"fields={form.schema.size() - 1}",
                file=out,
            )
        return 0
    if args.name not in CATALOG:
        print(f"unknown catalogue form {args.name!r}", file=sys.stderr)
        return 2
    form = CATALOG[args.name]()
    if args.output is not None:
        save_guarded_form(form, args.output)
        print(f"wrote {args.output}", file=out)
    else:
        import json

        print(json.dumps(guarded_form_to_dict(form), indent=2, sort_keys=True), file=out)
    return 0


def _cmd_render(args: argparse.Namespace, out) -> int:
    form = _load_form(args.form)
    print(render_schema(form.schema, f"Schema of {form.name}"), file=out)
    print("", file=out)
    print(render_rule_table(form.rules, title="Access rules"), file=out)
    print("", file=out)
    print(f"completion formula: {form.completion.to_text()}", file=out)
    initial = form.initial_instance()
    fields = sorted(
        "/".join(node.label_path()) for node in initial.nodes() if not node.is_root()
    )
    print(f"initial instance:   {{{', '.join(fields)}}}" if fields else "initial instance:   (empty)", file=out)
    return 0


def _cmd_analyze(args: argparse.Namespace, out) -> int:
    profile_path = "analyze.pstats" if getattr(args, "profile", False) else None
    with maybe_profiled(profile_path), _telemetry_scope(args, out):
        return _run_analyze(args, out)


def _run_analyze(args: argparse.Namespace, out) -> int:
    form = _load_form(args.form)
    limits = _limits_from_args(args)
    print(f"analysing {form.name!r} (fragment {classify(form).name})", file=out)
    _check_workers(args)

    # one engine for both analyses: the semi-soundness pass re-explores the
    # states the completability pass interned, so its guard evaluations are
    # mostly served from the shared cache (and, with --workers, the shared
    # staged worker results)
    store = open_store(args.store, checkpoint_every=args.checkpoint_every)
    engine = engine_for(
        form, None, args.frontier, store=store, workers=args.workers, resident_budget=args.resident_budget
    )
    try:
        completability = decide_completability(
            form,
            limits=limits,
            frontier=args.frontier,
            engine=engine,
            resume=args.resume,
            stop_on_complete=args.stop_on_complete,
        )
        print("completability:", file=out)
        _describe(completability, out)

        exit_code = 0
        if completability.decided and completability.answer is False:
            exit_code = 1
        if not completability.decided:
            exit_code = 3

        if not args.skip_semisoundness:
            semisoundness = decide_semisoundness(
                form,
                limits=limits,
                frontier=args.frontier,
                engine=engine,
                resume=args.resume,
            )
            print("semi-soundness:", file=out)
            _describe(semisoundness, out)
            if semisoundness.decided and semisoundness.answer is False:
                exit_code = max(exit_code, 1)
            if not semisoundness.decided:
                exit_code = max(exit_code, 3)
        stats = engine.stats_snapshot()
        print(
            f"engine ({args.frontier} frontier): "
            f"{stats['formula_evaluations']} formula evaluations, "
            f"{stats['formula_evaluations_saved']} served from guard cache "
            f"({stats['guard_cache_hit_rate']:.1%} hit rate), "
            f"{stats['intern_interned_states']} interned shapes",
            file=out,
        )
        if args.workers > 1:
            print(
                f"workers ({args.workers} processes): "
                f"{stats['states_prefetched']} states prefetched in "
                f"{stats['waves_dispatched']} waves, "
                f"{stats['expansions_adopted']} expansions adopted, "
                f"{stats['worker_guard_entries_merged']} guard entries merged",
                file=out,
            )
            if stats["wire_frames_received"]:
                print(
                    "wire: "
                    f"{stats['wire_bytes_received']} bytes in "
                    f"{stats['wire_frames_received']} frames, "
                    f"{stats['wire_bytes_per_candidate']} bytes/candidate, "
                    f"{stats['wire_dedup_hit_rate']:.1%} shape-dedup hit rate, "
                    f"decoded in {stats['wire_decode_seconds']}s",
                    file=out,
                )
        if store.persistent:
            print(
                f"store ({args.store}): "
                f"{stats['store_rows_written']} rows written in "
                f"{stats['store_flushes']} flushes, "
                f"{stats['store_rows_read']} rows read, "
                f"{stats['store_checkpoint_saves']} checkpoints"
                + (", resumed" if stats["explorations_resumed"] else ""),
                file=out,
            )
            print(
                f"residency: {stats['reps_resident']} representatives / "
                f"{stats['states_resident']} shapes resident"
                + (
                    f" (budget {stats['resident_budget']}, "
                    f"{stats['reps_evicted']} evicted)"
                    if stats["resident_budget"] is not None
                    else ""
                )
                + (
                    f", {stats['hydration_rows_skipped']} persisted shape "
                    "rows never hydrated"
                    if stats["hydration_rows_skipped"]
                    else ""
                ),
                file=out,
            )
    except KeyboardInterrupt:
        # the engine checkpointed the in-flight exploration before re-raising
        _print_interrupt_hint(args)
        return 130
    finally:
        engine.shutdown_workers()
        store.close()
    return exit_code


def _print_interrupt_hint(args: argparse.Namespace) -> None:
    if args.store is not None:
        print(
            f"\ninterrupted; progress checkpointed to {args.store} — "
            "re-run with --resume to continue",
            file=sys.stderr,
        )


def _cmd_invariant(args: argparse.Namespace, out) -> int:
    form = _load_form(args.form)
    _check_workers(args)
    store = open_store(args.store, checkpoint_every=args.checkpoint_every)
    try:
        with _telemetry_scope(args, out):
            result = always_holds(
                form,
                args.formula,
                limits=_limits_from_args(args),
                frontier=args.frontier,
                store=store,
                resume=args.resume,
                workers=args.workers,
                resident_budget=args.resident_budget,
            )
    except KeyboardInterrupt:
        _print_interrupt_hint(args)
        return 130
    finally:
        store.close()
    print(f"invariant {args.formula!r} on {form.name!r}:", file=out)
    if not result.decided:
        print("  undecided within the exploration limits", file=out)
        return 3
    if result.answer:
        print("  holds on every reachable instance", file=out)
        return 0
    print("  VIOLATED; a run reaching a violating instance:", file=out)
    for step in result.witness_run.describe():
        print(f"    - {step}", file=out)
    return 1


def _cmd_workflow(args: argparse.Namespace, out) -> int:
    form = _load_form(args.form)
    _check_workers(args)
    store = open_store(args.store, checkpoint_every=args.checkpoint_every)
    try:
        with _telemetry_scope(args, out):
            lts = extract_workflow(
                form,
                limits=_limits_from_args(args),
                frontier=args.frontier,
                store=store,
                resume=args.resume,
                workers=args.workers,
                resident_budget=args.resident_budget,
            )
    except KeyboardInterrupt:
        _print_interrupt_hint(args)
        return 130
    finally:
        store.close()
    report = analyse_workflow(lts)
    meta = lts.state_annotations.get("__meta__", {})
    print(f"workflow implied by {form.name!r}:", file=out)
    print(f"  states      : {len(lts)}", file=out)
    print(f"  transitions : {len(lts.transitions)}", file=out)
    print(f"  complete    : {len(lts.accepting)}", file=out)
    print(f"  exhaustive  : {not meta.get('truncated', False)}", file=out)
    print(f"  diagnostics : {report.summary()}", file=out)
    if args.dot is not None:
        Path(args.dot).write_text(lts_to_dot(lts, form.name), encoding="utf-8")
        print(f"  DOT written to {args.dot}", file=out)
    return 0 if report.semi_sound else 1


def _cmd_table1(args: argparse.Namespace, out) -> int:
    del args
    print(render_table1(), file=out)
    return 0


def _cmd_store_info(args: argparse.Namespace, out) -> int:
    path = Path(args.store)
    if not path.exists():
        raise StoreError(f"no state store at {args.store}")
    store = SqliteStore(path)
    try:
        info = store.describe()
    finally:
        store.close()
    print(f"state store {args.store}:", file=out)
    print(f"  size on disk          : {path.stat().st_size} bytes", file=out)
    print(f"  guarded form          : {info['form_name'] or '(none recorded)'}", file=out)
    fingerprint = info["form_fingerprint"]
    print(f"  form fingerprint      : {fingerprint[:16] + '…' if fingerprint else '(none)'}", file=out)
    print(f"  layout version        : {info['schema_version'] or '(none)'}", file=out)
    print(f"  interned shapes       : {info['interned_shapes']}", file=out)
    print(f"  representatives (full): {info['representatives']}", file=out)
    print(f"  origins (derivable)   : {info['representative_origins']}", file=out)
    print(f"  checkpoints           : {info['checkpoints']}", file=out)
    print(f"  resumable (unfinished): {info['resumable_checkpoints']}", file=out)
    _print_cache_info(args, out)
    return 0


def _print_cache_info(args: argparse.Namespace, out) -> None:
    """Append the KV cache view to ``store info`` when a cache is reachable
    (``--cache`` or ``REPRO_CACHE``): entry counts per namespace plus this
    handle's counter snapshot, labeled by namespace."""
    from repro.cache import default_cache, open_kv

    spec = getattr(args, "cache", None)
    cache = open_kv(spec) if spec else default_cache()
    if cache is None:
        return
    try:
        stats = cache.stats()
        print(f"cache ({stats['spec']}):", file=out)
        for namespace, counters in sorted(stats["namespaces"].items()):
            entries = sum(1 for _ in cache.scan(namespace))
            counter_text = " ".join(
                f"{name}={counters[name]}"
                for name in ("hits", "misses", "puts", "evictions", "expirations")
            )
            print(
                f"  {namespace:<10}: {entries} entries  [{counter_text}]",
                file=out,
            )
    finally:
        if spec:
            cache.close()


def _cmd_trace_report(args: argparse.Namespace, out) -> int:
    path = Path(args.trace_file)
    if not path.exists():
        raise ReproError(f"no trace file at {args.trace_file}")
    try:
        events = load_trace_events(path)
    except (ValueError, OSError) as exc:
        raise ReproError(f"cannot parse {args.trace_file}: {exc}") from exc
    if not events:
        raise ReproError(f"no trace events in {args.trace_file}")
    print(render_trace_report(summarize_trace(events)), file=out)
    return 0


def _cmd_campaign_run(args: argparse.Namespace, out) -> int:
    from repro.campaign import CampaignConfig, run_campaign

    config = CampaignConfig(
        families=tuple(args.families.split(",")),
        count=args.count,
        base_seed=args.base_seed,
        oracles=tuple(args.oracles.split(",")),
        smoke=args.smoke,
        workers=args.workers,
        batch_size=args.batch_size,
        heartbeat_every=args.heartbeat_every,
        stall_multiple=args.stall_multiple,
        submit_url=args.submit_url,
    )

    def progress(done: int, total: int) -> None:
        print(f"  {done}/{total} forms", file=out)
        out.flush() if hasattr(out, "flush") else None

    def on_event(event: dict) -> None:
        print(json.dumps(event, sort_keys=True), file=out)
        out.flush() if hasattr(out, "flush") else None

    summary = run_campaign(
        config,
        args.store,
        artifacts_dir=Path(args.artifacts) if args.artifacts else None,
        progress=progress if args.progress else None,
        max_batches=args.max_batches,
        on_event=on_event if (args.heartbeat_every or args.progress) else None,
    )
    print(
        f"campaign: {summary.total} forms ({summary.skipped} already in store, "
        f"{summary.executed} executed)"
        + (" [interrupted]" if summary.interrupted else ""),
        file=out,
    )
    if summary.stalls:
        print(
            f"{len(summary.stalls)} form(s) exceeded {config.stall_multiple}x "
            "their family's median wall clock (see stall events above)",
            file=out,
        )
    if summary.disagreements:
        print(
            f"{len(summary.disagreements)} ORACLE DISAGREEMENT(S); artifacts:",
            file=out,
        )
        for path in summary.artifacts:
            print(f"  {path}", file=out)
        return 1
    print("all oracles agreed", file=out)
    return 0


def _cmd_campaign_report(args: argparse.Namespace, out) -> int:
    from repro.campaign import build_report, render_report

    if not Path(args.store).exists():
        raise CampaignError(f"no campaign store at {args.store}")
    report = build_report(args.store, include_perf=not args.no_perf)
    if args.json:
        Path(args.json).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.json}", file=out)
    print(render_report(report), file=out)
    return 1 if report["total_disagreements"] else 0


def _cmd_campaign_promote(args: argparse.Namespace, out) -> int:
    from repro.campaign import promote_outliers

    if not Path(args.store).exists():
        raise CampaignError(f"no campaign store at {args.store}")
    written = promote_outliers(
        args.store,
        args.dest,
        per_family=args.per_family,
        families=args.families.split(",") if args.families else None,
    )
    for path in written:
        print(f"promoted {path}", file=out)
    print(f"{len(written)} workload(s) in {args.dest}", file=out)
    return 0



# --------------------------------------------------------------------------- #
# service commands
# --------------------------------------------------------------------------- #


def _cmd_serve(args: argparse.Namespace, out) -> int:
    import signal

    from repro.service import PodServer, ServerConfig

    config = ServerConfig(
        store_dir=args.store_dir,
        host=args.host,
        port=args.port,
        capacity_kb=args.capacity_kb,
        overcommit=args.overcommit,
        default_budget_kb=args.default_budget_kb,
        workers=args.job_workers,
        slice_steps=args.slice_steps,
        max_queue=args.max_queue,
        max_evictions=args.max_evictions,
        stall_multiple=args.stall_multiple,
        stall_floor_seconds=args.stall_floor_seconds,
        trace_path=args.trace,
        cache=args.cache,
    )
    server = PodServer(config)
    server.start()
    print(
        f"pod server listening on http://{args.host}:{server.port} "
        f"(store-dir {args.store_dir}, capacity {args.capacity_kb} KiB "
        f"× {args.overcommit} overcommit, {args.job_workers} job workers)",
        file=out,
        flush=True,
    )
    handler = lambda signum, frame: server.request_shutdown()  # noqa: E731
    signal.signal(signal.SIGTERM, handler)
    signal.signal(signal.SIGINT, handler)
    server.wait()
    server.shutdown()
    if args.trace:
        print(f"trace written to {args.trace}", file=out)
    print("pod server stopped", file=out)
    return 0


def _service_client(args: argparse.Namespace):
    from repro.service.client import ServiceClient

    return ServiceClient(args.url, timeout=args.http_timeout)


def _request_from_args(args: argparse.Namespace):
    from repro.service import AnalysisRequest

    return AnalysisRequest(
        form=args.form,
        kind=args.kind,
        formula=args.formula,
        strategy=args.strategy,
        frontier=args.frontier,
        workers=args.workers,
        max_states=args.max_states,
        max_instance_nodes=args.max_instance_nodes,
        max_sibling_copies=args.max_sibling_copies,
        resident_budget=args.resident_budget,
        store=args.store,
        resume=args.resume,
        stop_on_complete=args.stop_on_complete,
        step_limit=args.step_limit,
        checkpoint_every=args.checkpoint_every,
        budget_kb=args.budget_kb,
    )


def _print_job(job: dict, out) -> None:
    line = f"{job['job_id']}: {job['state']}"
    extras = []
    if job.get("states_explored"):
        extras.append(f"{job['states_explored']} states explored")
    if job.get("evictions"):
        extras.append(f"{job['evictions']} eviction(s)")
    if job.get("error"):
        extras.append(f"error[{job['error'].get('code', '?')}]")
    if extras:
        line += " (" + ", ".join(extras) + ")"
    print(line, file=out)


def _print_wire_result(result: dict, out) -> None:
    """Render an ``analysis-result/1`` dict like the local commands do."""
    if not result.get("decided"):
        verdict = "undecided (limits reached)"
    elif result.get("answer") is None:
        verdict = "extracted"
    else:
        verdict = "yes" if result["answer"] else "no"
    print(f"{result['problem']} [{result['procedure']}]: {verdict}", file=out)
    stats = result.get("stats") or {}
    for key in (
        "states_explored",
        "canonical_states",
        "states",
        "transitions",
        "suspicious_states",
    ):
        if key in stats:
            print(f"  {key}: {stats[key]}", file=out)
    if result.get("witness_run"):
        print(f"  witness run: {len(result['witness_run'])} update(s)", file=out)


def _wire_result_exit(result: dict) -> int:
    """Map a wire result onto the CLI's exit-code convention."""
    if not result.get("decided"):
        return 3
    return 1 if result.get("answer") is False else 0


def _fetch_and_print_result(client, job_id: str, args, out) -> int:
    result = client.result(job_id)
    json_path = getattr(args, "json", None)
    if json_path:
        import json

        Path(json_path).write_text(
            json.dumps(result, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {json_path}", file=out)
    _print_wire_result(result, out)
    return _wire_result_exit(result)


def _cmd_submit(args: argparse.Namespace, out) -> int:
    client = _service_client(args)
    job = client.submit(_request_from_args(args))
    _print_job(job, out)
    if not args.wait:
        return 0
    final = client.wait(
        job["job_id"], poll_seconds=args.poll_seconds, timeout=args.timeout
    )
    _print_job(final, out)
    return _fetch_and_print_result(client, final["job_id"], args, out)


def _cmd_status(args: argparse.Namespace, out) -> int:
    _print_job(_service_client(args).status(args.job_id), out)
    return 0


def _cmd_result(args: argparse.Namespace, out) -> int:
    return _fetch_and_print_result(_service_client(args), args.job_id, args, out)


def _cmd_cancel(args: argparse.Namespace, out) -> int:
    _print_job(_service_client(args).cancel(args.job_id), out)
    return 0


# --------------------------------------------------------------------------- #
# parser
# --------------------------------------------------------------------------- #


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="guarded-forms",
        description="Analyse workflows implied by instance-dependent access rules (PODS 2006).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    catalog = subparsers.add_parser("catalog", help="list or export the built-in example forms")
    catalog.add_argument("name", nargs="?", help="catalogue form to export")
    catalog.add_argument("--output", "-o", help="write the form as JSON to this file")
    catalog.set_defaults(handler=_cmd_catalog)

    render = subparsers.add_parser("render", help="print a form's schema, rules and completion formula")
    render.add_argument("form", help="catalogue name or JSON file")
    render.set_defaults(handler=_cmd_render)

    store_epilog = (
        "A --store PATH sqlite database persists the exploration working set "
        "(interned shapes and canonical representatives) and frontier "
        "checkpoints; guard evaluations are recomputed on resume.  Interrupt "
        "with Ctrl-C at any point and re-run the same command with --resume "
        "to continue where it stopped; 'store info PATH' inspects what a "
        "store holds."
    )

    analyze = subparsers.add_parser(
        "analyze",
        help="decide completability and semi-soundness",
        epilog=store_epilog,
    )
    analyze.add_argument("form", help="catalogue name or JSON file")
    analyze.add_argument(
        "--skip-semisoundness", action="store_true", help="only check completability"
    )
    analyze.add_argument(
        "--stop-on-complete",
        action="store_true",
        help="let the completability exploration return on the first "
        "complete state instead of exhausting the budget (early exit; the "
        "verdict is unchanged, only the effort shrinks)",
    )
    analyze.add_argument(
        "--profile",
        action="store_true",
        help="profile the analysis under cProfile: write analyze.pstats to "
        "the working directory and print the top 20 functions by cumulative "
        "time to stderr",
    )
    _add_limit_arguments(analyze)
    analyze.set_defaults(handler=_cmd_analyze)

    invariant = subparsers.add_parser(
        "invariant",
        help="check an invariant on every reachable instance",
        epilog=store_epilog + "  (The store binds to the invariant's probe "
        "form, so use one store file per checked formula.)",
    )
    invariant.add_argument("form", help="catalogue name or JSON file")
    invariant.add_argument("formula", help="the invariant formula (evaluated at the root)")
    _add_limit_arguments(invariant)
    invariant.set_defaults(handler=_cmd_invariant)

    workflow = subparsers.add_parser(
        "workflow",
        help="extract and analyse the implied workflow",
        epilog=store_epilog,
    )
    workflow.add_argument("form", help="catalogue name or JSON file")
    workflow.add_argument("--dot", help="write the workflow as Graphviz DOT to this file")
    _add_limit_arguments(workflow)
    workflow.set_defaults(handler=_cmd_workflow)

    store = subparsers.add_parser(
        "store", help="inspect persistent exploration state stores"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_info = store_sub.add_parser(
        "info", help="print a store's row counts, owning form and checkpoints"
    )
    store_info.add_argument("store", help="path to the sqlite state store")
    store_info.add_argument(
        "--cache",
        metavar="DIR|URL",
        default=None,
        help="also report this KV cache's per-namespace entry and counter "
        "view (default: REPRO_CACHE when set)",
    )
    store_info.set_defaults(handler=_cmd_store_info)

    campaign = subparsers.add_parser(
        "campaign",
        help="run differential scenario campaigns over generated forms",
        epilog=(
            "A campaign fans --count generated forms (round-robined over "
            "--families, seeded deterministically) through a stack of "
            "differential oracles and persists one outcome/perf row per form "
            "into --store.  Interrupt at any point and re-run the identical "
            "command: committed forms are skipped, the rest re-run, and the "
            "final store is the same as an uninterrupted run's."
        ),
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    campaign_run = campaign_sub.add_parser(
        "run", help="drain a generated-form queue through the oracle stack"
    )
    campaign_run.add_argument(
        "--families",
        default="all",
        help="comma-separated campaign families, or 'all' (default)",
    )
    campaign_run.add_argument(
        "--count", type=int, default=100, help="number of forms (default 100)"
    )
    campaign_run.add_argument(
        "--base-seed", type=int, default=0, help="first form seed (default 0)"
    )
    campaign_run.add_argument(
        "--oracles",
        default=",".join(
            ("legacy", "serial-parallel", "resume", "budget", "cache")
        ),
        help="comma-separated oracle stack (default: all oracles)",
    )
    campaign_run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="fan forms across N processes (default 1; row contents are "
        "identical at any worker count)",
    )
    campaign_run.add_argument(
        "--smoke",
        action="store_true",
        help="smoke profile: tighter exploration limits and sampled "
        "worker-pool oracle, for high form counts",
    )
    campaign_run.add_argument(
        "--batch-size",
        type=int,
        default=25,
        help="forms per store transaction / resume point (default 25)",
    )
    campaign_run.add_argument(
        "--max-batches",
        type=int,
        default=None,
        help="stop after N batches, leaving a resumable store",
    )
    campaign_run.add_argument(
        "--store", required=True, help="sqlite campaign store path"
    )
    campaign_run.add_argument(
        "--artifacts",
        default=None,
        help="disagreement artifact directory (default: <store>.artifacts)",
    )
    campaign_run.add_argument(
        "--progress", action="store_true", help="print per-batch progress"
    )
    campaign_run.add_argument(
        "--heartbeat-every",
        type=int,
        default=0,
        metavar="N",
        help="print a structured JSON heartbeat line every N completed "
        "forms (done/total/queue depth/elapsed; default 0 = off)",
    )
    campaign_run.add_argument(
        "--submit-url",
        default=None,
        metavar="URL",
        help="drain the campaign through a pod server at URL instead of "
        "in-process (forms are inlined; failed jobs commit as 'service' "
        "disagreements)",
    )
    campaign_run.add_argument(
        "--stall-multiple",
        type=float,
        default=4.0,
        metavar="X",
        help="flag a form as stalled when its wall clock exceeds X times "
        "its family's median (needs 3 prior samples; default 4.0)",
    )
    campaign_run.set_defaults(handler=_cmd_campaign_run)

    campaign_report = campaign_sub.add_parser(
        "report",
        help="per-family distributions, outliers and disagreements of a store",
    )
    campaign_report.add_argument("store", help="sqlite campaign store path")
    campaign_report.add_argument(
        "--json", default=None, help="also write the full report as JSON here"
    )
    campaign_report.add_argument(
        "--no-perf",
        action="store_true",
        help="omit machine-dependent perf sections (deterministic report)",
    )
    campaign_report.set_defaults(handler=_cmd_campaign_report)

    campaign_promote = campaign_sub.add_parser(
        "promote",
        help="commit the hardest agreeing instances as benchmark workloads",
    )
    campaign_promote.add_argument("store", help="sqlite campaign store path")
    campaign_promote.add_argument(
        "dest", help="corpus directory (e.g. benchmarks/campaign_corpus)"
    )
    campaign_promote.add_argument(
        "--per-family",
        type=int,
        default=1,
        help="instances to promote per family (default 1)",
    )
    campaign_promote.add_argument(
        "--families",
        default=None,
        help="restrict promotion to these comma-separated families",
    )
    campaign_promote.set_defaults(handler=_cmd_campaign_promote)

    serve = subparsers.add_parser(
        "serve",
        help="run the analysis pod server",
        epilog=(
            "The pod accepts analysis-request/1 jobs over HTTP "
            "(POST /v1/jobs), queues them durably under --store-dir, and "
            "admits them against a declared-budget capacity model: a job "
            "runs only while the sum of admitted budgets stays within "
            "--capacity-kb × --overcommit.  SIGTERM/SIGINT shut down "
            "gracefully: running jobs re-queue at their next slice "
            "checkpoint and a restarted server resumes them."
        ),
    )
    serve.add_argument("--store-dir", required=True, metavar="DIR",
                       help="directory for the job queue and per-job engine stores")
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8350,
                       help="bind port (default 8350; 0 picks an ephemeral port, printed on startup)")
    serve.add_argument("--capacity-kb", type=int, default=262_144, metavar="N",
                       help="pod resident capacity in KiB (default 262144 = 256 MiB)")
    serve.add_argument("--overcommit", type=float, default=1.0, metavar="R",
                       help="admit declared budgets up to capacity × R (default 1.0)")
    serve.add_argument("--default-budget-kb", type=int, default=65_536, metavar="N",
                       help="budget accounted for jobs that declare none (default 65536)")
    serve.add_argument("--job-workers", type=int, default=2, metavar="N",
                       help="worker threads draining the job queue (default 2)")
    serve.add_argument("--slice-steps", type=int, default=2_000, metavar="N",
                       help="states explored per job slice between checkpoint/cancel/"
                       "eviction points (default 2000)")
    serve.add_argument("--max-queue", type=int, default=64, metavar="N",
                       help="queued-job cap; submissions beyond it get 429 (default 64)")
    serve.add_argument("--max-evictions", type=int, default=3, metavar="N",
                       help="stall evictions tolerated before a job fails (default 3)")
    serve.add_argument("--stall-multiple", type=float, default=8.0, metavar="X",
                       help="evict a job whose slice exceeds X times its family's "
                       "median slice time (default 8.0)")
    serve.add_argument("--stall-floor-seconds", type=float, default=2.0, metavar="S",
                       help="slices faster than S seconds never count as stalled (default 2.0)")
    serve.add_argument("--trace", metavar="PATH", default=None,
                       help="write the server's merged Chrome trace to PATH on shutdown")
    serve.add_argument("--cache", metavar="DIR|URL", default=None,
                       help="KV cache of memoized analysis results shared by every "
                       "job this pod runs: a directory (sqlite inside), "
                       "sqlite://PATH, or 'memory' (see repro.cache; default: "
                       "REPRO_CACHE, else none)")
    serve.set_defaults(handler=_cmd_serve)

    def _add_client_arguments(client_parser: argparse.ArgumentParser) -> None:
        client_parser.add_argument(
            "--url", required=True, metavar="URL",
            help="pod server base URL (e.g. http://127.0.0.1:8350)",
        )
        client_parser.add_argument(
            "--http-timeout", type=float, default=30.0, metavar="S",
            help="per-request HTTP timeout in seconds (default 30)",
        )

    submit = subparsers.add_parser(
        "submit",
        help="submit an analysis job to a pod server",
        epilog=(
            "Builds one analysis-request/1 payload from the flags — the same "
            "object the library dispatchers accept via request= — and POSTs "
            "it.  A form file path is inlined client-side, so the server "
            "never needs this machine's filesystem; --store names a store "
            "under the server's --store-dir.  With --wait the command polls "
            "to completion and exits like 'analyze' does: 0 yes, 1 no, "
            "3 undecided, 2 on errors (including failed jobs)."
        ),
    )
    submit.add_argument("form", help="catalogue name or JSON form file (inlined before upload)")
    submit.add_argument("--kind", default="completability",
                        choices=("completability", "semisoundness", "invariant", "reach", "workflow"),
                        help="analysis verb (default completability)")
    submit.add_argument("--formula", default=None,
                        help="formula for --kind invariant/reach")
    submit.add_argument("--strategy", default="auto",
                        choices=("auto", "saturation", "depth1", "bounded"),
                        help="procedure selector for completability/semisoundness (default auto)")
    submit.add_argument("--frontier", choices=STRATEGIES, default="bfs",
                        help="frontier strategy (default bfs)")
    submit.add_argument("--workers", type=int, default=1, metavar="N",
                        help="frontier worker processes on the server (default 1)")
    submit.add_argument("--max-states", type=int, default=50_000,
                        help="state budget (default 50000)")
    submit.add_argument("--max-instance-nodes", type=int, default=40,
                        help="largest instance expanded (default 40)")
    submit.add_argument("--max-sibling-copies", type=int, default=None,
                        help="same-label sibling cap (default unlimited)")
    submit.add_argument("--resident-budget", type=int, default=None, metavar="N",
                        help="server-side resident-state cap (requires --store)")
    submit.add_argument("--store", default=None, metavar="NAME",
                        help="name of a persistent store under the server's --store-dir "
                        "(lets resubmissions share caches; default: per-job store)")
    submit.add_argument("--resume", action="store_true",
                        help="continue from the named store's checkpoint")
    submit.add_argument("--stop-on-complete", action="store_true",
                        help="early-exit completability on the first complete state")
    submit.add_argument("--step-limit", type=int, default=None, metavar="N",
                        help="override the server's per-slice step budget for this job")
    submit.add_argument("--checkpoint-every", type=int, default=1000, metavar="N",
                        help="store checkpoint cadence (default 1000)")
    submit.add_argument("--budget-kb", type=int, default=None, metavar="N",
                        help="declared admission budget in KiB (default: the "
                        "server's --default-budget-kb)")
    submit.add_argument("--wait", action="store_true",
                        help="poll until the job is terminal and print its result")
    submit.add_argument("--poll-seconds", type=float, default=0.2, metavar="S",
                        help="--wait polling interval (default 0.2)")
    submit.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="--wait deadline in seconds (default: none)")
    submit.add_argument("--json", default=None, metavar="PATH",
                        help="with --wait: also write the raw analysis-result/1 JSON here")
    _add_client_arguments(submit)
    submit.set_defaults(handler=_cmd_submit)

    status = subparsers.add_parser("status", help="print a submitted job's state")
    status.add_argument("job_id", help="job id returned by submit")
    _add_client_arguments(status)
    status.set_defaults(handler=_cmd_status)

    result = subparsers.add_parser(
        "result", help="fetch and print a finished job's analysis result"
    )
    result.add_argument("job_id", help="job id returned by submit")
    result.add_argument("--json", default=None, metavar="PATH",
                        help="also write the raw analysis-result/1 JSON here")
    _add_client_arguments(result)
    result.set_defaults(handler=_cmd_result)

    cancel = subparsers.add_parser(
        "cancel",
        help="cancel a job (immediately when queued, at the next slice when running)",
    )
    cancel.add_argument("job_id", help="job id returned by submit")
    _add_client_arguments(cancel)
    cancel.set_defaults(handler=_cmd_cancel)

    trace = subparsers.add_parser(
        "trace", help="inspect telemetry traces written by --trace"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_report = trace_sub.add_parser(
        "report",
        help="summarize a Chrome trace-event file (per-process span totals, "
        "counters, wall span)",
    )
    trace_report.add_argument("trace_file", help="path to the trace JSON file")
    trace_report.set_defaults(handler=_cmd_trace_report)

    table1 = subparsers.add_parser("table1", help="print the paper's Table 1")
    table1.set_defaults(handler=_cmd_table1)

    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code.

    Exit codes: 0 = analysis positive / command succeeded, 1 = the analysed
    property fails, 2 = usage error, 3 = the analysis was inconclusive within
    the configured limits.
    """
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help / usage errors
        return int(exc.code or 0)
    try:
        return args.handler(args, out)
    except ReproError as error:
        from repro.service.errors import classify_error

        code, _, retryable = classify_error(error)
        suffix = " (retryable)" if retryable else ""
        print(f"error[{code}]: {error}{suffix}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
