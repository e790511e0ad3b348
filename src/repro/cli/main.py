"""The ``liberate`` command.

Subcommands mirror the paper's workflow over the simulated environments::

    liberate envs                        # list environments
    liberate run --env gfc --host economist.com
    liberate detect --env tmobile --host d1.cloudfront.net
    liberate characterize --env iran --host facebook.com
    liberate table1 | table2 | table3 | figure4 | efficiency | throughput
    liberate scale --flows 1000000      # bounded flow-state churn workload
    liberate trace --host x.com --out trace.json   # save a workload
    liberate obs query|diff|report|watch|html      # trace analysis + watchdog

``--flow-trace`` is the canonical flag for recording a flow trace;
``--trace`` is accepted as an alias on subcommands where it is not already
taken by "load a recorded workload trace" (run/detect/characterize).

Live telemetry: ``--live`` draws a terminal progress view while an
experiment runs, ``--events-out`` writes the deterministic telemetry event
log, and ``--dashboard`` renders the self-contained HTML dashboard (and
implies ``--metrics``).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack


def _make_env(name: str, faults=None):
    from repro.envs import ENVIRONMENT_FACTORIES

    try:
        return ENVIRONMENT_FACTORIES[name](faults=faults)
    except KeyError:
        raise SystemExit(
            f"unknown environment {name!r}; choose from {sorted(ENVIRONMENT_FACTORIES)}"
        )


def _fault_profile(args: argparse.Namespace):
    """Resolve --faults/--seed into a FaultProfile (None = clean network)."""
    name = getattr(args, "faults", None)
    if not name or name == "none":
        return None
    from repro.netsim.faults import FAULT_PROFILES

    seed = getattr(args, "seed", None)
    return FAULT_PROFILES[name](seed if seed is not None else 0)


def _add_fault_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults",
        choices=("none", "lossy", "bursty", "chaos"),
        default="none",
        help="inject a fault profile into the simulated network",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="fault-injection RNG seed (reproducible runs)"
    )


def _add_pool_arg(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument(
        "--pool",
        choices=("serial", "thread", "process"),
        default=None,
        help=f"worker-pool backend for {what} "
        "(default: REPRO_RUNTIME_BACKEND, serial when unset)",
    )


def _make_trace(args: argparse.Namespace):
    if getattr(args, "trace", None):
        from repro.traffic.trace import Trace

        return Trace.load(args.trace)
    if getattr(args, "builtin", None):
        from repro.traffic.builtin import builtin_trace

        return builtin_trace(args.builtin)
    if getattr(args, "video", False):
        from repro.traffic.video import video_stream_trace

        return video_stream_trace(host=args.host, total_bytes=args.size)
    from repro.traffic.http import http_get_trace

    return http_get_trace(args.host, response_body=b"x" * args.size)


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="video.example.com", help="hostname in the workload")
    parser.add_argument("--video", action="store_true", help="use a video-stream workload")
    parser.add_argument("--size", type=int, default=2_000, help="response body size in bytes")
    parser.add_argument("--trace", help="load a recorded trace JSON instead")
    parser.add_argument(
        "--builtin", help="use a distributed built-in trace (see `liberate traces`)"
    )


def _add_obs_args(parser: argparse.ArgumentParser, workload_trace: bool = False) -> None:
    """Observability flags.

    ``--flow-trace`` is the canonical tracing flag on every subcommand;
    ``--trace`` is accepted as an alias except where *workload_trace* says
    it already means "load a recorded workload trace" (run/detect/
    characterize).
    """
    flags = ("--flow-trace",) if workload_trace else ("--flow-trace", "--trace")
    group = parser.add_argument_group("observability")
    group.add_argument(
        *flags,
        dest="flow_trace",
        action="store_true",
        help="record a flow trace (hop traversals, rule matches, verdicts) "
        "and write it as JSON lines (default file: trace.jsonl)",
    )
    group.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="flow-trace output path (implies tracing; '-' for stdout)",
    )
    group.add_argument(
        "--metrics",
        action="store_true",
        help="collect metrics (packets, drops, rule scans, cache hits) and "
        "print the snapshot after the run",
    )
    group.add_argument(
        "--profile",
        action="store_true",
        help="time each pipeline/experiment stage and print the table",
    )
    group.add_argument(
        "--live",
        action="store_true",
        help="draw a live terminal progress view (cell matrix + ETA) on stderr",
    )
    group.add_argument(
        "--events-out",
        default=None,
        metavar="FILE",
        help="write the telemetry event log as JSON lines (deterministic "
        "under a fixed --seed; '-' for stdout)",
    )
    group.add_argument(
        "--dashboard",
        nargs="?",
        const="dashboard.html",
        default=None,
        metavar="FILE",
        help="render the self-contained HTML dashboard after the run "
        "(default file: dashboard.html; implies --metrics)",
    )
    group.add_argument(
        "--coverage",
        nargs="?",
        const="coverage.json",
        default=None,
        metavar="FILE",
        help="profile rule/automaton coverage (exercised vs. dead rules, "
        "state visits) and write the snapshot as JSON "
        "(default file: coverage.json)",
    )


#: The progress view installed by ``--live`` (torn down in :func:`_finish_obs`).
_LIVE_VIEW = None

#: The recorders one :func:`main` call installed; it restores the previous
#: slots on exit, after :func:`_finish_obs` has read them.
_OBS_SCOPE = ExitStack()


def _install(**recorders: object) -> None:
    """Put *recorders* in their ``repro.obs`` slots for the rest of the run."""
    from repro import obs

    _OBS_SCOPE.enter_context(obs.installed(**recorders))


def _setup_obs(args: argparse.Namespace) -> None:
    """Install the requested recorders before dispatch."""
    global _LIVE_VIEW
    recorders: dict[str, object] = {}
    if getattr(args, "flow_trace", False) or getattr(args, "trace_out", None):
        from repro.obs.trace import FlowTracer

        recorders["TRACER"] = FlowTracer()
    if getattr(args, "coverage", None):
        from repro.obs.coverage import CoverageRecorder

        recorders["COVERAGE"] = CoverageRecorder()
    dashboard = getattr(args, "dashboard", None)
    if getattr(args, "metrics", False) or dashboard:
        # --dashboard implies --metrics: the headline tiles need a snapshot.
        from repro.obs.metrics import MetricsRegistry

        recorders["METRICS"] = MetricsRegistry()
    if getattr(args, "profile", False):
        from repro.obs.profiling import Profiler

        recorders["PROFILER"] = Profiler()
    live = getattr(args, "live", False)
    if live or dashboard or getattr(args, "events_out", None):
        from repro.obs.live import LiveProgressView, TelemetryBus

        bus = recorders["BUS"] = TelemetryBus()
        if live:
            _LIVE_VIEW = LiveProgressView(stream=sys.stderr).attach(bus)
            bus.enable_streaming()
    _install(**recorders)


def _dashboard_model(title: str):
    """Build the report model from whatever recorders this run installed."""
    from repro import obs
    from repro.obs.report_html import build_model

    trace_summary = None
    if obs.TRACER is not None:
        from repro.obs.analyze import summarize_tracer

        trace_summary = summarize_tracer(obs.TRACER)
    return build_model(
        trace_summary=trace_summary,
        metrics=obs.METRICS.snapshot() if obs.METRICS else None,
        profile=obs.PROFILER.snapshot() if obs.PROFILER else None,
        events=obs.BUS.tally() if obs.BUS else None,
        ops=obs.OPS.snapshot() if obs.OPS else None,
        coverage=obs.COVERAGE.snapshot() if obs.COVERAGE else None,
        title=title,
    )


def _finish_obs(args: argparse.Namespace) -> None:
    """Export/print whatever observability was collected, then tear it down."""
    global _LIVE_VIEW
    from repro import obs

    try:
        if _LIVE_VIEW is not None:
            _LIVE_VIEW.finish()
            _LIVE_VIEW = None
        tracer = obs.TRACER
        if tracer is not None:
            out = getattr(args, "trace_out", None) or "trace.jsonl"
            if out == "-":
                tracer.export_jsonl(sys.stdout)
            else:
                count = tracer.export_jsonl(out)
                print(f"wrote {count} trace events to {out}", file=sys.stderr)
        events_out = getattr(args, "events_out", None)
        if events_out and obs.BUS is not None:
            if events_out == "-":
                obs.BUS.export_jsonl(sys.stdout)
            else:
                count = obs.BUS.export_jsonl(events_out)
                print(
                    f"wrote {count} telemetry events to {events_out}", file=sys.stderr
                )
        coverage_out = getattr(args, "coverage", None)
        if coverage_out and obs.COVERAGE is not None:
            import json

            with open(coverage_out, "w", encoding="utf-8") as handle:
                json.dump(obs.COVERAGE.snapshot(), handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"wrote coverage snapshot to {coverage_out}", file=sys.stderr)
        dashboard = getattr(args, "dashboard", None)
        if dashboard:
            from repro.obs.report_html import write_dashboard

            command = getattr(args, "command", None) or "run"
            write_dashboard(
                _dashboard_model(f"lib*erate {command} dashboard"), dashboard
            )
            print(f"wrote dashboard to {dashboard}", file=sys.stderr)
        if obs.METRICS is not None:
            print("\n--- metrics ---")
            print(obs.METRICS.render())
        if obs.PROFILER is not None:
            print("\n--- profile ---")
            print(obs.PROFILER.render())
    finally:
        _OBS_SCOPE.close()


def cmd_envs(_args: argparse.Namespace) -> int:
    """List the available environments."""
    from repro.envs import ENVIRONMENT_FACTORIES

    for name, factory in sorted(ENVIRONMENT_FACTORIES.items()):
        env = factory()
        print(f"{name:10s} signal={env.signal.value:14s} middlebox at hop {env.hops_to_middlebox}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Run the full four-phase pipeline."""
    from repro.core.pipeline import Liberate

    env = _make_env(args.env, faults=_fault_profile(args))
    trace = _make_trace(args)
    report = Liberate(env, stop_at_first=args.fast, seed=args.seed).run(trace)
    print(report.summary())
    if report.evasion is not None and args.verbose:
        for result in report.evasion.results:
            mark = "+" if result.evaded else "-"
            print(f"  {mark} {result.technique:28s} ({result.category})")
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    """Run only the differentiation-detection phase."""
    from repro.core.detection import detect_differentiation

    env = _make_env(args.env, faults=_fault_profile(args))
    trials = 3 if env.reliable_mode else 1
    report = detect_differentiation(env, _make_trace(args), trials=trials)
    print(report.summary())
    return 0 if report.differentiated else 1


def cmd_characterize(args: argparse.Namespace) -> int:
    """Run only the characterization phase."""
    from repro.core.characterization import CharacterizationError, Characterizer

    env = _make_env(args.env, faults=_fault_profile(args))
    trials = 3 if env.reliable_mode else 1
    try:
        report = Characterizer(env, _make_trace(args), trials=trials).run()
    except CharacterizationError as error:
        print(f"characterization failed: {error}", file=sys.stderr)
        return 1
    print(report.summary())
    print(f"rounds={report.rounds} bytes={report.bytes_used}")
    for note in report.notes:
        print(f"note: {note}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Generate and save a workload trace."""
    trace = _make_trace(args)
    trace.save(args.out)
    print(f"saved {trace.name} ({trace.total_bytes()} bytes) to {args.out}")
    return 0


def cmd_traces(args: argparse.Namespace) -> int:
    """List the built-in traces, optionally exporting them all."""
    from repro.traffic.builtin import builtin_trace, builtin_trace_names, export_builtin_traces

    for name in builtin_trace_names():
        trace = builtin_trace(name)
        print(f"{name:14s} {trace.protocol:4s} port {trace.server_port:<5d} "
              f"{trace.total_bytes():>8d} bytes")
    if args.export:
        written = export_builtin_traces(args.export)
        print(f"exported {len(written)} traces to {args.export}")
    return 0


def cmd_table1(_args: argparse.Namespace) -> int:
    """Regenerate Table 1."""
    from repro.experiments.table1 import format_table1, run_table1

    print(format_table1(run_table1()))
    return 0


def cmd_table2(_args: argparse.Namespace) -> int:
    """Regenerate Table 2."""
    from repro.experiments.table2 import format_table2, run_table2

    print(format_table2(run_table2()))
    return 0


def cmd_table3(args: argparse.Namespace) -> int:
    """Regenerate Table 3 and compare against the paper."""
    from repro.experiments.table3 import compare_with_paper, format_table3, run_table3

    faults = _fault_profile(args)
    env_names = (
        tuple(name.strip() for name in args.envs.split(",") if name.strip())
        if getattr(args, "envs", None)
        else None
    )
    kwargs = {"env_names": env_names} if env_names else {}
    if getattr(args, "pool", None):
        from repro.runtime import WorkerPool

        kwargs["pool"] = WorkerPool(args.pool)
    rows = run_table3(characterize=not args.fast, faults=faults, **kwargs)
    if faults is not None:
        print(f"fault profile: {args.faults} (seed {faults.seed})")
    print(format_table3(rows))
    matches, total, mismatches = compare_with_paper(rows)
    print(f"\npaper agreement: {matches}/{total} cells")
    for mismatch in mismatches:
        print(f"  mismatch: {mismatch}")
    return 0


def cmd_figure4(args: argparse.Namespace) -> int:
    """Regenerate Figure 4."""
    from repro.experiments.figure4 import busy_and_quiet_summary, format_figure4, run_figure4

    pool = None
    if getattr(args, "pool", None):
        from repro.runtime import WorkerPool

        pool = WorkerPool(args.pool)
    samples = run_figure4(
        trials=args.trials, faults=_fault_profile(args), seed=args.seed, pool=pool
    )
    print(format_figure4(samples))
    print(busy_and_quiet_summary(samples))
    return 0


def cmd_efficiency(_args: argparse.Namespace) -> int:
    """Regenerate the §6 characterization-efficiency numbers."""
    from repro.experiments.efficiency import format_efficiency, run_all

    print(format_efficiency(run_all()))
    return 0


def cmd_throughput(_args: argparse.Namespace) -> int:
    """Regenerate the §6.2 T-Mobile throughput comparison."""
    from repro.experiments.throughput import format_throughput, run_tmus_throughput

    print(format_throughput(run_tmus_throughput()))
    return 0


def cmd_bilateral(_args: argparse.Namespace) -> int:
    """Run the bilateral (server-supported) evasion matrix (§7)."""
    from repro.experiments.bilateral import format_bilateral, run_bilateral_matrix

    print(format_bilateral(run_bilateral_matrix()))
    return 0


def cmd_scale(args: argparse.Namespace) -> int:
    """Run the bounded flow-state churn workload."""
    import json

    from repro.experiments.scale import ScaleConfig, format_scale, run_scale

    config = ScaleConfig(
        flows=args.flows,
        packets_per_flow=args.packets_per_flow,
        filler_bytes=args.filler_bytes,
        max_flows=args.max_flows,
        flow_byte_budget=args.byte_budget,
        shed=args.shed,
        shed_seed=args.seed if args.seed is not None else ScaleConfig.shed_seed,
    )
    result = run_scale(config)
    if args.json:
        print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
    else:
        print(format_scale(result))
    return 0


def cmd_congest(args: argparse.Namespace) -> int:
    """Run the scheduled interleaved-flow congestion workload."""
    import json

    from repro.experiments.congestion import (
        CongestionConfig,
        format_congestion,
        run_congestion,
    )

    config = CongestionConfig(
        flows=args.flows,
        packets_per_flow=args.packets_per_flow,
        payload_bytes=args.payload_bytes,
        spacing=args.spacing,
        stagger=args.stagger,
        env_name=args.env,
        host=args.host,
    )
    result = run_congestion(config)
    if args.json:
        print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
    else:
        print(format_congestion(result))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve live loopback connections through the fallback ladder (§8)."""
    import asyncio
    import json

    from repro.core.pipeline import Liberate
    from repro.core.proxy_server import ProxyServer, drive_clients
    from repro.obs import ops as obs_ops
    from repro.obs.flight import FlightRecorder
    from repro.traffic.trace import invert_bits

    env = _make_env(args.env, faults=_fault_profile(args))
    base = _make_trace(args)
    pipeline = Liberate(env, seed=args.seed)
    try:
        ladder = pipeline.deploy_ladder(
            base, window=args.window, failure_threshold=args.failure_threshold
        )
    except RuntimeError as error:
        print(f"cannot serve: {error}", file=sys.stderr)
        return 1
    overload = None
    if args.shed:
        from repro.middlebox.overload import OverloadPolicy

        overload = OverloadPolicy(
            seed=args.seed if args.seed is not None else OverloadPolicy.seed,
            shed_start=args.shed_start,
        )
    server = ProxyServer(
        ladder,
        host=args.bind,
        port=args.port,
        max_active=args.max_active,
        overload=overload,
        server_port=base.server_port,
    )

    # The operational layer is always-on for serving: latency recorders
    # cost one bisect per sample, and the flight recorder keeps sampled
    # evidence so a degradation mid-serve leaves a dump behind.  Both live
    # in the segregated ops namespace — experiment determinism is untouched.
    recorders: dict[str, object] = {"OPS": obs_ops.OpsRegistry()}
    if not args.no_flight:
        recorders["FLIGHT"] = FlightRecorder(args.flight_dir, sample_every=args.flight_sample)
    _install(**recorders)
    slo = obs_ops.SLOPolicy(verdict_p99_ms=args.slo_p99_ms)
    ops_server = (
        obs_ops.OpsServer(server, host=args.bind, port=args.ops_port, slo=slo)
        if args.ops_port is not None
        else None
    )

    if args.selfcheck:
        matching = base.client_payloads()[0]
        # Two canonical payload objects referenced N times — the workload
        # list costs one pointer per flow, not one buffer per flow.
        payloads = [
            matching if i % 2 == 0 else invert_bits(matching)
            for i in range(args.selfcheck)
        ]
        tally = {"verdicts_returned": 0, "evaded_verdicts": 0}

        def _tally(_index: int, verdict: dict) -> None:
            # Streamed, never accumulated: the smoke run's memory footprint
            # must stay O(concurrency) no matter how many flows it serves.
            tally["verdicts_returned"] += 1
            tally["evaded_verdicts"] += 1 if verdict.get("evaded") else 0

        ops_report: dict = {}

        async def _selfcheck() -> None:
            await server.start()
            if ops_server is not None:
                await ops_server.start()
                ops_report["port"] = ops_server.bound_port
            try:
                await drive_clients(
                    "127.0.0.1",
                    server.bound_port,
                    payloads,
                    concurrency=args.concurrency,
                    on_verdict=_tally,
                )
                if ops_server is not None:
                    # Exercise the surfaces over a real socket while the
                    # proxy is still up — the selfcheck proves the endpoint
                    # serves, not just that the handlers exist.
                    host = "127.0.0.1" if args.bind == "0.0.0.0" else args.bind
                    code, body = await obs_ops.http_get(
                        host, ops_server.bound_port, "/healthz"
                    )
                    ops_report["healthz_status"] = code
                    ops_report["healthz"] = json.loads(body)
                    code, body = await obs_ops.http_get(
                        host, ops_server.bound_port, "/metrics"
                    )
                    ops_report["metrics_status"] = code
                    ops_report["metrics_series"] = sum(
                        1
                        for line in body.splitlines()
                        if line and not line.startswith("#")
                    )
            finally:
                if ops_server is not None:
                    await ops_server.stop()
                await server.stop()

        asyncio.run(_selfcheck())
        report = server.snapshot()
        report.update(tally)
        if ops_report:
            report["ops"] = ops_report
        # ru_maxrss is process-lifetime-monotonic: the proxy-smoke CI job
        # compares this across two separate interpreters to prove that
        # serving more flows doesn't grow per-flow server state.
        from repro.obs import profiling as obs_profiling

        report["peak_rss_kb"] = obs_profiling.peak_rss_kb()
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0 if tally["verdicts_returned"] == len(payloads) else 1

    async def _serve() -> None:
        await server.start()
        if ops_server is not None:
            await ops_server.start()
            print(
                f"ops endpoint on {args.bind}:{ops_server.bound_port} "
                "(/metrics /healthz /statusz)",
                file=sys.stderr,
            )
        print(
            f"serving {env.name} via {ladder.active_technique.name} "
            f"on {args.bind}:{server.bound_port} (ctrl-c to stop)",
            file=sys.stderr,
        )
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print(json.dumps(server.snapshot(), indent=2, sort_keys=True))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Regenerate the full measured-results markdown report."""
    from repro.experiments.reportgen import write_report

    target = write_report(args.out, figure4_trials=args.trials)
    print(f"wrote {target}")
    return 0


def cmd_countermeasures(_args: argparse.Namespace) -> int:
    """Run the §4.3 normalizer countermeasure study."""
    from repro.experiments.countermeasures import (
        format_countermeasures,
        run_countermeasure_study,
    )

    print(format_countermeasures(run_countermeasure_study()))
    return 0


def cmd_obs_query(args: argparse.Namespace) -> int:
    """Query an exported flow trace by kind / flow / rule / element."""
    import json

    from repro.obs.analyze import TraceIndex, format_events

    index = TraceIndex.load(args.trace_file)
    if args.timeline:
        try:
            events = index.timeline(args.timeline)
        except ValueError as error:
            print(f"obs query: {error}", file=sys.stderr)
            return 2
    else:
        events = index.query(
            kind=args.kind,
            flow=args.flow,
            rule=args.rule,
            element=args.element,
            limit=args.limit,
        )
    if args.json:
        for event in events:
            print(json.dumps(event, sort_keys=True))
    else:
        print(format_events(events))
    return 0


def cmd_obs_flight(args: argparse.Namespace) -> int:
    """Inspect a flight-recorder dump (trace-shaped JSONL)."""
    import json

    from repro.obs.analyze import TraceIndex, format_events

    try:
        index = TraceIndex.load(args.dump_file)
    except (OSError, json.JSONDecodeError) as error:
        print(f"obs flight: {error}", file=sys.stderr)
        return 2
    # The trip record carries the anomaly that caused the dump; lead with it.
    trips = index.query(kind="flight.trip")
    events = index.query(kind=args.kind, limit=args.limit)
    if args.json:
        for event in events:
            print(json.dumps(event, sort_keys=True))
        return 0
    if trips:
        for trip in trips:
            reason = trip.get("reason", "?")
            episode = trip.get("episode", reason)
            print(f"trip: {reason} (episode {episode})")
    print(format_events(events))
    return 0


def cmd_obs_report(args: argparse.Namespace) -> int:
    """Aggregate an exported flow trace into a summary report."""
    import json

    from repro.obs.analyze import TraceIndex, format_summary
    from repro.obs.report_html import build_model

    # Same report model the HTML dashboard renders; this view prints the
    # trace section.
    model = build_model(trace_summary=TraceIndex.load(args.trace_file).summary())
    summary = model["trace"]
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(format_summary(summary))
    return 0


def cmd_obs_html(args: argparse.Namespace) -> int:
    """Render (or --check) the self-contained HTML experiment dashboard."""
    import json

    from repro.obs.report_html import (
        build_model,
        load_model,
        missing_metric_keys,
        write_dashboard,
    )

    if args.check:
        try:
            model = load_model(args.check)
        except (OSError, ValueError, json.JSONDecodeError) as error:
            print(f"obs html: {error}", file=sys.stderr)
            return 2
        missing = missing_metric_keys(model)
        if missing:
            print(
                "obs html: dashboard references metric key(s) absent from "
                f"the snapshot: {', '.join(missing)}",
                file=sys.stderr,
            )
            return 1
        print(f"{args.check}: all headline metric keys present")
        return 0
    if not args.trace_file:
        print("obs html: a trace file is required (or use --check)", file=sys.stderr)
        return 2
    from repro.obs.analyze import TraceIndex

    metrics = None
    if args.metrics_file:
        with open(args.metrics_file, encoding="utf-8") as handle:
            metrics = json.load(handle)
    coverage = None
    if args.coverage_file:
        from repro.obs.coverage import load_snapshot

        try:
            coverage = load_snapshot(args.coverage_file)
        except (OSError, ValueError, json.JSONDecodeError) as error:
            print(f"obs html: {error}", file=sys.stderr)
            return 2
    history = flags = None
    if args.history:
        from repro.obs.history import load_history

        history = load_history(args.history)
    model = build_model(
        trace_summary=TraceIndex.load(args.trace_file).summary(),
        metrics=metrics,
        coverage=coverage,
        history=history,
        flags=flags,
        title=args.title,
    )
    write_dashboard(model, args.out)
    print(f"wrote dashboard to {args.out}")
    return 0


def cmd_obs_diff(args: argparse.Namespace) -> int:
    """Diff two exported traces; exit 1 when they structurally diverge."""
    import json

    from repro.obs.diff import diff_traces, explain
    from repro.obs.trace import load_jsonl

    diff = diff_traces(
        load_jsonl(args.left), load_jsonl(args.right), context=args.context
    )
    if args.json:
        print(json.dumps(diff.as_dict(), indent=2, sort_keys=True))
    else:
        print(explain(diff, left_name=args.left, right_name=args.right))
    return 0 if diff.identical else 1


def cmd_obs_explain(args: argparse.Namespace) -> int:
    """Reconstruct a flow's verdict-provenance chain from an exported trace."""
    import json

    from repro.obs.analyze import TraceIndex
    from repro.obs.provenance import explain_flow, format_explain

    try:
        index = TraceIndex.load(args.trace_file)
    except (OSError, json.JSONDecodeError) as error:
        print(f"obs explain: {error}", file=sys.stderr)
        return 2
    try:
        chain = explain_flow(index, args.flow)
    except ValueError as error:
        print(f"obs explain: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(chain, indent=2, sort_keys=True))
    else:
        print(format_explain(chain))
    return 0 if chain["resolved"] is not None else 2


def cmd_obs_coverage(args: argparse.Namespace) -> int:
    """Report rule/automaton coverage from a --coverage snapshot."""
    import json

    from repro.obs.coverage import format_snapshot, load_snapshot

    try:
        snapshot = load_snapshot(args.snapshot)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"obs coverage: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        print(format_snapshot(snapshot))
    if args.fail_on_dead:
        dead = sum(
            len(scope.get("dead", ())) for scope in snapshot.get("scopes", {}).values()
        )
        if dead:
            print(f"obs coverage: {dead} dead rule(s)", file=sys.stderr)
            return 1
    return 0


def cmd_obs_witness(args: argparse.Namespace) -> int:
    """Delta-debug a payload to the minimal bytes preserving its verdict."""
    import json

    from repro.obs.witness import format_witness, minimal_payload_witness

    if args.payload_file:
        with open(args.payload_file, "rb") as handle:
            payload = handle.read()
    elif args.hex:
        try:
            payload = bytes.fromhex(args.hex)
        except ValueError as error:
            print(f"obs witness: bad --hex payload: {error}", file=sys.stderr)
            return 2
    else:
        payload = args.payload.encode("utf-8")
    try:
        report = minimal_payload_witness(
            args.env, payload, protocol=args.protocol, server_port=args.port
        )
    except ValueError as error:
        print(f"obs witness: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_witness(report))
    return 0


def cmd_obs_watch(args: argparse.Namespace) -> int:
    """Check BENCH_*.json payloads against the benchmark history."""
    import time

    from repro.obs.history import run_watch

    return run_watch(
        args.results_dir,
        history_path=args.history,
        threshold=args.threshold,
        benches=args.benches,
        append=args.append,
        window=args.window,
        json_output=args.json,
        timestamp=time.time(),
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="liberate",
        description="lib*erate (IMC 2017) reproduction: expose traffic-classification "
        "rules and evade them, over simulated middlebox environments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("envs", help="list environments").set_defaults(func=cmd_envs)

    run = sub.add_parser("run", help="full pipeline against one environment")
    run.add_argument("--env", default="testbed")
    run.add_argument("--fast", action="store_true", help="stop at the first working technique")
    run.add_argument("--verbose", action="store_true")
    _add_workload_args(run)
    _add_fault_args(run)
    _add_obs_args(run, workload_trace=True)
    run.set_defaults(func=cmd_run)

    serve = sub.add_parser(
        "serve", help="live transparent proxy: real sockets through the fallback ladder"
    )
    serve.add_argument("--env", default="testbed")
    serve.add_argument("--bind", default="127.0.0.1", help="listen address")
    serve.add_argument("--port", type=int, default=0, help="listen port (0 = pick free)")
    serve.add_argument(
        "--window", type=int, default=5, help="fallback-ladder health window (flows)"
    )
    serve.add_argument(
        "--failure-threshold",
        type=int,
        default=3,
        help="unhealthy flows in the window that trigger a ladder step-down",
    )
    serve.add_argument(
        "--max-active",
        type=int,
        default=512,
        help="concurrent-connection capacity (the overload denominator)",
    )
    serve.add_argument(
        "--shed", action="store_true", help="enable deterministic admission load-shedding"
    )
    serve.add_argument(
        "--shed-start",
        type=float,
        default=0.95,
        help="fullness watermark where admission shedding begins",
    )
    serve.add_argument(
        "--selfcheck",
        type=int,
        default=0,
        metavar="N",
        help="serve N loopback flows from this process, print the verdict "
        "summary and exit (CI smoke mode)",
    )
    serve.add_argument(
        "--concurrency",
        type=int,
        default=64,
        help="concurrent selfcheck clients",
    )
    serve.add_argument(
        "--ops-port",
        type=int,
        default=None,
        metavar="PORT",
        help="expose /metrics, /healthz and /statusz on this port "
        "(0 picks a free port); off when omitted",
    )
    serve.add_argument(
        "--slo-p99-ms",
        type=float,
        default=None,
        metavar="MS",
        help="p99 verdict-latency SLO in milliseconds; breaches degrade "
        "/healthz and trip the flight recorder",
    )
    serve.add_argument(
        "--flight-dir",
        default=".",
        metavar="DIR",
        help="directory flight-recorder dumps are written into",
    )
    serve.add_argument(
        "--flight-sample",
        type=int,
        default=16,
        metavar="N",
        help="flight recorder keeps 1 in N flow records",
    )
    serve.add_argument(
        "--no-flight",
        action="store_true",
        help="disable the always-on flight recorder",
    )
    _add_workload_args(serve)
    _add_fault_args(serve)
    _add_obs_args(serve, workload_trace=True)
    serve.set_defaults(func=cmd_serve)

    congest = sub.add_parser(
        "congest", help="congestion workload: scheduled flows interleaved on one path"
    )
    congest.add_argument("--env", default="tmobile")
    congest.add_argument("--flows", type=int, default=200, help="concurrent flows")
    congest.add_argument(
        "--packets-per-flow", type=int, default=4, help="payload packets per flow"
    )
    congest.add_argument(
        "--payload-bytes", type=int, default=400, help="request padding bytes"
    )
    congest.add_argument(
        "--spacing",
        type=float,
        default=0.004,
        help="virtual seconds between one flow's packets",
    )
    congest.add_argument(
        "--stagger",
        type=float,
        default=0.001,
        help="arrival offset between consecutive flows",
    )
    congest.add_argument(
        "--host", default="video.example.com", help="hostname carried in every request"
    )
    congest.add_argument("--json", action="store_true", help="machine-readable output")
    _add_obs_args(congest)
    congest.set_defaults(func=cmd_congest)

    detect = sub.add_parser("detect", help="differentiation detection only")
    detect.add_argument("--env", default="testbed")
    _add_workload_args(detect)
    _add_fault_args(detect)
    _add_obs_args(detect, workload_trace=True)
    detect.set_defaults(func=cmd_detect)

    char = sub.add_parser("characterize", help="classifier characterization only")
    char.add_argument("--env", default="testbed")
    _add_workload_args(char)
    _add_fault_args(char)
    _add_obs_args(char, workload_trace=True)
    char.set_defaults(func=cmd_characterize)

    trace = sub.add_parser("trace", help="generate + save a workload trace")
    trace.add_argument("--out", required=True)
    _add_workload_args(trace)
    trace.set_defaults(func=cmd_trace)

    traces = sub.add_parser("traces", help="list / export the built-in trace set")
    traces.add_argument("--export", help="directory to export all traces into")
    traces.set_defaults(func=cmd_traces)

    sub.add_parser("table1", help="regenerate Table 1").set_defaults(func=cmd_table1)
    sub.add_parser("table2", help="regenerate Table 2").set_defaults(func=cmd_table2)
    t3 = sub.add_parser("table3", help="regenerate Table 3")
    t3.add_argument("--fast", action="store_true", help="skip the characterization phase")
    t3.add_argument(
        "--envs",
        default=None,
        help="comma-separated environment subset (e.g. 'testbed' for one cell)",
    )
    _add_pool_arg(t3, "the environment columns")
    _add_fault_args(t3)
    _add_obs_args(t3)
    t3.set_defaults(func=cmd_table3)
    f4 = sub.add_parser("figure4", help="regenerate Figure 4")
    f4.add_argument("--trials", type=int, default=6)
    _add_pool_arg(f4, "the (hour, trial) sweep")
    _add_fault_args(f4)
    _add_obs_args(f4)
    f4.set_defaults(func=cmd_figure4)
    sub.add_parser("efficiency", help="regenerate §6 efficiency numbers").set_defaults(
        func=cmd_efficiency
    )
    sub.add_parser("throughput", help="regenerate §6.2 throughput numbers").set_defaults(
        func=cmd_throughput
    )
    sub.add_parser("bilateral", help="run the §7 bilateral evasion matrix").set_defaults(
        func=cmd_bilateral
    )
    sub.add_parser(
        "countermeasures", help="run the §4.3 normalizer countermeasure study"
    ).set_defaults(func=cmd_countermeasures)
    scale = sub.add_parser(
        "scale", help="bounded flow-state churn workload (LRU, expiry lanes, shedding)"
    )
    scale.add_argument("--flows", type=int, default=100_000, help="distinct flows to churn")
    scale.add_argument(
        "--packets-per-flow", type=int, default=2, help="payload packets per flow"
    )
    scale.add_argument(
        "--filler-bytes", type=int, default=0, help="payload padding (drives the byte budget)"
    )
    scale.add_argument("--max-flows", type=int, default=8_192, help="engine flow-table capacity")
    scale.add_argument(
        "--byte-budget", type=int, default=None, help="scan-buffer byte bound across flows"
    )
    scale.add_argument(
        "--shed", action="store_true", help="enable deterministic admission load-shedding"
    )
    scale.add_argument("--seed", type=int, default=None, help="load-shedding coin seed")
    scale.add_argument("--json", action="store_true", help="machine-readable output")
    _add_obs_args(scale)
    scale.set_defaults(func=cmd_scale)

    report = sub.add_parser("report", help="regenerate the measured-results report")
    report.add_argument("--out", required=True)
    report.add_argument("--trials", type=int, default=3, help="Figure 4 trials per hour")
    report.set_defaults(func=cmd_report)

    obs = sub.add_parser("obs", help="analyze exported flow traces + benchmark history")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    query = obs_sub.add_parser("query", help="filter events of an exported trace")
    query.add_argument("trace_file", help="exported JSONL trace")
    query.add_argument("--kind", help="event kind, exact or dotted prefix (e.g. 'mbx')")
    query.add_argument("--flow", help="flow key or any substring of one")
    query.add_argument("--rule", help="exact rule id")
    query.add_argument("--element", help="exact network-element name")
    query.add_argument("--limit", type=int, default=None, help="stop after N events")
    query.add_argument(
        "--timeline",
        metavar="FLOW",
        help="print one flow's full timeline instead (exact key or substring)",
    )
    query.add_argument("--json", action="store_true", help="one JSON event per line")
    query.set_defaults(func=cmd_obs_query)

    odiff = obs_sub.add_parser(
        "diff", help="first divergence between two traces (exit 1 when they differ)"
    )
    odiff.add_argument("left", help="baseline trace (JSONL)")
    odiff.add_argument("right", help="candidate trace (JSONL)")
    odiff.add_argument(
        "--context", type=int, default=3, help="common events to show before the divergence"
    )
    odiff.add_argument("--json", action="store_true", help="machine-readable output")
    odiff.set_defaults(func=cmd_obs_diff)

    oexplain = obs_sub.add_parser(
        "explain", help="reconstruct a flow's verdict-provenance chain from a trace"
    )
    oexplain.add_argument("trace_file", help="exported JSONL trace")
    oexplain.add_argument(
        "--flow",
        required=True,
        metavar="KEY",
        help="flow key (src:sport>dst:dport/proto) or any unambiguous substring",
    )
    oexplain.add_argument("--json", action="store_true", help="machine-readable chain")
    oexplain.set_defaults(func=cmd_obs_explain)

    ocoverage = obs_sub.add_parser(
        "coverage", help="report exercised vs. dead rules from a --coverage snapshot"
    )
    ocoverage.add_argument("snapshot", help="coverage snapshot JSON (from --coverage)")
    ocoverage.add_argument(
        "--fail-on-dead",
        action="store_true",
        help="exit 1 when any registered rule was never exercised",
    )
    ocoverage.add_argument("--json", action="store_true", help="machine-readable output")
    ocoverage.set_defaults(func=cmd_obs_coverage)

    owitness = obs_sub.add_parser(
        "witness", help="delta-debug a payload to the minimal bytes behind a verdict"
    )
    owitness.add_argument("--env", required=True, help="environment to probe")
    payload_group = owitness.add_mutually_exclusive_group(required=True)
    payload_group.add_argument("--payload", help="payload as UTF-8 text")
    payload_group.add_argument(
        "--payload-file", metavar="FILE", help="payload from a binary file"
    )
    payload_group.add_argument("--hex", help="payload as hex bytes")
    owitness.add_argument(
        "--protocol", choices=("tcp", "udp"), default="tcp", help="transport protocol"
    )
    owitness.add_argument("--port", type=int, default=80, help="server port to probe")
    owitness.add_argument("--json", action="store_true", help="machine-readable report")
    owitness.set_defaults(func=cmd_obs_witness)

    oflight = obs_sub.add_parser(
        "flight", help="inspect a flight-recorder dump (the sampled anomaly evidence)"
    )
    oflight.add_argument("dump_file", help="flight dump JSONL (flight-NNN-<reason>.jsonl)")
    oflight.add_argument("--kind", default=None, help="filter records by kind")
    oflight.add_argument(
        "--limit", type=int, default=None, help="show at most N records"
    )
    oflight.add_argument("--json", action="store_true", help="machine-readable output")
    oflight.set_defaults(func=cmd_obs_flight)

    oreport = obs_sub.add_parser("report", help="aggregate summary of an exported trace")
    oreport.add_argument("trace_file", help="exported JSONL trace")
    oreport.add_argument("--json", action="store_true", help="machine-readable output")
    oreport.set_defaults(func=cmd_obs_report)

    ohtml = obs_sub.add_parser(
        "html", help="render the self-contained HTML dashboard from a trace"
    )
    ohtml.add_argument(
        "trace_file", nargs="?", default=None, help="exported JSONL trace"
    )
    ohtml.add_argument(
        "--metrics-file",
        default=None,
        metavar="FILE",
        help="metrics snapshot JSON to include (headline tiles + sparklines)",
    )
    ohtml.add_argument(
        "--coverage-file",
        default=None,
        metavar="FILE",
        help="coverage snapshot JSON to include (rule/automaton coverage section)",
    )
    ohtml.add_argument(
        "--history",
        default=None,
        metavar="FILE",
        help="benchmark history JSONL to include as a trend section",
    )
    ohtml.add_argument("--out", default="dashboard.html", help="output HTML path")
    ohtml.add_argument(
        "--title", default="lib*erate experiment dashboard", help="page heading"
    )
    ohtml.add_argument(
        "--check",
        default=None,
        metavar="DASHBOARD",
        help="instead of rendering, verify a rendered dashboard's headline "
        "metric keys all exist in its embedded snapshot (exit 1 on drift)",
    )
    ohtml.set_defaults(func=cmd_obs_html)

    watch = obs_sub.add_parser(
        "watch", help="flag benchmark regressions vs. the recorded history"
    )
    watch.add_argument(
        "--results-dir", default="benchmarks/results", help="directory of BENCH_*.json files"
    )
    watch.add_argument(
        "--history", default=None, help="history JSONL (default: <results-dir>/BENCH_history.jsonl)"
    )
    watch.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="noise band: flag seconds beyond median*(1+threshold)",
    )
    watch.add_argument("--benches", nargs="*", default=None, help="restrict to these benchmarks")
    watch.add_argument(
        "--append", action="store_true", help="record current payloads into the history"
    )
    watch.add_argument("--window", type=int, default=50, help="rolling window per benchmark")
    watch.add_argument("--json", action="store_true", help="machine-readable output")
    watch.set_defaults(func=cmd_obs_watch)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``liberate`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _setup_obs(args)
    try:
        return args.func(args)
    finally:
        _finish_obs(args)


if __name__ == "__main__":
    raise SystemExit(main())
