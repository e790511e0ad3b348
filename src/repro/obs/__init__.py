"""``repro.obs`` — flow tracing, metrics, and profiling hooks.

Three independent, individually-toggled facilities, all **off by default**
with near-zero disabled overhead (one attribute load + ``is not None`` per
instrumented site):

* :mod:`repro.obs.trace` — the flow tracer: a flight-recorder ring buffer of
  span/event records covering hop traversals, fragment reassembly, rule
  matches, classifier state transitions and replay-layer ARQ, exportable as
  deterministic JSON lines (``--trace`` / ``--trace-out``).
* :mod:`repro.obs.metrics` — counters/gauges/histograms with a sorted
  snapshot, embedded in reports and printable from the CLI (``--metrics``).
* :mod:`repro.obs.profiling` — opt-in per-stage wall/CPU timers surfaced in
  ``BENCH_*.json``.

On top of the recorders sit the analysis tools:

* :mod:`repro.obs.analyze` — the trace query engine (``liberate obs
  query`` / ``obs report``): index an exported trace by flow, kind and
  rule; timelines and aggregate statistics.
* :mod:`repro.obs.diff` — differential trace diffing (``liberate obs
  diff``): align two traces and report the first structural and first
  decision divergence.
* :mod:`repro.obs.history` — the benchmark-regression watchdog engine
  (``liberate obs watch`` / ``benchmarks/watchdog.py``).
* :mod:`repro.obs.live` — the telemetry event bus: structured lifecycle
  events (experiment/cell/sample progress, pool dispatch/retry/circuit,
  fault injections, verdicts) buffered per pool task for a byte-deterministic
  ``events.jsonl`` and optionally streamed to a live terminal progress view.
* :mod:`repro.obs.report_html` — the zero-dependency, self-contained HTML
  experiment dashboard (``liberate obs html`` / ``--dashboard``).
* :mod:`repro.obs.coverage` — the rule/automaton coverage profiler
  (``--coverage`` / ``liberate obs coverage``): per-rule hit counts against
  a registered universe (dead-rule reporting), automaton state/edge visit
  arrays, and the env × technique coverage matrix.
* :mod:`repro.obs.provenance` — the verdict-provenance reconstructor
  (``liberate obs explain``): fold an exported trace into per-flow causal
  chains linking each verdict to the rule, bytes, normalizer/fragment and
  state decisions that produced it.
* :mod:`repro.obs.witness` — the minimal-witness extractor (``liberate obs
  witness``): delta-debug a payload down to the minimal byte set that still
  flips a classifier's verdict, replayed through the deterministic netsim.

The live serving path adds the **operational** layer (wall-clock by design,
segregated from every deterministic guarantee above):

* :mod:`repro.obs.ops` — log-bucketed latency recorders, SLO policies and
  the asyncio ops endpoint (``/metrics`` / ``/healthz`` / ``/statusz``
  behind ``liberate serve --ops-port``).
* :mod:`repro.obs.flight` — the always-on sampled flight recorder that
  dumps trace-shaped JSONL evidence once per anomaly episode
  (``liberate obs flight``).

The package re-exports nothing.  Import the submodule you use, as the
instrumented layers do (``from repro.obs import metrics as obs_metrics``),
so that recording a counter does not load the analysis tools, the HTML
dashboard or the asyncio ops server.  Only :func:`observability_off` lives
here.

See ``docs/OBSERVABILITY.md`` for the trace schema, metric catalog and the
"Operating liberate live" runbook.
"""


def observability_off() -> None:
    """Disable every obs facility in one call (test teardown)."""
    from repro.obs.coverage import disable_coverage
    from repro.obs.flight import disable_flight
    from repro.obs.live import disable_bus
    from repro.obs.metrics import disable_metrics
    from repro.obs.ops import disable_ops
    from repro.obs.profiling import disable_profiling
    from repro.obs.trace import disable_tracing

    disable_tracing()
    disable_metrics()
    disable_profiling()
    disable_bus()
    disable_ops()
    disable_flight()
    disable_coverage()
