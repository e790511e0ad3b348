"""The four-phase lib·erate orchestrator (Figure 1)."""

from __future__ import annotations

from repro import obs
from repro.core.cache import RuleCache
from repro.core.characterization import CharacterizationError, Characterizer
from repro.core.deployment import FallbackLadder, LiberateProxy
from repro.core.detection import detect_differentiation
from repro.core.evaluation import EvasionEvaluator
from repro.core.evasion import ALL_TECHNIQUES, techniques_by_name
from repro.core.evasion.base import EvasionContext, EvasionTechnique
from repro.core.localization import locate_middlebox
from repro.core.report import CharacterizationReport, LiberateReport
from repro.envs.base import Environment
from repro.obs import profiling as obs_profiling
from repro.traffic.trace import Trace


class Liberate:
    """Automatic, adaptive, unilateral evasion of DPI differentiation.

    Typical use::

        lib = Liberate(env)
        report = lib.run(trace)          # detect → characterize → evaluate
        proxy = lib.deploy(trace)        # apply the best technique at runtime

    Args:
        env: the network environment the application runs in.
        techniques: the evasion taxonomy (defaults to all of Table 3).
        stop_at_first: during evaluation, stop at the first working
            technique (fast deployment mode) instead of trying everything
            (the paper's study mode).
        trials: per-probe repetition for noisy (fault-injected) networks;
            flows through detection/characterization/localization voting.
            ``None`` picks 3 when the environment has faults installed and 1
            (the historical single-shot path) otherwise.
        seed: the fault/RNG seed this run was performed under; recorded in
            every report for reproducibility.  ``None`` falls back to the
            environment's fault-profile seed when faults are installed.
    """

    def __init__(
        self,
        env: Environment,
        techniques: tuple[EvasionTechnique, ...] = ALL_TECHNIQUES,
        stop_at_first: bool = False,
        cache: "RuleCache | None" = None,
        trials: int | None = None,
        seed: int | None = None,
    ) -> None:
        self.env = env
        self.techniques = techniques
        self.stop_at_first = stop_at_first
        self.cache = cache
        if trials is None:
            trials = 3 if env.reliable_mode else 1
        self.trials = max(trials, 1)
        if seed is None and env.fault_profile is not None:
            seed = env.fault_profile.seed
        self.seed = seed
        self.last_report: LiberateReport | None = None

    # ------------------------------------------------------------------
    # the four phases
    # ------------------------------------------------------------------
    def run(self, trace: Trace) -> LiberateReport:
        """Execute detection, characterization, localization and evaluation."""
        with self._phase("detect", trace):
            detection = detect_differentiation(self.env, trace, trials=self.trials)
        report = LiberateReport(
            environment=self.env.name, trace=trace.name, detection=detection, seed=self.seed
        )
        if not detection.differentiated:
            return self._finish(report)
        if not detection.content_based:
            detection.notes.append("differentiation is not content-based; out of scope")
            return self._finish(report)

        with self._phase("characterize", trace):
            characterization = self.characterize(trace)
        report.characterization = characterization

        with self._phase("localize", trace):
            hops, probe_rounds = locate_middlebox(self.env, trace, trials=self.trials)
        characterization.notes.append(
            f"middlebox located {hops} hop(s) out"
            if hops is not None
            else "middlebox not locatable by TTL probing"
        )
        characterization.rounds += probe_rounds

        context = self.build_context(characterization, hops, trace)
        evaluator = EvasionEvaluator(
            self.env,
            trace,
            context,
            techniques=self.techniques,
            stop_at_first=self.stop_at_first,
        )
        with self._phase("evaluate", trace):
            report.evasion = evaluator.run()
        best = report.evasion.best()
        report.deployed_technique = best.technique if best else None
        return self._finish(report)

    def _phase(self, name: str, trace: Trace):
        """Time one pipeline phase and mark its boundaries in the trace."""
        if obs.EVENTS is not None:
            obs.EVENTS.emit(
                "pipeline.phase", self.env.clock.now, env=self.env.name, trace_name=trace.name,
                phase_name=name,
            )
        return obs_profiling.stage(f"pipeline.{name}")

    def _finish(self, report: LiberateReport) -> LiberateReport:
        """Attach observability snapshots (when collecting) and store the report."""
        if obs.METRICS is not None:
            report.metrics = obs.METRICS.snapshot()
        if obs.PROFILER is not None:
            report.profile = obs.PROFILER.snapshot()
        if obs.TRACER is not None:
            from repro.obs.analyze import summarize_tracer

            report.trace_summary = summarize_tracer(obs.TRACER)
        self.last_report = report
        return report

    def characterize(self, trace: Trace) -> CharacterizationReport:
        """Phase 2, consulting the shared rule cache (§4.2) when present."""
        if self.cache is not None:
            cached = self.cache.get(self.env.name, trace.name)
            if cached is not None:
                return cached
        report = Characterizer(self.env, trace, trials=self.trials).run()
        if self.cache is not None:
            self.cache.put(self.env.name, trace.name, report)
        return report

    def build_context(
        self,
        characterization: CharacterizationReport,
        hops: int | None,
        trace: Trace,
    ) -> EvasionContext:
        """Translate phase-2/localization results into technique parameters."""
        return EvasionContext(
            matching_fields=characterization.matching_fields,
            packet_limit=characterization.packet_limit,
            inspects_all_packets=characterization.inspects_all_packets,
            match_and_forget=characterization.match_and_forget,
            middlebox_hops=hops,
            protocol=trace.protocol,
        )

    # ------------------------------------------------------------------
    # deployment
    # ------------------------------------------------------------------
    def deploy(self, trace: Trace) -> LiberateProxy:
        """Run the pipeline if needed, then deploy the best technique.

        Raises RuntimeError when no technique evades (e.g. AT&T's
        transparent proxy — the paper's one unbeatable middlebox).
        """
        if self.last_report is None or self.last_report.trace != trace.name:
            self.run(trace)
        report = self.last_report
        assert report is not None
        if report.evasion is None or report.evasion.best() is None:
            raise RuntimeError(f"no working evasion technique for {trace.name} in {self.env.name}")
        best = report.evasion.best()
        assert best is not None
        technique = techniques_by_name()[best.technique]
        assert report.characterization is not None
        hops = None
        context = EvasionContext(
            matching_fields=report.characterization.matching_fields,
            packet_limit=report.characterization.packet_limit,
            inspects_all_packets=report.characterization.inspects_all_packets,
            match_and_forget=report.characterization.match_and_forget,
            middlebox_hops=self.env.hops_to_middlebox,
            protocol=trace.protocol,
        )
        proxy = LiberateProxy(self.env, technique, context)
        proxy.on_rule_change = lambda: self._readapt(proxy, trace)
        return proxy

    def deploy_ladder(
        self, trace: Trace, window: int = 5, failure_threshold: int = 3
    ) -> FallbackLadder:
        """Deploy all working techniques as a graceful-degradation ladder.

        The evaluation phase's working techniques are ranked cheapest first
        (delay, then packets, then bytes — the same order :meth:`deploy`
        picks its single best from) and wrapped in a
        :class:`~repro.core.deployment.FallbackLadder` that health-checks the
        active technique and steps down when it persistently stops evading.
        The right deployment shape for faulty networks, where a single
        technique's probes can be eaten by loss.
        """
        if self.last_report is None or self.last_report.trace != trace.name:
            self.run(trace)
        report = self.last_report
        assert report is not None
        if report.evasion is None or not report.evasion.working():
            raise RuntimeError(
                f"no working evasion technique for {trace.name} in {self.env.name}"
            )
        ranked = sorted(
            report.evasion.working(),
            key=lambda r: (r.overhead_seconds, r.overhead_packets, r.overhead_bytes),
        )
        by_name = techniques_by_name()
        assert report.characterization is not None
        context = EvasionContext(
            matching_fields=report.characterization.matching_fields,
            packet_limit=report.characterization.packet_limit,
            inspects_all_packets=report.characterization.inspects_all_packets,
            match_and_forget=report.characterization.match_and_forget,
            middlebox_hops=self.env.hops_to_middlebox,
            protocol=trace.protocol,
        )
        return FallbackLadder(
            self.env,
            [by_name[r.technique] for r in ranked],
            context,
            window=window,
            failure_threshold=failure_threshold,
        )

    def _readapt(self, proxy: LiberateProxy, trace: Trace) -> None:
        """Runtime adaptation: rerun the pipeline and swap the technique."""
        if self.cache is not None:
            self.cache.invalidate(self.env.name, trace.name)  # the rule changed
        try:
            report = self.run(trace)
        except CharacterizationError:
            return
        if report.evasion is None:
            return
        best = report.evasion.best()
        if best is None:
            return
        proxy.technique = techniques_by_name()[best.technique]
        assert report.characterization is not None
        proxy.context = EvasionContext(
            matching_fields=report.characterization.matching_fields,
            packet_limit=report.characterization.packet_limit,
            inspects_all_packets=report.characterization.inspects_all_packets,
            match_and_forget=report.characterization.match_and_forget,
            middlebox_hops=self.env.hops_to_middlebox,
            protocol=trace.protocol,
        )
        proxy.rule_change_detected = False
