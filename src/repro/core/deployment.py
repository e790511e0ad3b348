"""Phase 4: evasion deployment (§4.4).

Once a working technique is known, lib·erate intercepts the application's
live traffic (here: further replays of its flows) and applies the technique
transparently.  Deployment also owns runtime adaptation: when a previously
working technique stops evading, the classifier rule has probably changed
and the characterization/evaluation phases must rerun (§4.2).

On unreliable networks a single failed flow is weak evidence — loss can make
a working technique look broken — so the :class:`FallbackLadder` health-checks
the active technique over a sliding window of recent flows and only steps
down to the next-cheapest known-working technique when the window shows a
persistent failure, degrading gracefully instead of flapping.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.evasion.base import EvasionContext, EvasionTechnique
from repro.envs.base import Environment
from repro.replay.session import ReplayOutcome, ReplaySession
from repro.traffic.trace import Trace

logger = logging.getLogger(__name__)


class LiberateProxy:
    """The deployed transparent proxy: applies one technique to app traffic.

    Args:
        env: the network the application runs in.
        technique: the selected (cheapest working) evasion technique.
        context: the evasion context the technique parameterizes on.
        on_rule_change: callback fired when evasion stops working; the
            pipeline wires this to re-characterization.
    """

    def __init__(
        self,
        env: Environment,
        technique: EvasionTechnique,
        context: EvasionContext,
        on_rule_change: Callable[[], None] | None = None,
    ) -> None:
        self.env = env
        self.technique = technique
        self.context = context
        self.on_rule_change = on_rule_change
        self.flows_handled = 0
        self.rule_change_detected = False

    def run_flow(self, trace: Trace, server_port: int | None = None) -> ReplayOutcome:
        """Send one application flow through the evasion transform.

        Detects classifier/network changes two ways: the flow is
        differentiated despite the technique (§4.2: "if differentiation
        occurs even when using a previously successful evasion technique …
        lib·erate repeats the characterization and evasion steps"), or the
        technique started *breaking the application* — e.g. a newly deployed
        TTL-normalizer delivering our formerly-inert packets to the server.
        Either way the pipeline reruns and the technique is swapped.
        """
        session = ReplaySession(self.env, trace, server_port=server_port)
        outcome = session.run(technique=self.technique, context=self.context)
        self.flows_handled += 1
        broke_application = not (outcome.delivered_ok and outcome.server_response_ok)
        if outcome.differentiated or broke_application:
            self.rule_change_detected = True
            if self.on_rule_change is not None:
                self.on_rule_change()
        return outcome


@dataclass
class StepDown:
    """Record of one fallback transition."""

    flow: int  # flows_handled when the step-down fired
    from_technique: str
    to_technique: str | None  # None when the ladder was exhausted
    failures_in_window: int


class FallbackLadder:
    """Graceful degradation over a ranked list of working techniques.

    The pipeline ranks the techniques that evaded during evaluation by cost,
    cheapest first.  The ladder deploys the cheapest and health-checks every
    flow: a flow is *healthy* when the technique evaded (signal gone, payload
    through).  When at least *failure_threshold* of the last *window* flows
    on the active technique were unhealthy, the ladder steps down to the
    next-cheapest technique and the window resets.  Running off the bottom
    sets :attr:`exhausted` — flows keep being sent (best effort, undisguised
    failure is still better than silence) and every transition is recorded
    in :attr:`step_downs` for diagnostics.

    Args:
        env: the network the application runs in.
        techniques: working techniques, cheapest first (non-empty).
        context: the evasion context all techniques parameterize on.
        window: sliding health window length (flows).
        failure_threshold: unhealthy flows within the window that trigger a
            step-down.
    """

    def __init__(
        self,
        env: Environment,
        techniques: Sequence[EvasionTechnique],
        context: EvasionContext,
        window: int = 5,
        failure_threshold: int = 3,
    ) -> None:
        if not techniques:
            raise ValueError("need at least one working technique")
        if failure_threshold < 1 or failure_threshold > window:
            raise ValueError("failure_threshold must be within the window")
        self.env = env
        self.techniques = list(techniques)
        self.context = context
        self.window = window
        self.failure_threshold = failure_threshold
        self.rung = 0
        self.flows_handled = 0
        self.step_downs: list[StepDown] = []
        self.exhausted = False
        self._health: deque[bool] = deque(maxlen=window)

    @property
    def active_technique(self) -> EvasionTechnique:
        """The technique currently deployed (the last rung when exhausted)."""
        return self.techniques[min(self.rung, len(self.techniques) - 1)]

    def run_flow(self, trace: Trace, server_port: int | None = None) -> ReplayOutcome:
        """Send one flow through the active technique and health-check it."""
        technique = self.active_technique
        session = ReplaySession(self.env, trace, server_port=server_port)
        outcome = session.run(technique=technique, context=self.context)
        self.flows_handled += 1
        self._health.append(outcome.evaded)
        failures = self._health.count(False)
        if not self.exhausted and failures >= self.failure_threshold:
            self._step_down(failures)
        return outcome

    def _step_down(self, failures: int) -> None:
        from_name = self.active_technique.name
        self.rung += 1
        if self.rung >= len(self.techniques):
            self.exhausted = True
            to_name = None
            logger.warning(
                "fallback ladder exhausted after %s failed (%d/%d unhealthy); "
                "continuing best-effort on the last rung",
                from_name,
                failures,
                len(self._health),
            )
        else:
            to_name = self.active_technique.name
            logger.warning(
                "stepping down from %s to %s (%d/%d recent flows unhealthy)",
                from_name,
                to_name,
                failures,
                len(self._health),
            )
        self.step_downs.append(
            StepDown(
                flow=self.flows_handled,
                from_technique=from_name,
                to_technique=to_name,
                failures_in_window=failures,
            )
        )
        self._health.clear()

    def health_snapshot(self) -> dict[str, object]:
        """Current ladder state for reports and diagnostics."""
        return {
            "active_technique": self.active_technique.name,
            "rung": self.rung,
            "flows_handled": self.flows_handled,
            "recent_failures": self._health.count(False),
            "window_fill": len(self._health),
            "step_downs": len(self.step_downs),
            "exhausted": self.exhausted,
        }
