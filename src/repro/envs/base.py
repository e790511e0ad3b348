"""The Environment abstraction shared by all evaluation networks."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro import obs
from repro.endpoint.osmodel import LINUX, OSProfile
from repro.middlebox.accounting import UsageCounter
from repro.middlebox.engine import DPIMiddlebox
from repro.middlebox.proxy import TransparentHTTPProxy
from repro.netsim.clock import VirtualClock
from repro.netsim.faults import FaultElement, FaultProfile
from repro.netsim.path import Path
from repro.netsim.shaper import PolicyState

CLIENT_ADDR = "10.1.0.2"
SERVER_ADDR = "203.0.113.50"


class SignalType(enum.Enum):
    """How differentiation manifests (and therefore how it is detected)."""

    CLASSIFICATION = "classification"  # testbed: direct readout on the device
    ZERO_RATING = "zero-rating"  # usage-counter inference (T-Mobile)
    THROUGHPUT = "throughput"  # shaping shows up as low goodput (AT&T, Sprint)
    RST_INJECTION = "rst"  # spurious RSTs (the GFC)
    BLOCK_PAGE = "block-page"  # HTTP 403 + RSTs (Iran)


@dataclass
class Environment:
    """One evaluation network: a path, a classifier, and a detection signal.

    Attributes:
        name: environment label ("testbed", "gfc", ...).
        clock: the shared virtual clock.
        path: the client⇄server element chain.
        policy_state: marks shared between the middlebox and path elements.
        middlebox: the classifier element (None for Sprint).
        signal: how differentiation is detected here.
        server_os: validation profile of the replay server's OS.
        usage_counter: the accounting element (T-Mobile only).
        base_rate_bps: nominal undifferentiated link rate.
        throttle_threshold_bps: goodput below this ⇒ "throttled" for
            THROUGHPUT-signal environments.
        hops_to_middlebox: ground-truth router hops client-side of the
            classifier (tests verify localization against this).
        needs_port_rotation: characterization should use a fresh server port
            per replay (the GFC's residual server:port blocking).
        default_server_port: port the environment's canonical workload uses.
        fault_profile: active fault-injection profile, or None when the
            network is perfectly reliable (the default).
    """

    name: str
    clock: VirtualClock
    path: Path
    policy_state: PolicyState
    middlebox: DPIMiddlebox | TransparentHTTPProxy | None
    signal: SignalType
    server_os: OSProfile = LINUX
    usage_counter: UsageCounter | None = None
    base_rate_bps: float = 12_000_000.0
    throttle_threshold_bps: float = 3_000_000.0
    hops_to_middlebox: int = 1
    needs_port_rotation: bool = False
    default_server_port: int = 80
    client_addr: str = CLIENT_ADDR
    server_addr: str = SERVER_ADDR
    fault_profile: FaultProfile | None = None
    _sport_counter: int = field(default=40_000, repr=False)

    def next_sport(self) -> int:
        """A fresh client port, so replays never collide in flow tables."""
        self._sport_counter += 1
        return self._sport_counter

    @property
    def reliable_mode(self) -> bool:
        """True when the path injects faults, so endpoints should run ARQ."""
        return self.fault_profile is not None and not self.fault_profile.is_zero()

    def fault_element(self) -> FaultElement | None:
        """The installed fault injector, or None on a reliable network."""
        for element in self.path.elements:
            if isinstance(element, FaultElement):
                return element
        return None

    def dpi(self) -> DPIMiddlebox | None:
        """The middlebox as a DPI engine, or None (proxy/absent)."""
        return self.middlebox if isinstance(self.middlebox, DPIMiddlebox) else None

    def reset(self) -> None:
        """Reset all network state (flows, marks, counters) — a fresh start."""
        self.path.reset()
        self.policy_state.reset()
        if self.usage_counter is not None:
            self.usage_counter.reset()


def install_faults(env: Environment, profile: FaultProfile | None) -> Environment:
    """Attach a fault injector at *env*'s client edge.

    A ``None`` or all-zero profile leaves the environment untouched, so the
    fault-free path is exactly today's: no element is inserted and
    ``reliable_mode`` stays False.
    """
    if profile is None or profile.is_zero():
        _record_env(env)
        return env
    restart_targets = []
    if profile.restart_interval is not None and env.middlebox is not None:
        restart_targets.append(env.middlebox)
    env.path.insert_element(FaultElement(profile, restart_targets=tuple(restart_targets)), 0)
    env.fault_profile = profile
    if obs.EVENTS is not None:
        obs.EVENTS.emit("env.install_faults", env.clock.now, env=env.name, seed=profile.seed)
    _record_env(env)
    return env


def _record_env(env: Environment) -> None:
    """Mark an environment's birth in the trace (every factory ends here)."""
    if obs.EVENTS is not None:
        obs.EVENTS.emit(
            "env.created", env.clock.now, env=env.name,
            elements=[element.name for element in env.path.elements], signal=env.signal.value,
            faulty=env.fault_profile is not None,
        )
