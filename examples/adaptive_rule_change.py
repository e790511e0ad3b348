"""Runtime adaptation and the shared rule cache (§4.2).

Two of lib·erate's operational features beyond one-shot evasion:

* **adaptation** — when the network operator changes the classifier and a
  deployed technique stops working, the proxy notices (differentiation
  reappears), re-runs characterization + evaluation, and hot-swaps the
  technique;
* **rule cache** — characterization is the expensive phase, but its result
  is the same for every user behind the same middlebox; publishing it in a
  shared cache lets other users skip it entirely.

Run:  python examples/adaptive_rule_change.py
"""

from repro import Liberate
from repro.core.cache import RuleCache
from repro.envs import make_testbed
from repro.traffic import http_get_trace


def main() -> None:
    env = make_testbed()
    trace = http_get_trace("video.example.com", response_body=b"stream" * 200)

    print("=== deploy with a shared rule cache ===")
    cache = RuleCache()
    lib = Liberate(env, cache=cache, stop_at_first=True)
    proxy = lib.deploy(trace)
    print(f"deployed technique: {proxy.technique.name}")
    print(f"cache entries: {len(cache)} (misses: {cache.misses})")

    print()
    print("=== a second user skips characterization via the cache ===")
    second_user = Liberate(make_testbed(), cache=cache, stop_at_first=True)
    report = second_user.run(trace)
    print(f"cache hits: {cache.hits}  — characterization rounds paid: 0 (cached)")
    print(f"second user's technique: {report.deployed_technique}")

    print()
    print("=== the operator hardens the classifier ===")
    dpi = env.dpi()
    # Switch to Iran-style stateless per-packet matching.
    dpi.reconfigure(track_flows=False, match_and_forget=False, require_protocol_anchor=False)
    print("classifier switched to stateless per-packet matching")

    old_technique = proxy.technique.name
    outcome = proxy.run_flow(trace)
    print(
        f"old technique {outcome.technique}: differentiated={outcome.differentiated} "
        f"-> re-adapted: {proxy.technique.name != old_technique}"
    )

    followup = proxy.run_flow(trace)
    print(
        f"after re-adaptation, technique={proxy.technique.name}: "
        f"evaded={followup.evaded}"
    )
    print(f"cache was invalidated and refreshed: entries={len(cache)}")


if __name__ == "__main__":
    main()
