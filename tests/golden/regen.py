"""Regenerate the golden observability traces in this directory.

Each golden artifact is the full ``--trace`` JSONL of one Table 3 cell:

* ``neutral_cell.jsonl`` — the neutral cell: ``tcp-segment-split`` on the
  Sprint environment (no DPI, so no rule-match events at all);
* ``testbed_throttle_cell.jsonl`` — the throttling cell:
  ``tcp-invalid-data-offset`` on the testbed, which the DPI still
  classifies (CC=N), so the trace carries the
  ``testbed:video.example.com`` throttle rule match and verdict.

Regenerate after an intentional trace-schema or instrumentation change::

    PYTHONPATH=src python tests/golden/regen.py

then review the diff of the ``*.jsonl`` files like any other code change —
the golden tests compare the structural skeleton (event kinds, rule ids,
verdicts, reasons), so only behavioural changes should show up there.

``--check`` regenerates into a temporary directory and *structurally*
compares against the committed artifacts instead of rewriting them,
exiting non-zero on drift — that's what CI runs, so an instrumentation
change can't silently invalidate the goldens::

    PYTHONPATH=src python tests/golden/regen.py --check [--out DIR]

``--out DIR`` keeps the freshly-regenerated files (CI uploads them as an
artifact so a drifted run can be diffed without rerunning anything).
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from repro import obs
from repro.core.evasion import ALL_TECHNIQUES
from repro.experiments.table3 import run_table3
from repro.obs import trace as obs_trace

GOLDEN_DIR = Path(__file__).parent

#: artifact file -> (environment, technique) of the recorded Table 3 cell
CELLS: dict[str, tuple[str, str]] = {
    "neutral_cell.jsonl": ("sprint", "tcp-segment-split"),
    "testbed_throttle_cell.jsonl": ("testbed", "tcp-invalid-data-offset"),
}

def record_cell(env_name: str, technique_name: str) -> obs_trace.FlowTracer:
    """Run one Table 3 cell under a fresh tracer and return the tracer."""
    technique = next(t for t in ALL_TECHNIQUES if t.name == technique_name)
    tracer = obs_trace.FlowTracer()
    with obs.installed(TRACER=tracer):
        run_table3(
            env_names=(env_name,),
            techniques=(technique,),
            include_os_matrix=False,
            characterize=False,
        )
    return tracer


def regenerate(golden_dir: Path = GOLDEN_DIR) -> dict[str, int]:
    """Rewrite every golden artifact; returns events written per file."""
    written = {}
    for filename, (env_name, technique_name) in sorted(CELLS.items()):
        tracer = record_cell(env_name, technique_name)
        written[filename] = tracer.export_jsonl(str(golden_dir / filename))
    return written


def check(out_dir: Path | None = None, golden_dir: Path = GOLDEN_DIR) -> list[str]:
    """Regenerate into a scratch dir and structurally compare with *golden_dir*.

    Returns the drift report: one line per divergent artifact (empty =
    clean).  Comparison uses :func:`repro.obs.trace.structural_view`, the
    same projection the golden tests assert on, so timing-only differences
    never count as drift.
    """
    from repro.obs.diff import diff_traces

    drift: list[str] = []
    with tempfile.TemporaryDirectory(prefix="golden-regen-") as scratch:
        target = out_dir or Path(scratch)
        target.mkdir(parents=True, exist_ok=True)
        regenerate(target)
        for filename in sorted(CELLS):
            committed = golden_dir / filename
            if not committed.exists():
                drift.append(f"{filename}: committed artifact missing")
                continue
            diff = diff_traces(
                obs_trace.load_jsonl(str(committed)),
                obs_trace.load_jsonl(str(target / filename)),
            )
            if not diff.identical:
                assert diff.first_divergence is not None
                drift.append(f"{filename}: {diff.first_divergence.describe()}")
    return drift


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare a fresh regeneration against the committed goldens "
        "instead of rewriting them; non-zero exit on drift",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="with --check: keep the regenerated files in this directory",
    )
    args = parser.parse_args(argv)
    if args.check:
        drift = check(out_dir=args.out)
        if drift:
            print("golden traces drifted from the committed artifacts:", file=sys.stderr)
            for line in drift:
                print(f"  {line}", file=sys.stderr)
            print(
                "intentional change? rerun without --check and commit the diff",
                file=sys.stderr,
            )
            return 1
        print(f"{len(CELLS)} golden trace(s) structurally match the committed artifacts")
        return 0
    for filename, count in regenerate().items():
        print(f"wrote {count} events to {GOLDEN_DIR / filename}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
