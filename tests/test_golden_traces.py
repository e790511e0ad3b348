"""Golden-trace regression tests: the trace of a Table 3 cell is locked.

A live re-run of each recorded cell must produce the same *structural*
event sequence (kinds, rule ids, verdicts, reasons — not timestamps or
byte counts) as the checked-in artifact under ``tests/golden/``.  A
schema bump invalidates the artifacts loudly instead of silently.

Regeneration: ``PYTHONPATH=src python tests/golden/regen.py`` (see
``tests/golden/README.md``).
"""

from __future__ import annotations

import importlib.util
import io
from pathlib import Path

import json

import pytest

from repro.obs import trace as obs_trace

pytestmark = pytest.mark.obs

GOLDEN_DIR = Path(__file__).parent / "golden"

_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN_DIR / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

REGEN_HINT = "regenerate with: PYTHONPATH=src python tests/golden/regen.py"


def _golden_header(filename: str) -> dict:
    with open(GOLDEN_DIR / filename, encoding="utf-8") as handle:
        return json.loads(handle.readline())


@pytest.mark.golden
@pytest.mark.parametrize("filename", sorted(regen.CELLS))
def test_golden_schema_version(filename):
    header = _golden_header(filename)
    assert header["kind"] == "trace.header"
    assert header["schema"] == obs_trace.TRACE_SCHEMA_VERSION, REGEN_HINT
    assert header["dropped"] == 0


@pytest.mark.golden
@pytest.mark.parametrize("filename", sorted(regen.CELLS))
def test_golden_structural_match(filename):
    """Live cell re-run matches the artifact's structural skeleton."""
    env_name, technique_name = regen.CELLS[filename]
    live = regen.record_cell(env_name, technique_name)
    golden = obs_trace.load_jsonl(str(GOLDEN_DIR / filename))
    assert obs_trace.structural_view(live.events()) == obs_trace.structural_view(
        golden
    ), REGEN_HINT


@pytest.mark.golden
def test_golden_throttle_cell_rule_matches():
    """The throttling cell's rule-match events reconstruct the verdict."""
    golden = obs_trace.load_jsonl(str(GOLDEN_DIR / "testbed_throttle_cell.jsonl"))
    matches = [e for e in golden if e["kind"] == "mbx.rule_match"]
    assert [(m["rule"], m["action"]) for m in matches] == [
        ("testbed:video.example.com", "throttle")
    ]
    match = matches[0]
    assert match["element"] == "testbed-dpi"
    assert 0 <= match["match_start"] < match["match_end"] <= match["buffer_len"]
    verdicts = [e["verdict"] for e in golden if e["kind"] == "mbx.verdict"]
    assert verdicts == ["testbed:video.example.com"]
    cells = [e for e in golden if e["kind"] == "table3.cell"]
    assert [(c["env"], c["technique"], c["cc"], c["rs"]) for c in cells] == [
        ("testbed", "tcp-invalid-data-offset", "N", "Y")
    ]


@pytest.mark.golden
def test_golden_neutral_cell_has_no_rule_matches():
    golden = obs_trace.load_jsonl(str(GOLDEN_DIR / "neutral_cell.jsonl"))
    kinds = {e["kind"] for e in golden}
    assert "mbx.rule_match" not in kinds
    assert "mbx.verdict" not in kinds
    cells = [e for e in golden if e["kind"] == "table3.cell"]
    assert [(c["env"], c["cc"]) for c in cells] == [("sprint", "Y")]


@pytest.mark.golden
@pytest.mark.parametrize("filename", sorted(regen.CELLS))
def test_trace_byte_identical_across_runs(filename):
    """Two runs of the same cell export byte-identical JSONL (determinism)."""
    env_name, technique_name = regen.CELLS[filename]
    exports = []
    for _ in range(2):
        buffer = io.StringIO()
        regen.record_cell(env_name, technique_name).export_jsonl(buffer)
        exports.append(buffer.getvalue())
    assert exports[0] == exports[1]


@pytest.mark.golden
def test_regen_check_mode(tmp_path):
    """``regen.py --check`` is clean against the committed artifacts, keeps
    the regenerated copies with --out, and flags drifted goldens."""
    out_dir = tmp_path / "regen"
    assert regen.main(["--check", "--out", str(out_dir)]) == 0
    for filename in regen.CELLS:
        assert (out_dir / filename).exists()

    # A structurally-drifted golden (one altered event kind) must fail the
    # check; the regenerated copies from above avoid re-running the cells.
    drifted_dir = tmp_path / "drifted"
    drifted_dir.mkdir()
    for filename in regen.CELLS:
        lines = (out_dir / filename).read_text().splitlines()
        lines[1] = lines[1].replace('"kind":"', '"kind":"drifted.', 1)
        (drifted_dir / filename).write_text("\n".join(lines) + "\n")
    drift = regen.check(golden_dir=drifted_dir)
    assert len(drift) == len(regen.CELLS)
    assert all("drifted." in line for line in drift)
