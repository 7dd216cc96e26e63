"""Checks for tools/bitcheck.py, CI's bit-identity report, on tiny run directories.

No optimizer runs here: each case writes the four artifacts of a run by
hand, changes a byte or a field of one side, and reads the report's lines.
The coverage pass is checked on a small generated module.  A last check
pins the CI step that calls the report as report-only.
"""

import importlib.util
import json
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bitcheck", ROOT / "tools" / "bitcheck.py")
bitcheck = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bitcheck)

RECORDS = [
    dict(n=0, phase="step1", t_seconds=0.005, j_oracle=0.25, j_model=0.25, accepted=True,
         backtracks=0, measurements_this_iter=3, j_reference=0.25, acceptance_rhs=0.25, event=None),
    dict(n=1, phase="step1", t_seconds=0.005, j_oracle=0.375, j_model=0.5, accepted=True,
         backtracks=0, measurements_this_iter=1503, j_reference=0.25, acceptance_rhs=0.3,
         event=None),
]
MANIFEST = {
    "command": "optimize",
    "created_utc": "2026-01-01T00:00:00Z",
    "versions": {"belltime": "0.1.0"},
    "inputs": {"seed": 0},
    "final": {"t_seconds": 0.005, "model_fidelity": 0.5, "full_fidelity": None},
    "ledger": {"fidelity_partial": 6},
    "outputs": ["trace.jsonl", "summary.csv", "final_pulse.csv"],
}


def write_run(run: Path, trace: str, manifest: dict) -> Path:
    """A run directory holding ``trace`` and ``manifest`` beside fixed CSV artifacts."""
    run.mkdir()
    (run / "trace.jsonl").write_text(trace)
    (run / "summary.csv").write_text("n,phase\n0,step1\n1,step1\n")
    (run / "final_pulse.csv").write_text("# T_seconds=0.005 M=1\n")
    (run / "manifest.json").write_text(json.dumps({**manifest, "inputs": {
        **manifest["inputs"], "output_dir": str(run)}}))
    return run


TRACE = "".join(json.dumps(record) + "\n" for record in RECORDS)
ALL_IDENTICAL = [f"run/{name}: identical to the base commit"
                 for name in ("trace.jsonl", "summary.csv", "final_pulse.csv", "manifest.json")]
TRACE_DIFFERS = ["run/trace.jsonl: DIFFERS from the base commit", *ALL_IDENTICAL[1:]]
GAPS = "max |d j_model| 0, max |d j_reference| 0, max |d acceptance_rhs| 0"


@pytest.mark.parametrize("head_trace, head_manifest, expected", [
    pytest.param(TRACE, MANIFEST, ALL_IDENTICAL, id="identical"),
    pytest.param(TRACE.replace('"j_oracle": 0.375', '"j_oracle": 0.875'), MANIFEST,
                 TRACE_DIFFERS[:1] + [
                     f"run/trace.jsonl: decision columns identical; max |d j_oracle| 0.5, {GAPS}"
                 ] + TRACE_DIFFERS[1:], id="one-byte-of-j_oracle"),
    pytest.param(TRACE.replace('"accepted": true, "backtracks": 0, "measurements_this_iter": 1503',
                               '"accepted": false, "backtracks": 0, "measurements_this_iter": 1503'),
                 MANIFEST, TRACE_DIFFERS[:1] + [
                     f"run/trace.jsonl: decision columns DIFFER; max |d j_oracle| 0, {GAPS}"
                 ] + TRACE_DIFFERS[1:], id="accepted-flipped"),
    pytest.param(TRACE, {**MANIFEST, "final": {**MANIFEST["final"], "model_fidelity": 0.75}},
                 ALL_IDENTICAL[:3] + [
                     "run/manifest.json: DIFFERS from the base commit; command identical, "
                     "versions identical, inputs identical, ledger identical, outputs identical, "
                     "final.t_seconds identical; |d final.model_fidelity| 0.25, "
                     "|d final.full_fidelity| both null"
                 ], id="manifest-fidelity"),
    pytest.param(TRACE, {key: value for key, value in MANIFEST.items() if key != "ledger"},
                 ALL_IDENTICAL[:3] + [
                     "run/manifest.json: DIFFERS from the base commit; command identical, "
                     "versions identical, inputs identical, ledger DIFFER, outputs identical, "
                     "final.t_seconds identical; |d final.model_fidelity| 0, "
                     "|d final.full_fidelity| both null"
                 ], id="manifest-key-dropped"),
    pytest.param(TRACE, {**MANIFEST, "termination": "max_iterations"},
                 ALL_IDENTICAL[:3] + [
                     "run/manifest.json: DIFFERS from the base commit; command identical, "
                     "versions identical, inputs identical, ledger identical, outputs identical, "
                     "termination DIFFER, final.t_seconds identical; "
                     "|d final.model_fidelity| 0, |d final.full_fidelity| both null"
                 ], id="manifest-key-added"),
    pytest.param(TRACE, {**MANIFEST, "created_utc": "2026-01-02T00:00:00Z"}, ALL_IDENTICAL,
                 id="manifest-timestamp"),
])
def test_a_run_pair_reads_as_ci_prints_it(tmp_path, capsys, head_trace, head_manifest, expected):
    base = write_run(tmp_path / "base", TRACE, MANIFEST)
    head = write_run(tmp_path / "head", head_trace, head_manifest)
    bitcheck.compare_run(base, head, "run")
    assert capsys.readouterr().out.splitlines() == expected


def test_a_missing_run_reads_as_failed_comparisons(tmp_path, capsys):
    base = write_run(tmp_path / "base", TRACE, MANIFEST)
    bitcheck.compare_run(base, tmp_path / "never-written", "run")
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "run/trace.jsonl: DIFFERS from the base commit",
        "run/trace.jsonl: the trace comparison failed",
        "run/summary.csv: DIFFERS from the base commit",
        "run/final_pulse.csv: DIFFERS from the base commit",
        "run/manifest.json: the manifest comparison failed",
    ]


def test_code_lines_and_code_ignore_docstrings_and_comments(tmp_path):
    prose, edited = tmp_path / "prose.py", tmp_path / "edited.py"
    prose.write_text('"""Module."""\n\n# a comment\nclass A:\n    """Class,\n    two lines."""\n'
                     '    def f(self):\n        """Method."""\n        return 1\n')
    edited.write_text('"""Other prose."""\nclass A:\n    def f(self):\n        return 1\n')
    (lines, code), (edited_lines, edited_code) = map(bitcheck.without_docstrings, (prose, edited))
    assert (lines, edited_lines) == (3, 3)
    assert code == edited_code


BRANCHY = """def sign(x):
    if x < 0:
        return -1
    return 1


def count(n):
    while n > 0:
        n -= 1
    return n
"""


@pytest.mark.parametrize("calls, expected", [
    ("sign(2); count(2)", ["branchy.py:2 true side"]),
    ("sign(-2); sign(2); count(0)", ["branchy.py:8 true side"]),
    ("sign(-2); count(2)", ["branchy.py:2 false side", "branchy.py:4"]),
    ("sign(-2); sign(2); count(2)", []),
    ("sign(-2); sign(2)", ["branchy.py:8", "branchy.py:10"]),
])
def test_the_coverage_pass_names_what_no_call_reaches(tmp_path, calls, expected):
    module = tmp_path / "branchy.py"
    module.write_text(BRANCHY)
    (tmp_path / "idle.py").write_text("IDLE = 1\n")
    spec = importlib.util.spec_from_file_location("branchy", module)
    branchy = importlib.util.module_from_spec(spec)
    arcs = bitcheck.trace_arcs(tmp_path, lambda: (
        spec.loader.exec_module(branchy), exec(calls, vars(branchy))))
    assert bitcheck.untaken(module, arcs) == expected
    assert bitcheck.untaken(tmp_path / "idle.py", arcs) == ["idle.py: never run"]


def test_ci_runs_the_report_on_pull_requests_only_and_never_as_a_gate():
    workflow = yaml.safe_load((ROOT / ".github/workflows/tier1.yml").read_text())
    steps = [step for step in workflow["jobs"]["tier1"]["steps"]
             if "tools/bitcheck.py" in step.get("run", "")]
    assert len(steps) == 1
    (step,) = steps
    assert step["if"] == "github.event_name == 'pull_request'"
    assert step["continue-on-error"] is True
    assert step["run"].strip() == 'python tools/bitcheck.py "$BASE_SHA"'
