"""How this checkout's belltime differs from BASE_REF's: ``python tools/bitcheck.py BASE_REF``.

Runs six CLI configs on both sides (BASE_REF in a temporary git worktree) and prints line and
code counts of src/belltime and tests/, options, prose words, changed modules, timings, each
artifact "identical to" or "DIFFERS from the base commit", the head's trace audit of every run,
and per side what of src/belltime no tier-1 test reaches.  A report, not a gate."""

import ast
import io
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
import tokenize
import traceback
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
# the README's example run document, examples.yaml, of which the README holds the only copy
README_CONFIG = re.compile(r"A minimal config \(`examples\.yaml`\):\s*```yaml\n(.*?)```", re.S)
# the experiment keys each config deletes: relaxation, the low-pass, or both
CONFIGS = {"balanced": (), "filter": ("t1_s", "t2_s"), "relaxation": ("distortion_tau_s",),
           "coherent": ("t1_s", "t2_s", "distortion_tau_s")}
# per run: name, config, CLI overrides.  Measured gradients run each branch of the window
# loop (multi-slice windows under the low-pass, with or without relaxation; 3 iterations, else 12)
RUNS = [
    ("balanced", "balanced"),
    ("model-only", "balanced", "--mode", "model-only"),
    ("experiment-only-lossy", "balanced", "--mode", "experiment-only", "--iterations", "3"),
    ("experiment-only-coherent", "coherent", "--mode", "experiment-only", "--iterations", "12"),
    ("experiment-only-filter", "filter", "--mode", "experiment-only", "--iterations", "3"),
    ("experiment-only-relaxation", "relaxation", "--mode", "experiment-only", "--iterations", "12"),
]


def readme_config() -> str:
    """The YAML of the README's example run document; a LookupError if the README lost it."""
    block = README_CONFIG.search((ROOT / "README.md").read_text())
    if block is None:
        raise LookupError(f"README.md has no block matching {README_CONFIG.pattern}")
    return block.group(1)


def without_docstrings(path: Path) -> tuple[int, str]:
    """How many lines of ``path`` hold code (no blanks, comments or docstrings),
    and its AST without docstrings as text, so a prose-only edit compares equal."""
    text = path.read_text()
    skip = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER)
    lines = {line for tok in tokenize.generate_tokens(io.StringIO(text).readline)
             if tok.type not in skip for line in range(tok.start[0], tok.end[0] + 1)}
    tree = ast.parse(text)
    for node in ast.walk(tree):
        first = node.body[0] if isinstance(node, SCOPES) and node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.difference_update(range(first.lineno, first.end_lineno + 1))
            node.body = node.body[1:]
    return len(lines), ast.dump(tree, include_attributes=False)


def words(root: Path) -> None:
    """Print the README's words per "##" section, then the docstring words per module."""
    name, sections = "(preamble)", {"(preamble)": 0}
    for line in (root / "README.md").read_text().splitlines():
        if line.startswith("## "):
            name = line[3:]
        sections[name] = sections.get(name, 0) + len(line.split())
    for name, count in sections.items():
        print(f"{count:7d} README.md {name}")
    print(f"{sum(sections.values()):7d} README.md total")
    for path in sorted((root / "src/belltime").glob("*.py")):
        nodes = [n for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, SCOPES)]
        count = sum(len((ast.get_docstring(n, clean=False) or "").split()) for n in nodes)
        print(f"{count:7d} docstring words in {path.name}")


def options() -> None:
    """Print the three config classes' fields, then the run-document keys by the parser's schema."""
    from dataclasses import fields, is_dataclass
    from typing import get_args
    from belltime import dynamics, experiment, optimizer, runconfig
    for cls in (dynamics.SystemModel, experiment.ExperimentConfig, optimizer.OptimizerConfig):
        names = [f.name for f in fields(cls)]
        print(f"{len(names):4d} settable fields of {cls.__name__}: {' '.join(names)}")

    def keys(cls, prefix=""):
        for name, kind in runconfig._field_types(cls).items():
            kind = next((k for k in get_args(kind) if is_dataclass(k)), kind)
            yield from keys(kind, f"{prefix}{name}.") if is_dataclass(kind) else [prefix + name]
    accepted = list(keys(runconfig.RunConfig))
    print(f"{len(accepted):4d} run-document keys: {' '.join(accepted)}")


def gradient_seconds(lab: str) -> None:
    """Print the seconds of the process's second measured gradient at the recipe pulse
    on the lossy MISMATCH lab (a density stack; no workload runs one) or the filter-only one."""
    from belltime.experiment import ExperimentBackend, ExperimentConfig
    from belltime.optimizer import OptimizerConfig, finite_diff_gradients
    from belltime.recipes import bell_recipe_pulse
    apparatus = dict(true_g_hz=1.01 * 217.4, amplitude_scale=(0.98, 1.0, 0.98, 1.0),
                     distortion_tau_s=50e-6, noise_sigma=1e-3, seed=100)
    if lab == "lossy":
        apparatus.update(t1_s=(0.730, 0.096), t2_s=(0.0965, 0.0425))
    config = OptimizerConfig()
    pulse, steps = bell_recipe_pulse(217.4), (config.fd_step_amplitude_hz, config.fd_step_time_s)
    for _ in range(2):  # a warm-up, then the timed gradient on a fresh backend
        backend = ExperimentBackend(ExperimentConfig(**apparatus))
        start = time.perf_counter()
        finite_diff_gradients(backend, pulse, *steps)
    print(time.perf_counter() - start)


def audit(*runs: str) -> None:
    """Print each run's trace audit under its manifest's config: a summary or the first error."""
    from belltime.optimizer import IterationRecord, OptimizerConfig, verify_trace_invariants
    for run in runs:
        try:
            with open(f"{run}/manifest.json") as fh:
                config = OptimizerConfig(**json.load(fh)["inputs"]["optimizer"])
            with open(f"{run}/trace.jsonl") as fh:
                records = [IterationRecord(**json.loads(line)) for line in fh]
            print(f"{run}: audit passes, {verify_trace_invariants(records, config)}")
        except (OSError, KeyError, TypeError, ValueError) as exc:
            print(f"{run}: audit FAILS: {exc}")


def trace_arcs(root: Path, run) -> set:
    """The (file, line, next line) arcs that ``run()`` takes in the files under ``root``,
    recorded by a ``sys.settrace`` hook; None stands for entering or leaving a frame."""
    root, arcs = os.path.join(root.resolve(), ""), set()

    def enter(frame, event, arg):
        if not frame.f_code.co_filename.startswith(root):
            return None
        last = None

        def step(frame, event, arg):
            nonlocal last
            line = frame.f_lineno if event == "line" else None
            if event != "exception":  # a raising line goes nowhere, not to a branch side
                arcs.add((frame.f_code.co_filename, last, line))
            last = line
            return step
        return step

    outer = sys.gettrace()
    sys.settrace(enter)
    try:
        run()
    finally:
        sys.settrace(outer)
    return arcs


def untaken(path: Path, arcs: set) -> list[str]:
    """The statements and ``if``/``while`` sides of module ``path`` that ``arcs`` never take.
    A statement inside an untaken statement or side is not listed again."""
    path = path.resolve()
    moves = {(a, b) for f, a, b in arcs if f == str(path)}
    ran = {b for _, b in moves}
    if not ran - {None}:
        return [f"{path.name}: never run"]

    def head(node):  # the lines a statement runs before its body, decorators included
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) else node.end_lineno
        return set(range(first, max(last, node.lineno) + 1))

    found = []

    def visit(body):
        for node in body:
            if isinstance(node, (ast.Global, ast.Nonlocal)) or (
                    isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
                continue  # compiled to nothing: no line event can reach it
            if not ran & head(node):
                found.append(f"{path.name}:{node.lineno}")
                continue
            if isinstance(node, (ast.If, ast.While)):
                test = set(range(node.lineno, node.test.end_lineno + 1))
                exits = {b for a, b in moves if a in test and b not in test}
                entry = head(node.body[0])
                for side, taken, block in (("true", exits & entry, node.body),
                                           ("false", exits - entry, node.orelse)):
                    if taken:
                        visit(block)
                    else:
                        found.append(f"{path.name}:{node.lineno} {side} side")
            else:  # an except clause counts as a statement: its line runs when it is tried
                for key in ("body", "handlers", "orelse", "finalbody"):
                    visit(getattr(node, key, []))

    visit(ast.parse(path.read_text()).body)
    return found


def coverage() -> None:
    """Run tier-1 from the working directory under ``trace_arcs``, then print ``untaken``
    of every module of its src/belltime, or "(none)"."""
    import pytest
    package = Path("src/belltime")
    arcs = trace_arcs(package, lambda: pytest.main(
        ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]))
    found = [line for path in sorted(package.glob("*.py")) for line in untaken(path, arcs)]
    print(*found or ["(none)"], sep="\n")


def python(src: Path, *args: str, **kwargs) -> subprocess.CompletedProcess:
    """A fresh interpreter on ``args`` that imports belltime from ``src``, and this module."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(ROOT / "tools")]))
    return subprocess.run([sys.executable, *args], env=env, text=True, **kwargs)


def print_timings(sides: dict, what: str, unit: str, code: str, own: bool = False) -> None:
    """Print per side the quartiles of 15 fresh interpreters on ``code``, sides alternating:
    wall times, or with ``own`` the seconds each prints.  No timeout, so no polling sleeps."""
    seconds = {side: [] for side in sides}
    for _ in range(15):
        for side, src in sides.items():
            start = time.perf_counter()
            out = python(src, "-c", code, check=True, stdout=subprocess.PIPE).stdout
            seconds[side].append(float(out) if own else time.perf_counter() - start)
    scale, digits = {"s": (1.0, 3), "ms": (1e3, 2)}[unit]
    for side, values in seconds.items():
        q1, median, q3 = (f"{scale * q:.{digits}f}" for q in statistics.quantiles(values, n=4))
        print(f"{side}: {what}, {len(values)} runs: median {median} {unit}, "
              f"quartiles {q1} to {q3} {unit} (report only)")


def trace_verdict(base: Path, head: Path, name: str) -> str:
    """Whether two traces make the same decisions, and how far their fidelities lie apart:
    the ROADMAP's "same" is identical decisions and fidelities within 1e-12."""
    base, head = ([json.loads(line) for line in p.read_text().splitlines()] for p in (base, head))
    decisions = ("phase", "accepted", "backtracks", "measurements_this_iter", "event", "t_seconds")
    same = len(base) == len(head) and all(
        all(b[key] == h[key] for key in decisions) for b, h in zip(base, head))
    gaps = [f"max |d {key}| {max(abs(b[key] - h[key]) for b, h in zip(base, head)):.3g}"
            for key in ("j_oracle", "j_model", "j_reference", "acceptance_rhs")]
    return f"{name}: decision columns {'identical' if same else 'DIFFER'}; " + ", ".join(gaps)


def manifest_verdict(base: Path, head: Path, name: str) -> str:
    """Whether two manifests agree on every top-level key either holds but the run's
    timestamp and output_dir, and if not, which of the ROADMAP's "same" holds: keys
    identical, fidelities within 1e-12.  A key that one side lacks reads as differing."""
    base, head = (json.loads(path.read_text()) for path in (base, head))
    for manifest in (base, head):
        manifest.get("inputs", {}).pop("output_dir", None)
    keys = [key for key in {**base, **head} if key != "created_utc"]
    differ = {key for key in keys if key not in base or key not in head or base[key] != head[key]}
    if not differ:
        return f"{name}: identical to the base commit"

    def gap(key):
        b, h = base["final"][key], head["final"][key]
        if b is None or h is None:
            return "both null" if b == h else "DIFFER (one is null)"
        return format(abs(b - h), ".3g")

    same = [key + (" DIFFER" if key in differ else " identical") for key in keys if key != "final"]
    t_same = base["final"]["t_seconds"] == head["final"]["t_seconds"]
    same.append("final.t_seconds " + ("identical" if t_same else "DIFFERS"))
    gaps = [f"|d final.{key}| {gap(key)}" for key in ("model_fidelity", "full_fidelity")]
    return f"{name}: DIFFERS from the base commit; " + ", ".join(same) + "; " + ", ".join(gaps)


def compare_run(base: Path, head: Path, name: str) -> None:
    """Print, for run ``name``, each artifact of ``head`` against ``base``, then the manifest."""
    for artifact in ("trace.jsonl", "summary.csv", "final_pulse.csv"):
        label, b, h = f"{name}/{artifact}", base / artifact, head / artifact
        if b.is_file() and h.is_file() and b.read_bytes() == h.read_bytes():
            print(f"{label}: identical to the base commit")
            continue
        print(f"{label}: DIFFERS from the base commit")
        if artifact == "trace.jsonl":
            try:
                print(trace_verdict(b, h, label))
            except Exception:  # a report line, whatever the trace holds
                traceback.print_exc()
                print(f"{label}: the trace comparison failed")
    label = f"{name}/manifest.json"
    try:
        print(manifest_verdict(base / "manifest.json", head / "manifest.json", label))
    except Exception:  # a report line, whatever the manifests hold
        traceback.print_exc()
        print(f"{label}: the manifest comparison failed")


def report(base_root: Path, work: Path) -> None:
    """Print the whole report, base at ``base_root`` against this checkout, working in ``work``."""
    roots = {"base": base_root, "head": ROOT}
    sides = {side: root / "src" for side, root in roots.items()}
    code = {side: {str(p.relative_to(root)): without_docstrings(p)
                   for p in sorted((root / "src/belltime").glob("*.py"))}
            for side, root in roots.items()}
    for side, root in roots.items():
        print(f"{side}: line counts of src/belltime (report only)")
        subprocess.run(["wc", "-l", *code[side]], cwd=root)
        print(f"{side}: code lines of src/belltime (report only)")
        for path, (count, _) in code[side].items():
            print(f"{count:7d} {path}")
        print(f"{sum(count for count, _ in code[side].values()):7d} total")
        tests = sorted((root / "tests").glob("*.py"))
        print(f"{side}: tests/ holds {sum(len(p.read_text().splitlines()) for p in tests)} lines, "
              f"{sum(without_docstrings(p)[0] for p in tests)} of them code (report only)")
        print(f"{side}: options (report only)")
        python(sides[side], "-c", "import bitcheck; bitcheck.options()", check=True)
        print(f"{side}: words of the README and of the docstrings (report only)")
        words(root)
    print("head against base, each module's AST without docstrings (report only)")
    base, head = ({Path(p).name: tree for p, (_, tree) in code[side].items()} for side in roots)
    for name in sorted(base.keys() | head.keys()):
        same = base.get(name) == head.get(name)  # never both None
        print(f"{name}: code {'unchanged' if same else 'DIFFERS'} (docstrings removed)")
    print_timings(sides, "import belltime.cli in a fresh interpreter", "s", "import belltime.cli")
    for lab in ("lossy", "filter-only"):
        print_timings(sides, f"one measured gradient at the recipe pulse, {lab} lab", "ms",
                      f"import bitcheck; bitcheck.gradient_seconds({lab!r})", own=True)
    balanced = yaml.safe_load(readme_config())
    balanced["optimizer"]["max_iterations"] = 200
    for name, deleted in CONFIGS.items():
        experiment = {k: v for k, v in balanced["experiment"].items() if k not in deleted}
        (work / f"{name}.yaml").write_text(
            yaml.safe_dump({**balanced, "experiment": experiment}, sort_keys=False))
    for name, config, *overrides in RUNS:
        for side, src in sides.items():
            command = ["-m", "belltime", "optimize", "--config", f"{config}.yaml", *overrides,
                       "--out", f"runs/{side}-{name}"]
            if python(src, *command, cwd=work, stdout=subprocess.DEVNULL).returncode:
                print(f"{name}: the {side} run failed")
        compare_run(work / f"runs/base-{name}", work / f"runs/head-{name}", name)
    runs = [str(p.relative_to(work)) for side in roots for p in sorted(work.glob(f"runs/{side}-*"))]
    python(sides["head"], "-c", "import sys, bitcheck; bitcheck.audit(*sys.argv[1:])", *runs,
           cwd=work, check=True)
    for side, root in roots.items():
        print(f"{side}: statements and if/while sides of src/belltime that no tier-1 test "
              "reaches (report only)")
        python(sides[side], "-c", "import bitcheck; bitcheck.coverage()", cwd=root)


def main(argv) -> None:
    if len(argv) != 2:
        sys.exit(f"usage: python {argv[0]} BASE_REF")
    sys.stdout.reconfigure(line_buffering=True)  # in order with the children's output
    with tempfile.TemporaryDirectory() as work:
        base_root = Path(work) / "base"
        subprocess.run(["git", "worktree", "add", "--detach", str(base_root), argv[1]],
                       cwd=ROOT, check=True)
        try:
            report(base_root, Path(work))
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(base_root)], cwd=ROOT)


if __name__ == "__main__":
    main(sys.argv)
