#!/usr/bin/env python3
"""Coverage sweep: the functions in ``src/repro`` that no entry point reaches.

    python tools/sweep.py

No coverage tool is needed. The sweep copies the tree into a temporary
directory and runs there every entry point DESIGN.md §3 lists: each CLI
subcommand, the six examples, the three perfbench workloads at
``--size tiny --seconds 1`` and the ablation, Fig. 11, Table 3 and weekly
benches. A ``sitecustomize`` module on their ``PYTHONPATH`` installs a
``sys.setprofile`` hook in every interpreter they start (spawn workers
included) and dumps the code objects it saw called at exit. Then it walks
``src/repro`` with ``ast``: a named function (any ``def``, methods and
nested functions included) whose first line, or its first decorator's,
never appears in a dump with its file was not reached.

Two rules keep an unreached function: a Python protocol method (a dunder
other than a constructor) and an abstract method (decorated
``abstractmethod``, or whose body only raises ``NotImplementedError``).
Every other unreached function needs a ``path:qualname  group`` line in
``tools/sweep_keep.txt`` naming one of DESIGN §3's keep groups. The sweep
prints the counts and exits 1 on an unreached function the list does not
keep, on a line that names no function or an unknown group, or when an
entry point fails; a kept function that ran is reported as stale.
Nothing is written outside the temporary directory.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KEEP_FILE = ROOT / "tools" / "sweep_keep.txt"

#: DESIGN §3's keep groups, by the key the keep list uses.
GROUPS = {
    "paper": "paper features reached only from tests or from generated code",
    "failure": "failure and refusal paths a healthy run never takes",
    "checker": "checkers the tests compare against",
    "observer": "read accessors the suites observe state through",
    "benchmark": "kept for the benchmark",
    "candidate": "test-only code left for a later deletion",
}

#: Dunder methods that build an object; the protocol rule never keeps them.
CONSTRUCTORS = {"__init__", "__new__", "__post_init__", "__init_subclass__"}

#: Installed as ``sitecustomize`` in every interpreter the entry points
#: start; ``sys.exit`` runs ``atexit`` in spawn workers too.
HOOK = '''\
import atexit, os, sys, threading
_seen = set()
def _prof(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)
def _dump():
    sys.setprofile(None)
    src = os.environ["SWEEP_SRC"]
    with open(os.path.join(os.environ["SWEEP_OUT"], f"{os.getpid()}.txt"),
              "a") as fh:
        for code in _seen:
            if code.co_filename.startswith(src):
                fh.write(f"{code.co_filename}\\t{code.co_firstlineno}\\n")
if os.environ.get("SWEEP_OUT"):
    atexit.register(_dump)
    sys.setprofile(_prof)
    threading.setprofile(_prof)
'''

BENCHES = ("ablation", "fig11", "table3", "weekly")


@dataclass(frozen=True)
class Function:
    path: str           # relative to src/repro
    qualname: str
    first_line: int     # the first decorator's line, if decorated
    lines: int
    abstract: bool

    @property
    def key(self) -> str:
        return f"{self.path}:{self.qualname}"


def _only_raises_not_implemented(node: ast.FunctionDef) -> bool:
    body = node.body
    if body and isinstance(body[0], ast.Expr) \
            and isinstance(body[0].value, ast.Constant):
        body = body[1:]                                     # the docstring
    return (len(body) == 1 and isinstance(body[0], ast.Raise)
            and body[0].exc is not None
            and "NotImplementedError" in ast.unparse(body[0].exc))


def named_functions(package: Path) -> list[Function]:
    """Every ``def`` under ``package``, with its qualified name."""
    found: list[Function] = []
    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package).as_posix()

        def visit(node, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    first = min([d.lineno for d in child.decorator_list]
                                + [child.lineno])
                    abstract = (
                        any(ast.unparse(d).endswith("abstractmethod")
                            for d in child.decorator_list)
                        or _only_raises_not_implemented(child))
                    found.append(Function(rel, qualname, first,
                                          child.end_lineno - first + 1,
                                          abstract))
                    visit(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), filename=str(path)), "")
    return found


def copy_tree(work: Path) -> None:
    """The parts of the repository the entry points read."""
    skip = shutil.ignore_patterns("__pycache__", "out", ".pytest_cache",
                                  ".hypothesis", ".benchmarks")
    for name in ("src", "tests", "benchmarks", "examples", "perfbench"):
        shutil.copytree(ROOT / name, work / name, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", work / "pyproject.toml")


def write_manifests(work: Path) -> tuple[str, str]:
    """The paper's §6.1.2 manifest as XML and as HUTN text."""
    code = (
        "import sys\n"
        "from repro.core.manifest import manifest_to_text, manifest_to_xml\n"
        "from tests.test_manifest_xml import paper_manifest\n"
        "m = paper_manifest()\n"
        "open(sys.argv[1], 'w').write(manifest_to_xml(m))\n"
        "open(sys.argv[2], 'w').write(manifest_to_text(m))\n")
    xml, rsm = work / "paper.xml", work / "paper.rsm"
    env = {**os.environ, "PYTHONPATH": f"src{os.pathsep}."}
    subprocess.run([sys.executable, "-c", code, str(xml), str(rsm)],
                   cwd=work, env=env, check=True)
    return str(xml), str(rsm)


class Runner:
    """Runs entry points in the copy with the hook on their path."""

    def __init__(self, work: Path, dumps: Path):
        hook_dir = work / "hook"
        hook_dir.mkdir()
        (hook_dir / "sitecustomize.py").write_text(HOOK)
        env = dict(os.environ)
        env.pop("PYTHONDONTWRITEBYTECODE", None)   # the copy may cache
        env["PYTHONPATH"] = os.pathsep.join(
            [str(hook_dir), str(work / "src"), str(work)])
        env["SWEEP_OUT"] = str(dumps)
        env["SWEEP_SRC"] = str(work / "src" / "repro") + os.sep
        self.work, self.env = work, env
        self.failures: list[str] = []

    def __call__(self, label: str, argv: list[str], *,
                 expect: int = 0) -> str:
        t0 = time.perf_counter()
        done = subprocess.run(argv, cwd=self.work, env=self.env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=900)
        status = "ok"
        if done.returncode != expect:
            status = f"FAILED (exit {done.returncode}, expected {expect})"
            self.failures.append(f"{label}: {status}\n{done.stderr[-2000:]}")
        print(f"  {time.perf_counter() - t0:6.1f} s  {label}  {status}",
              flush=True)
        return done.stdout


def run_entry_points(run: Runner, work: Path) -> None:
    """DESIGN §3's entry points, in the copy."""
    py = sys.executable
    cli = [py, "-m", "repro"]
    xml, rsm = write_manifests(work)
    out = work / "out"
    out.mkdir()
    runs = str(out / "runs")

    run("validate xml", cli + ["validate", xml])
    run("validate text", cli + ["validate", rsm])
    run("convert to text", cli + ["convert", xml, "--to", "text"])
    run("convert to xml", cli + ["convert", rsm, "--to", "xml"])
    run("generate-agent", cli + ["generate-agent", xml, "GridMgmtService"])
    run("generate-validator", cli + ["generate-validator", xml, "svc-1"])
    run("capacity plan", cli + ["capacity", xml])
    run("capacity admit", cli + ["capacity", xml, "--hosts", "6"])
    run("capacity refuse", cli + ["capacity", xml, xml, "--hosts", "6"],
        expect=1)
    run("plan refuse", cli + ["plan", xml], expect=1)
    fits = ["--hosts", "12", "--host-cpu", "8", "--host-memory", "32768"]
    run("plan fit", cli + ["plan", xml, *fits])
    run("plan admitted", cli + ["plan", xml, *fits, "--admitted", "3"])
    run("plan greedy-only", cli + ["plan", xml, *fits, "--greedy-only"])
    run("control-demo", cli + ["control-demo"])
    run("obs-report", cli + ["obs-report", "--chrome", str(out / "t.json"),
                             "--jsonl", str(out / "t.jsonl")])
    run("table3", cli + ["table3", "--small"])
    run("fig11", cli + ["fig11", "--small"])
    run("weekly", cli + ["weekly"])
    shape = ["scale", "--sites", "4", "--services", "40", "--hours", "1"]
    run("scale", cli + shape)
    run("scale profile", cli + shape + ["--profile", str(out / "p.json")])
    run("scale sharded", cli + shape + ["--procs", "2", "--verify-oracle"])
    run("scale defrag", cli + shape + ["--defrag-every", "0.25"])
    listing = run("experiment list", cli + ["experiment", "--list"])
    names = [line.split()[0] for line in listing.splitlines() if line.strip()]
    for name in names:
        run(f"experiment {name}", cli + ["experiment", name, "--out", runs])
    run("experiment sweep", cli + [
        "experiment", "flash-crowd", "--sweep", "sites=2,4", "services=16",
        "hours=0.25", "settle=120", "--seed", "7", "--out", runs])
    corpus = sorted(str(p) for p in Path(runs).glob("*.jsonl"))
    run("report", cli + ["report", *corpus])
    run("report filter", cli + ["report", *corpus, "--filter", "sites=4"])
    for example in sorted((work / "examples").glob("*.py")):
        run(f"example {example.stem}", [py, str(example)])
    for workload in ("paper-week", "federation-1p", "federation-2p"):
        run(f"perfbench {workload}",
            [py, "perfbench/run.py", "--workload", workload,
             "--size", "tiny", "--seconds", "1"])
    run("benches", [py, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                    "--benchmark-disable",
                    *[f"benchmarks/test_bench_{b}.py" for b in BENCHES]])


def reached_lines(dumps: Path, src: str) -> set[tuple[str, int]]:
    seen = set()
    for dump in dumps.glob("*.txt"):
        for line in dump.read_text().splitlines():
            filename, first = line.rsplit("\t", 1)
            seen.add((Path(filename).relative_to(src).as_posix(), int(first)))
    return seen


def read_keep(path: Path) -> tuple[dict[str, str], list[str]]:
    keep: dict[str, str] = {}
    problems = []
    for n, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or ":" not in parts[0]:
            problems.append(f"{path.name}:{n}: expected 'path:qualname  "
                            f"group', got {raw!r}")
        elif parts[1] not in GROUPS:
            problems.append(f"{path.name}:{n}: unknown group {parts[1]!r} "
                            f"(groups: {', '.join(GROUPS)})")
        else:
            keep[parts[0]] = parts[1]
    return keep, problems


def rule_group(f: Function):
    """The group a rule keeps ``f`` in, or None."""
    name = f.qualname.rsplit(".", 1)[-1]
    if (name.startswith("__") and name.endswith("__")
            and name not in CONSTRUCTORS):
        return "protocol"
    return "abstract" if f.abstract else None


def main() -> int:
    keep, problems = read_keep(KEEP_FILE)
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="sweep-") as tmp:
        work = Path(tmp).resolve()
        dumps = work / "dumps"
        dumps.mkdir()
        copy_tree(work)
        print(f"sweep: running the entry points in {work}", flush=True)
        run = Runner(work, dumps)
        run_entry_points(run, work)
        seen = reached_lines(dumps, str(work / "src" / "repro"))
        functions = named_functions(work / "src" / "repro")
    if run.failures:
        print("\nsweep: entry points failed, so the counts would be wrong:")
        for failure in run.failures:
            print(failure)
        return 1

    unreached = [f for f in functions if (f.path, f.first_line) not in seen]
    reached = len(functions) - len(unreached)
    print(f"\nsweep: {reached} of {len(functions)} named functions reached; "
          f"{len(unreached)} unreached "
          f"({sum(f.lines for f in unreached)} lines), "
          f"in {time.perf_counter() - t0:.0f} s")

    by_group: dict[str, int] = {}
    missing = []
    for f in unreached:
        group = rule_group(f) or keep.get(f.key)
        if group is None:
            missing.append(f.key)
        else:
            by_group[group] = by_group.get(group, 0) + 1
    print("  kept: " + ", ".join(f"{group} {count}" for group, count
                                 in sorted(by_group.items())))

    names = {f.key for f in functions}
    unreached_names = {f.key for f in unreached}
    for key in sorted(keep):
        if key not in names:
            problems.append(f"{KEEP_FILE.name}: {key} names no function")
        elif key not in unreached_names:
            print(f"  stale: {key} ran; its keep line can go")
    for key in missing:
        problems.append(f"unreached and not kept: {key}")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
