"""The coverage sweep's static half (``tools/sweep.py``): the keep list,
the ``ast`` walk and the keep rules. The entry-point run itself is CI's
``coverage-sweep`` job."""

import importlib.util
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("sweep", ROOT / "tools" / "sweep.py")
sweep = importlib.util.module_from_spec(_spec)
sys.modules["sweep"] = sweep
_spec.loader.exec_module(sweep)


def test_every_keep_line_names_a_function_under_a_known_group():
    keep, problems = sweep.read_keep(sweep.KEEP_FILE)
    assert problems == []
    names = {f.key for f in sweep.named_functions(ROOT / "src" / "repro")}
    assert sorted(set(keep) - names) == []


def test_walk_names_methods_and_nested_functions_from_their_first_line(
        tmp_path):
    (tmp_path / "m.py").write_text(textwrap.dedent('''\
        import abc

        class C(abc.ABC):
            @property
            def p(self):
                def inner():
                    return 1
                return inner()

            @abc.abstractmethod
            def a(self): ...

            def n(self):
                """Docstring."""
                raise NotImplementedError

            def __repr__(self):
                return "C"

            def __init__(self):
                pass
        '''))
    found = {f.qualname: f for f in sweep.named_functions(tmp_path)}
    assert sorted(found) == ["C.__init__", "C.__repr__", "C.a", "C.n", "C.p",
                             "C.p.<locals>.inner"]
    assert found["C.p"].first_line == 4 and found["C.p"].lines == 5
    assert [q for q, f in sorted(found.items())
            if sweep.rule_group(f) == "abstract"] == ["C.a", "C.n"]
    assert sweep.rule_group(found["C.__repr__"]) == "protocol"
    assert sweep.rule_group(found["C.__init__"]) is None
    assert sweep.rule_group(found["C.p"]) is None


def test_keep_list_refuses_unknown_groups_and_malformed_lines(tmp_path):
    path = tmp_path / "keep.txt"
    path.write_text("a.py:f  paper  # why\n\na.py:g  someday\nno-colon  paper\n")
    keep, problems = sweep.read_keep(path)
    assert keep == {"a.py:f": "paper"}
    assert len(problems) == 2
    assert "unknown group 'someday'" in problems[0]
    assert "expected 'path:qualname  group'" in problems[1]
