"""Coverage for tools/check_results.py (the committed-tables gate).

Regenerating the tables takes a minute, so CI runs the gate itself; here
the comparison must name each seeded difference.
"""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "check_results.py")

spec = importlib.util.spec_from_file_location("check_results", TOOL)
cr = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cr)


def _tables(path, **tables):
    path.mkdir()
    for name, text in tables.items():
        (path / f"{name}.txt").write_text(text)
    return path


def test_identical_tables_pass(tmp_path):
    a = _tables(tmp_path / "a", fig3="x  0.547\n", fig4="y\n")
    b = _tables(tmp_path / "b", fig3="x  0.547\n", fig4="y\n")
    assert cr.compare_tables(a, b) == []


def test_each_table_difference_is_named(tmp_path):
    committed = _tables(tmp_path / "a", fig3="x  0.547\n", fig4="y\n")
    fresh = _tables(tmp_path / "b", fig3="x  0.548\n", fig5="z\n")
    problems = cr.compare_tables(committed, fresh)
    assert [p.split(":")[0] for p in problems] == \
        ["fig4.txt", "fig5.txt", "fig3.txt"]
    assert "-x  0.547" in problems[2] and "+x  0.548" in problems[2]
