"""Each CLI input is read one way: every CSV file through `text.csv_rows`,
and every feature file of the CLI through `cli._read_features`."""
from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src/wavetransformer"


def calls_of(source: str, module: str, names: set[str]) -> list[tuple[str, int]]:
    """(enclosing function, line) of each call in `source` to one of
    `names` of `module`, by attribute or by a name imported from it."""
    tree = ast.parse(source)
    modules, direct = {module}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names
                        if alias.name.split(".")[-1] == module}
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (node.module or "").split(".")[-1] == module and alias.name in names:
                    direct.add(alias.asname or alias.name)
                elif alias.name == module:
                    modules.add(alias.asname or alias.name)

    def wanted(func) -> bool:
        if isinstance(func, ast.Name):
            return func.id in direct
        return (isinstance(func, ast.Attribute) and func.attr in names
                and ast.unparse(func.value).split(".")[-1] in modules)

    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call) and wanted(node.func):
            found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


def test_csv_reader_is_built_only_in_the_row_reader():
    built = [(path.relative_to(REPO).as_posix(), scope)
             for path in sorted(SRC.rglob("*.py"))
             for scope, _ in calls_of(path.read_text(encoding="utf-8"), "csv",
                                      {"reader", "DictReader"})]
    assert built == [("src/wavetransformer/text.py", "csv_rows")]


def test_cli_reads_feature_files_in_one_place():
    source = (SRC / "cli.py").read_text(encoding="utf-8")
    assert [scope for scope, _ in calls_of(source, "fileformats", {"read_wtf1"})] == [
        "_read_features"]


def test_the_call_check_sees_every_form_of_call():
    source = (
        "import csv\n"
        "import csv as c\n"
        "from csv import reader as r, writer\n"
        "from wavetransformer import fileformats\n"
        "def a(fh):\n"
        "    csv.reader(fh)\n"
        "    def b():\n"
        "        return c.DictReader(fh)\n"
        "    r(fh); writer(fh); csv.writer(fh); fileformats.read_wtf1(fh)\n"
        "x = wavetransformer.csv.reader(fh)\n"
    )
    assert calls_of(source, "csv", {"reader", "DictReader"}) == [
        ("a", 6), ("b", 8), ("a", 9), ("<module>", 10)]
    assert calls_of(source, "fileformats", {"read_wtf1"}) == [("a", 9)]
