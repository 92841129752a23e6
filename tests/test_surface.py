"""Every public top-level function and class of `finforge`, and every public
method of those classes, is read somewhere in the program (`src/`, or
`perfbench/` without its tests) outside its own definition, as a bare name
or an attribute. A name that only tests reach belongs in `tests/`; `KEPT`
lists the few kept for tests on purpose, each with its reason. Names are
matched, not bindings, so a name that another definition shares can pass."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "finforge"
PROGRAM = [*SRC.glob("*.py")] + [
    p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")
]

KEPT = {
    "gelu": "a model primitive, tested against its reference form",
    "gelu_grad": "a model primitive, tested against its reference form",
    "layer_norm": "a model primitive, tested against its reference form",
    "weighted_f1": "the paper's sentiment metric, for `eval classify` (ROADMAP direction 4)",
}


def _unread(src: Path, program: list[Path]) -> list[str]:
    """The public names defined in ``src``'s modules that no file of
    ``program`` reads outside the name's own definition."""
    reads: dict[str, list[tuple[Path, int]]] = {}
    for path in program:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                reads.setdefault(name, []).append((path, node.lineno))
    out = []
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            methods = [m for m in top.body if isinstance(m, ast.FunctionDef)]
            for node, label in [(top, top.name)] + [(m, f"{top.name}.{m.name}") for m in methods]:
                own = range(node.lineno, node.end_lineno + 1)
                if node.name[0] != "_" and all(
                    p == path and line in own for p, line in reads.get(node.name, [])
                ):
                    out.append(label)
    return out


def test_every_public_name_is_read_by_the_program():
    unread = _unread(SRC, PROGRAM)
    assert [n for n in unread if n not in KEPT] == [], "move these into tests/, or list them in KEPT"
    assert sorted(unread) == sorted(KEPT)  # a kept name that is now read, or gone, leaves KEPT


def test_the_check_finds_a_name_read_only_inside_its_own_definition(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def used():\n    return used_too()\n\n\ndef used_too():\n    return 1\n\n\n"
        "class Box:\n    def size(self):\n        return self.size()\n\n    def fill(self):\n"
        "        return 0\n\n\ndef unused():\n    return unused()\n"
    )
    (tmp_path / "caller.py").write_text("import mod\n\nmod.used()\nmod.Box().fill()\n")
    assert _unread(tmp_path, sorted(tmp_path.glob("*.py"))) == ["Box.size", "unused"]
