"""Every public top-level function and class of `finforge`, and every public
method of those classes, is read somewhere in the program (`src/`, or
`perfbench/` without its tests) outside its own definition, as a bare name
or an attribute. A name that only tests reach belongs in `tests/`; `KEPT`
lists the few kept for tests on purpose, each with its reason. Names are
matched, not bindings, so a name that another definition shares can pass.

Every private top-level function, class and constant of `finforge` is read
by `src/` itself outside its own definition: one that nothing reads, or only
tests and `perfbench/`, is dead code.

Every parameter of those functions and methods is also passed, by position
or by keyword, by some call in the program: a parameter that only tests pass
is a mode the program never selects. `KEPT_PARAMS` lists any kept on
purpose, as `function(parameter)` with its reason.

Every exception class of `finforge` is named in some `except` clause of
`src/`: one that nothing catches by name tells no caller anything that its
base class does not."""

import ast
import builtins
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "finforge"
PROGRAM = [*SRC.glob("*.py")] + [
    p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")
]

KEPT = {
    "cross_entropy_loss": "the loss of a (V, T) logits array, the oracle of the gradient checks",
    "gelu": "a model primitive, tested against its reference form",
    "gelu_grad": "a model primitive, tested against its reference form",
    "layer_norm": "a model primitive, tested against its reference form",
    "weighted_f1": "the paper's sentiment metric, for `eval classify` (ROADMAP direction 4)",
}


def _reads(program: list[Path]) -> dict[str, list[tuple[Path, int]]]:
    """Where each bare name or attribute appears in ``program``'s files."""
    reads: dict[str, list[tuple[Path, int]]] = {}
    for path in program:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                reads.setdefault(name, []).append((path, node.lineno))
    return reads


def _unread(src: Path, program: list[Path]) -> list[str]:
    """The public names defined in ``src``'s modules that no file of
    ``program`` reads outside the name's own definition."""
    reads = _reads(program)
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


def _unread_private(src: Path) -> list[str]:
    """``module.name`` for each private top-level function, class or
    constant of ``src``'s modules that no module of ``src`` reads outside the
    statement that defines it."""
    modules = sorted(src.glob("*.py"))
    reads, out = _reads(modules), []
    for path in modules:
        for top in ast.parse(path.read_text(), str(path)).body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                names = [top.name]
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                targets = top.targets if isinstance(top, ast.Assign) else [top.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            own = range(top.lineno, top.end_lineno + 1)
            out += [f"{path.stem}.{name}" for name in names
                    if name[0] == "_" and not name.startswith("__")
                    and all(p == path and line in own for p, line in reads.get(name, []))]
    return out


KEPT_PARAMS: dict[str, str] = {}


def _unpassed(src: Path, program: list[Path]) -> list[str]:
    """``function(parameter)`` for each parameter of a public function or
    method defined in ``src``'s modules that no call in ``program`` passes.

    Calls are matched by the callee's name. A call with ``*args`` or
    ``**kwargs`` passes every parameter. A method's first parameter (self or
    cls) is passed by the attribute a call goes through, so only a call of
    the bare name passes it by position. A function that no call names (a
    handler passed as a value, or a name in `KEPT`) is left to the name
    check."""
    calls: dict[str, list[ast.Call]] = {}
    for path in program:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append(node)
    out = []
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            defs = [(top, False)] if isinstance(top, ast.FunctionDef) else []
            if isinstance(top, ast.ClassDef):
                defs = [(m, "staticmethod" not in [getattr(d, "id", None) for d in m.decorator_list])
                        for m in top.body if isinstance(m, ast.FunctionDef)]
            for fn, method in defs:
                if fn.name[0] == "_" or fn.name not in calls:
                    continue
                positional = [a.arg for a in fn.args.posonlyargs + fn.args.args][method:]
                params = positional + [a.arg for a in fn.args.kwonlyargs]
                passed = set()
                for call in calls[fn.name]:
                    if any(isinstance(a, ast.Starred) for a in call.args) or any(
                        k.arg is None for k in call.keywords
                    ):
                        passed.update(params)
                    shift = method and isinstance(call.func, ast.Name)
                    passed.update(positional[: max(len(call.args) - shift, 0)])
                    passed.update(k.arg for k in call.keywords)
                out += [f"{fn.name}({p})" for p in params if p not in passed]
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


def test_every_private_name_is_read_by_src():
    assert _unread_private(SRC) == [], "nothing in src/ reads these: delete them"


def test_the_check_finds_a_private_helper_that_nothing_reads(tmp_path):
    (tmp_path / "mod.py").write_text(
        "_LIMIT = 3\n_unused_limit: int = 4\n\n\ndef run():\n    return _helper() + _LIMIT\n\n\n"
        "def _helper():\n    return 1\n\n\ndef _shared():\n    return 2\n\n\n"
        "class _Unused:\n    def size(self):\n        return _Unused()\n"
    )
    (tmp_path / "caller.py").write_text("from mod import _shared, run\n\nrun(_shared())\n")
    assert _unread_private(tmp_path) == ["mod._unused_limit", "mod._Unused"]


def test_every_parameter_is_passed_by_the_program():
    unpassed = _unpassed(SRC, PROGRAM)
    assert [p for p in unpassed if p not in KEPT_PARAMS] == [], (
        "only tests pass these: move the mode into tests/, or list it in KEPT_PARAMS"
    )
    assert sorted(unpassed) == sorted(KEPT_PARAMS)  # a kept parameter now passed, or gone


def test_the_check_finds_a_parameter_that_no_call_passes(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def f(a, b=0, *, c=1, d=2):\n    return a\n\n\n"
        "def g(x, y=0):\n    return x\n\n\n"
        "def handler(args):\n    return args\n\n\n"
        "class Box:\n    def put(self, item, where=None):\n        return item\n\n"
        "    @classmethod\n    def make(cls, size, fill=0):\n        return cls()\n\n"
        "    @staticmethod\n    def sized(n, m=0):\n        return n\n"
    )
    (tmp_path / "caller.py").write_text(
        "import mod\n\nmod.f(1, c=3)\nmod.g(*[1, 2])\nTABLE = {'run': mod.handler}\n"
        "box = mod.Box()\nbox.put(1)\nmod.Box.make(2, 3)\nmod.Box.sized(1)\n"
    )
    assert _unpassed(tmp_path, sorted(tmp_path.glob("*.py"))) == [
        "f(b)", "f(d)", "put(where)", "sized(m)"
    ]


def _uncaught(src: Path) -> list[str]:
    """``module.Name`` for each exception class defined at the top level of
    ``src``'s modules that no ``except`` clause of those modules names. An
    exception class is one whose base is a built-in exception or another
    exception class of ``src``."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))}
    caught, bases = set(), {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught.update(n.id if isinstance(n, ast.Name) else n.attr
                              for n in ast.walk(node.type)
                              if isinstance(n, (ast.Name, ast.Attribute)))
        for top in tree.body:
            if isinstance(top, ast.ClassDef):
                bases[top.name] = (path, [b.id if isinstance(b, ast.Name) else b.attr for b in
                                          top.bases if isinstance(b, (ast.Name, ast.Attribute))])

    def is_exception(name: str) -> bool:
        if name in bases:
            return any(map(is_exception, bases[name][1]))
        base = getattr(builtins, name, None)
        return isinstance(base, type) and issubclass(base, BaseException)

    return [f"{path.stem}.{name}" for name, (path, _) in bases.items()
            if name not in caught and is_exception(name)]


def test_every_exception_class_is_caught_by_name():
    assert _uncaught(SRC) == [], "nothing in src/ catches these: raise their base class instead"


def test_the_check_finds_an_exception_class_that_nothing_catches(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class Caught(ValueError):\n    pass\n\n\nclass Narrower(Caught):\n    pass\n\n\n"
        "class Never(RuntimeError):\n    pass\n\n\nclass Plain:\n    pass\n\n\n"
        "def run():\n    raise Narrower('x')\n"
    )
    (tmp_path / "caller.py").write_text(
        "import mod\n\ntry:\n    mod.run()\nexcept (mod.Caught, OSError):\n    pass\n"
    )
    assert _uncaught(tmp_path) == ["mod.Narrower", "mod.Never"]


def _json_parses(src: Path) -> list[str]:
    """``module:line`` of each ``json.load`` or ``json.loads`` that ``src``'s
    modules read, and of each ``from json import``."""
    out = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                    and isinstance(node.value, ast.Name) and node.value.id == "json"
                    or isinstance(node, ast.ImportFrom) and node.module == "json"):
                out.append(f"{path.stem}:{node.lineno}")
    return out


def test_json_is_parsed_in_atomic_alone():
    # atomic.json_value is the one parser, so every JSON input fails as a
    # data error that names where it came from
    parses = _json_parses(SRC)
    assert [p for p in parses if not p.startswith("atomic:")] == [], "parse with atomic.json_value"
    assert len(parses) == 1


def test_the_check_finds_every_json_parse(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import json\nfrom json import loads\n\n\ndef read(f, text):\n"
        "    return json.load(f), json.loads(text), json.dumps(text)\n"
    )
    assert _json_parses(tmp_path) == ["mod:2", "mod:6", "mod:6"]
