"""Source hygiene: every imported name is used, only `retforge.files`
writes files, only `retforge.checkpoint` lays out binary data, no
`setdefault` builds a numpy default, no generator is decorated with
`no_grad()`, only `Document.sentence_ranges` segments sentences, and the
encoder never reads the grad mode.

`src/retforge/__init__.py` is skipped by the import check: it imports names to
re-export them through `__all__`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "retforge").glob("*.py"))
CHECKED = [p for p in SOURCES if p.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))


def imported_names(tree: ast.AST) -> dict[str, int]:
    """Each name an import binds, with the line of the import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_checked_files_found():
    assert any(p.parent.name == "retforge" for p in CHECKED)
    assert Path(__file__).resolve() in CHECKED


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = sorted(
        (line, name) for name, line in imported_names(tree).items() if name not in used
    )
    assert unused == [], f"{path.name}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in unused
    )


def test_scan_catches_an_unused_import():
    tree = ast.parse(
        "from dataclasses import dataclass, field\n"
        "import os.path\n"
        "import numpy as np\n"
        "@dataclass\n"
        "class A:\n"
        "    x: np.ndarray\n"
    )
    used = used_names(tree)
    assert sorted(n for n in imported_names(tree) if n not in used) == ["field", "os"]


def file_writes(tree: ast.AST) -> list[int]:
    """Lines that write a file: `.write_text`, `.write_bytes`, or an `open`
    whose mode is not a constant read mode (for `open(file, mode)`, the second
    argument; for a method such as `Path.open(mode)`, the first)."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if isinstance(func, ast.Attribute) and name in ("write_text", "write_bytes"):
            lines.append(node.lineno)
        elif name == "open":
            modes = [k.value for k in node.keywords if k.arg == "mode"]
            modes += node.args[1:2] if isinstance(func, ast.Name) else node.args[:1]
            if any(
                not (isinstance(m, ast.Constant) and isinstance(m.value, str))
                or set(m.value) - set("rbt")
                for m in modes
            ):
                lines.append(node.lineno)
    return sorted(lines)


def test_only_retforge_files_writes_files():
    found = [
        f"{path.name}:{line}"
        for path in SOURCES if path.name != "files.py"
        for line in file_writes(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == [], "write through retforge.files instead: " + ", ".join(found)


def test_scan_catches_every_way_to_write_a_file():
    tree = ast.parse(
        'open(p, "w")\n'
        'open(p, mode="ab")\n'
        'open(p, m)\n'
        'p.open("x")\n'
        'p.write_text("")\n'
        'p.write_bytes(b"")\n'
        'open(p, "r+")\n'
        'os.open(p, flags)\n'
        'open(p)\n'
        'open(p, "rb")\n'
        'open(p, encoding="utf-8")\n'
        'p.open()\n'
    )
    assert file_writes(tree) == [1, 2, 3, 4, 5, 6, 7, 8]


def binary_layouts(tree: ast.AST) -> list[int]:
    """Lines that lay out binary data by hand: a call into `struct` (however
    imported), `.tobytes()` or `frombuffer`."""
    modules, functions = {"struct"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "struct"}
        elif isinstance(node, ast.ImportFrom) and node.module == "struct":
            functions |= {a.asname or a.name for a in node.names}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            owner = func.value.id if isinstance(func.value, ast.Name) else None
            if func.attr in ("tobytes", "frombuffer") or owner in modules:
                lines.append(node.lineno)
        elif isinstance(func, ast.Name) and (func.id == "frombuffer" or func.id in functions):
            lines.append(node.lineno)
    return sorted(lines)


def test_only_retforge_checkpoint_lays_out_binary_data():
    found = [
        f"{path.name}:{line}"
        for path in SOURCES if path.name != "checkpoint.py"
        for line in binary_layouts(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == [], "save and load through retforge.checkpoint instead: " + ", ".join(found)


def test_scan_catches_every_way_to_lay_out_binary_data():
    tree = ast.parse(
        'struct.pack("<I", n)\n'
        'struct.unpack_from("<QQQ", raw, 8)\n'
        'arr.astype("<f4").tobytes()\n'
        'np.frombuffer(raw, dtype="<i8")\n'
        'frombuffer(raw)\n'
        'st.calcsize("<I")\n'
        'pack("<Q", 1)\n'
        'unpack("<Q", raw)\n'
        'import struct as st\n'
        'from struct import pack, unpack_from as unpack\n'
        'arr.tolist()\n'
        'np.asarray(raw)\n'
        'packer.pack(1)\n'
        'unpack_from(raw)\n'
    )
    assert binary_layouts(tree) == [1, 2, 3, 4, 5, 6, 7, 8]


def numpy_defaults(tree: ast.AST) -> list[int]:
    """Lines of a `.setdefault(key, default)` whose default calls into numpy
    (however imported): the default is built on every call, used or not."""
    modules, functions = {"numpy"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "numpy"}
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            functions |= {a.asname or a.name for a in node.names}

    def calls_numpy(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Name):
            return func.id in functions
        while isinstance(func, ast.Attribute):
            func = func.value
        return isinstance(func, ast.Name) and func.id in modules

    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "setdefault"
        and len(node.args) > 1 and any(map(calls_numpy, ast.walk(node.args[1])))
    )


def test_no_setdefault_builds_a_numpy_default():
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in numpy_defaults(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == [], "allocate on a key's first use instead: " + ", ".join(found)


def test_scan_catches_every_numpy_default_of_setdefault():
    tree = ast.parse(
        "state.setdefault(key, np.zeros_like(p.data))\n"
        "state.setdefault(key, numpy.zeros(3))\n"
        "state.setdefault(key, (p, np.random.default_rng(0)))\n"
        "state.setdefault(key, zl(x))\n"
        "import numpy as np\n"
        "from numpy import zeros_like as zl\n"
        "state.setdefault(key, (p, [], []))\n"
        "state.setdefault(key, np.float64)\n"
        "state.setdefault(key, make(np))\n"
        "state.setdefault(np.zeros(1).tobytes())\n"
        "state.get(key, np.zeros(3))\n"
    )
    assert numpy_defaults(tree) == [1, 2, 3, 4]


def no_grad_generators(tree: ast.AST) -> list[str]:
    """Functions decorated with `no_grad()` whose own body yields. The
    decorator's block ends when the call returns the generator, before the
    body runs, so such a body records a graph whenever its caller does."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not any(
            isinstance(d, ast.Call)
            and (getattr(d.func, "id", None) or getattr(d.func, "attr", None)) == "no_grad"
            for d in node.decorator_list
        ):
            continue
        todo = list(node.body)
        while todo:
            inner = todo.pop()
            if isinstance(inner, (ast.Yield, ast.YieldFrom)):
                found.append(node.name)
                break
            if not isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                                      ast.ClassDef)):
                todo.extend(ast.iter_child_nodes(inner))
    return found


def test_no_generator_is_decorated_with_no_grad():
    found = [
        f"{path.name}:{name}"
        for path in SOURCES
        for name in no_grad_generators(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == [], "no_grad() does not cover a generator's body: " + ", ".join(found)


def test_scan_catches_a_no_grad_generator():
    tree = ast.parse(
        "@ad.no_grad()\n"
        "def chunks(xs):\n"
        "    for x in xs:\n"
        "        yield x\n"
        "@no_grad()\n"
        "def delegated(xs):\n"
        "    yield from xs\n"
        "@ad.no_grad()\n"
        "def eager(xs):\n"
        "    def inner():\n"
        "        yield 1\n"
        "    return [x for x in xs]\n"
        "def plain(xs):\n"
        "    yield from xs\n"
    )
    assert no_grad_generators(tree) == ["chunks", "delegated"]


def callers(tree: ast.AST, name: str) -> list[str]:
    """The enclosing function (`Class.method` inside a class, `<module>` at
    top level) of every call to `name`, as a bare name or an attribute."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            elif isinstance(child, ast.Call):
                func = child.func
                if (getattr(func, "id", None) or getattr(func, "attr", None)) == name:
                    found.append(scope)
            visit(child, inner)

    visit(tree, "<module>")
    return found


def test_only_the_document_segments_sentences():
    found = [
        f"{path.name}:{scope}"
        for path in SOURCES
        for scope in callers(ast.parse(path.read_text(encoding="utf-8")), "segment_sentences")
    ]
    assert found == ["data.py:Document.sentence_ranges"], (
        "slice a document's tokens by its sentence_ranges instead: " + ", ".join(found)
    )


def test_scan_catches_every_caller_of_a_function():
    tree = ast.parse(
        "segment_sentences(text)\n"
        "class Doc:\n"
        "    def ranges(self):\n"
        "        return [len(s) for s in text.segment_sentences(self.text)]\n"
        "def sample(doc):\n"
        "    def inner():\n"
        "        return segment_sentences(doc.text)\n"
        "    return inner\n"
        "def reads_only(doc):\n"
        "    f = segment_sentences\n"
        "    return doc.segment_sentences\n"
    )
    assert callers(tree, "segment_sentences") == ["<module>", "Doc.ranges", "sample.inner"]


def test_encoder_never_reads_the_grad_mode():
    # a pooled forward keeps one rule, whether or not it records a graph
    tree = ast.parse((ROOT / "src" / "retforge" / "encoder.py").read_text(encoding="utf-8"))
    assert callers(tree, "grad_enabled") == [], "the encoder forks on the grad mode"


def test_scan_catches_a_grad_mode_fork():
    tree = ast.parse(
        "class TransformerEncoder:\n"
        "    def forward(self, ids, pooled=False):\n"
        "        narrow = pooled and not ad.grad_enabled()\n"
        "def layer(h, narrow):\n"
        "    return h if grad_enabled() else narrow\n"
        "enabled = ad.grad_enabled\n"
    )
    assert callers(tree, "grad_enabled") == ["TransformerEncoder.forward", "layer"]
