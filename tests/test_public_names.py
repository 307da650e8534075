"""Every public top-level name in ``src/dqip`` has a use outside its own definition.

A name counts as used when it appears, as an identifier or as a string
literal equal to it (``getattr`` by name, the benchmark's span table),
in a Python file under ``src/``, ``scripts/`` or ``bench/`` more often
than it is defined there at top level.  Uses in ``tests/`` do not count:
API that only the tests call is deleted, or listed in ``ALLOWED`` with
the reason it stays.
"""

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dqip"
SCANNED = [path for top in ("src", "scripts", "bench") for path in sorted((ROOT / top).rglob("*.py"))]

ALLOWED = {
    "protocol.spec_to_json": "the serializer of the spec golden files, which only the tests write and compare",
}


def _definitions(tree: ast.Module) -> list[str]:
    """The names a module binds at top level by def, class or assignment."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [target.id for target in targets if isinstance(target, ast.Name)]
    return names


def _occurrences(source: str) -> Counter:
    """Identifier tokens, and string literals that are a bare identifier, by name."""
    counts: Counter = Counter()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.NAME:
            counts[token.string] += 1
        elif token.type == tokenize.STRING:
            try:
                value = ast.literal_eval(token.string)
            except (ValueError, SyntaxError):
                continue
            if isinstance(value, str) and value.isidentifier():
                counts[value] += 1
    return counts


def unused_public_names() -> list[str]:
    occurrences: Counter = Counter()
    definitions: Counter = Counter()
    for path in SCANNED:
        source = path.read_text()
        occurrences += _occurrences(source)
        definitions.update(_definitions(ast.parse(source)))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name in _definitions(ast.parse(path.read_text())):
            if not name.startswith("_") and occurrences[name] <= definitions[name]:
                unused.append(f"{path.stem}.{name}")
    return unused


def test_every_public_name_has_a_use_outside_the_tests():
    assert [name for name in unused_public_names() if name not in ALLOWED] == []


def test_every_allowlist_entry_is_still_needed():
    unused = unused_public_names()
    assert [name for name in ALLOWED if name not in unused] == []
