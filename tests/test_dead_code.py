"""Dead-code guard: every function and class under src/outwalk has a
reader in src/outwalk itself, and every dataclass field there a reader in
src/outwalk or the tests."""

import ast
import collections
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "outwalk")
TESTS = os.path.join(ROOT, "tests")

# A walk of one trial, read only by the bench's trace replay and the tests;
# ROADMAP item 1 deletes it once the bench times whole blocks.
ALLOWED = {"sample_path"}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node):
    """Every name node reads or writes, as a Name or an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _parse(directory):
    """file name -> AST of each Python file in directory."""
    trees = {}
    for fname in sorted(os.listdir(directory)):
        if fname.endswith(".py"):
            with open(os.path.join(directory, fname)) as f:
                trees[fname] = ast.parse(f.read(), fname)
    return trees


def unreferenced_definitions():
    """(module, name) of each non-dunder function or class that no src code
    names outside its own body."""
    trees = _parse(SRC)
    refs = collections.Counter(n for t in trees.values() for n in _names(t))
    dead = []
    for fname, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, DEFS) or node.name.startswith("__"):
                continue
            own = sum(n == node.name for n in _names(node))
            if refs[node.name] == own:
                dead.append((fname, node.name))
    return dead


def test_every_src_definition_has_a_src_reader():
    dead = [d for d in unreferenced_definitions() if d[1] not in ALLOWED]
    assert not dead, "no src code references %s" % ", ".join(
        "%s:%s" % d for d in dead)


def test_the_allowed_definitions_are_still_unreferenced():
    # an allowed name that gains a src reader leaves the list
    assert {name for _, name in unreferenced_definitions()} >= ALLOWED


def _is_dataclass(node):
    for dec in node.decorator_list:
        dec = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(dec, "id", getattr(dec, "attr", None)) == "dataclass":
            return True
    return False


def unread_dataclass_fields():
    """(module, class, field) of each src dataclass field whose name no code
    in src or the tests reads: as an attribute load, or as a string constant
    (a field read by name, as cli._clt_json reads CltReport's)."""
    src = _parse(SRC)
    reads = set()
    for tree in [*src.values(), *_parse(TESTS).values()]:
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                reads.add(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                reads.add(sub.value)
    return [(fname, node.name, stmt.target.id)
            for fname, tree in src.items() for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and _is_dataclass(node)
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.target.id not in reads]


def test_every_dataclass_field_has_a_reader():
    dead = unread_dataclass_fields()
    assert not dead, "no src or test code reads %s" % ", ".join(
        "%s:%s.%s" % d for d in dead)
