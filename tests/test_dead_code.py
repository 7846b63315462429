"""Dead-code guard: every function and class under src/outwalk has a
reader in src/outwalk itself."""

import ast
import collections
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "outwalk")

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


def unreferenced_definitions():
    """(module, name) of each non-dunder function or class that no src code
    names outside its own body."""
    trees = {}
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname)) as f:
                trees[fname] = ast.parse(f.read(), fname)
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
