"""Every module-level function and class in the package has a caller.

A definition in ``src/dualformer/`` counts as used when some statement in
``src/``, ``scripts/`` or ``perfbench/`` other than the definition itself
refers to it: as a name, an attribute, an import, or a string constant
that spells a dotted name (each part counts, which covers perfbench's
by-name ``TARGETS`` and the package's lazy export table). Tests do not
count, so API that only tests use is flagged.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "dualformer"
SCANNED = ("src", "scripts", "perfbench")
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")

# kept without a caller in the scanned code, one reason per name
ALLOWED = {
    "attention.vanilla_attention": "MHSA baseline that acceptance check 2 compares MHPA against",
    "flops.vanilla_attention_flops": "MHSA cost that acceptance check 4 compares MHPA against",
    "__init__.__getattr__": "module hook that Python itself calls for lazy exports",
}


def _names(node) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.update(sub.name.split("."))
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if DOTTED.fullmatch(sub.value):
                out.update(sub.value.split("."))
    return out


def _scan():
    """(definitions, references): definitions are (module.name, node); references
    are (top-level statement, names it refers to) over every scanned file."""
    defs, refs = [], []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            for stmt in tree.body:
                refs.append((stmt, _names(stmt)))
                if path.parent == PKG and isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    defs.append((f"{path.stem}.{stmt.name}", stmt))
    return defs, refs


DEFS, REFS = _scan()


def test_every_definition_has_a_caller():
    unused = sorted(
        qual
        for qual, node in DEFS
        if not any(node.name in names for stmt, names in REFS if stmt is not node)
    )
    assert [q for q in unused if q not in ALLOWED] == []


def test_allowlist_names_real_definitions():
    assert set(ALLOWED) <= {qual for qual, _ in DEFS}
