"""Every module-level function and class in the package has a caller.

A definition in ``src/dualformer/`` counts as used when some statement in
``src/``, ``scripts/`` or ``perfbench/`` other than the definition itself
refers to it: as a name, an attribute, an import, or a string constant
that spells a dotted name (each part counts, which covers perfbench's
by-name ``TARGETS`` and the package's lazy export table). Tests do not
count, so API that only tests use is flagged.

By the same rule every defaulted parameter of a package function, methods
and nested functions included, must be passed by some call in the scanned
code, by keyword or by position; otherwise it is a constant posing as an
option. Calls are matched to definitions by name, a class call to its
``__init__``, and a call with ``*args`` or ``**kwargs`` counts as passing
what it could. A dataclass field with a default is a parameter of the
class call too, unless it is declared ``field(init=False)``, and a
``replace(obj, name=...)`` call also passes it.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "dualformer"
SCANNED = ("src", "scripts", "perfbench")
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")

FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)

# kept without a caller in the scanned code, one reason per name; a
# parameter is named as module.function(parameter)
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


def _calls() -> dict:
    """Callee name -> every call to that name in the scanned code."""
    calls = {}
    for stmt, _ in REFS:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


CALLS = _calls()


def _field_options(value) -> dict:
    """A dataclass field's ``field(...)`` keywords, or its plain default."""
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return {kw.arg: kw.value for kw in value.keywords}
    return {} if value is None else {"default": value}


def _fields(cls: ast.ClassDef):
    """(field, options) for each ``__init__`` parameter of a dataclass, in order."""
    # @dataclass or @dataclass(...)
    if not any(getattr(getattr(d, "func", d), "id", None) == "dataclass" for d in cls.decorator_list):
        return []
    fields = [(s.target.id, _field_options(s.value)) for s in cls.body
              if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
    return [(f, opts) for f, opts in fields if getattr(opts.get("init"), "value", True)]


def _defaulted():
    """(module.function(param), param, [(call, position among the call's
    arguments or None for keyword only)]) for every defaulted parameter and
    every dataclass field with a default."""
    for path in sorted(PKG.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {fn: cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for fn in cls.body if isinstance(fn, FUNCS)}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.ClassDef):
                for i, (name, opts) in enumerate(_fields(fn)):
                    if {"default", "default_factory"} & set(opts):
                        chances = [(c, i) for c in CALLS.get(fn.name, ())]
                        chances += [(c, None) for c in CALLS.get("replace", ())]
                        yield f"{path.stem}.{fn.name}({name})", name, chances
            if not isinstance(fn, FUNCS):
                continue
            cls = owner.get(fn)
            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            bound = int(cls is not None and not static)  # self is not a call argument
            calls = CALLS.get(cls.name if fn.name == "__init__" else fn.name, ())
            qual = f"{path.stem}.{cls.name + '.' if cls else ''}{fn.name}"
            pos = fn.args.posonlyargs + fn.args.args
            first = len(pos) - len(fn.args.defaults)
            for i, arg in enumerate(pos[first:], first):
                yield f"{qual}({arg.arg})", arg.arg, [(c, i - bound) for c in calls]
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield f"{qual}({arg.arg})", arg.arg, [(c, None) for c in calls]


def _passes(call, param: str, index) -> bool:
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    return index is not None and (
        len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)
    )


DEFAULTED = list(_defaulted())


def test_every_definition_has_a_caller():
    unused = sorted(
        qual
        for qual, node in DEFS
        if not any(node.name in names for stmt, names in REFS if stmt is not node)
    )
    assert [q for q in unused if q not in ALLOWED] == []


def test_every_defaulted_parameter_is_passed():
    unset = sorted(
        qual
        for qual, param, chances in DEFAULTED
        if not any(_passes(call, param, index) for call, index in chances)
    )
    assert [q for q in unset if q not in ALLOWED] == []


def test_allowlist_names_real_definitions():
    assert set(ALLOWED) <= {qual for qual, _ in DEFS} | {qual for qual, *_ in DEFAULTED}
