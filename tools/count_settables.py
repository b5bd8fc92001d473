"""Count the settable values of the library: what a caller can set.

    python3 tools/count_settables.py [SRC_DIR]

Reads every ``*.py`` under SRC_DIR (default ``src/``) with ``ast`` and
never imports it. Three kinds are counted:

* defaulted parameters: the parameters of every function or method that
  carry a default value (positional and keyword-only);
* dataclass fields: the annotated class-level names of every class
  decorated with ``dataclass`` (called or not), ``ClassVar`` excluded;
* CLI keys: dict entries with a string key and a ``Param(...)`` value,
  once per entry as written (a shared dict spread into several
  experiments counts once).

Prints one line per kind and the total.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(
            target, "id", None)
        if name == "dataclass":
            return True
    return False


def _is_classvar(annotation: ast.expr) -> bool:
    target = annotation.value if isinstance(annotation, ast.Subscript) else annotation
    return getattr(target, "id", getattr(target, "attr", None)) == "ClassVar"


def count(tree: ast.AST) -> dict:
    out = {"defaulted parameters": 0, "dataclass fields": 0, "CLI keys": 0}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            out["defaulted parameters"] += len(args.defaults) + sum(
                d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            out["dataclass fields"] += sum(
                isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
                and not _is_classvar(s.annotation) for s in node.body)
        elif isinstance(node, ast.Dict):
            out["CLI keys"] += sum(
                isinstance(k, ast.Constant) and isinstance(k.value, str)
                and isinstance(v, ast.Call) and getattr(v.func, "id", None) == "Param"
                for k, v in zip(node.keys, node.values))
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent / "src")
    totals = {}
    for path in sorted(root.rglob("*.py")):
        for kind, n in count(ast.parse(path.read_text(encoding="utf-8"))).items():
            totals[kind] = totals.get(kind, 0) + n
    for kind, n in totals.items():
        print(f"{kind}: {n}")
    print(f"total: {sum(totals.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
