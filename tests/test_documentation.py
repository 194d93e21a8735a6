"""Documentation coverage: every public item in the library carries a
docstring (deliverable (e) — enforced mechanically, not by review)."""

import ast
import fnmatch
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import repro


def _public_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


def _is_local(obj, module) -> bool:
    return getattr(obj, "__module__", None) == module.__name__


def test_every_module_has_a_docstring():
    undocumented = [m.__name__ for m in _public_modules() if not m.__doc__]
    assert undocumented == []


def test_every_public_class_has_a_docstring():
    undocumented = []
    for module in _public_modules():
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isclass(obj):
                continue
            if _is_local(obj, module) and not obj.__doc__:
                undocumented.append(f"{module.__name__}.{name}")
    assert undocumented == []


def test_every_public_function_has_a_docstring():
    undocumented = []
    for module in _public_modules():
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if _is_local(obj, module) and not obj.__doc__:
                undocumented.append(f"{module.__name__}.{name}")
    assert undocumented == []


def test_public_methods_of_core_api_are_documented():
    """The classes a downstream user touches first get the strict
    treatment: every public method documented."""
    from repro.core.client import OverlayClient
    from repro.core.network import OverlayNetwork
    from repro.core.node import OverlayNode
    from repro.protocols.base import LinkProtocol

    undocumented = []
    for cls in (OverlayClient, OverlayNetwork, OverlayNode, LinkProtocol):
        for name, member in vars(cls).items():
            if name.startswith("_") or not callable(member):
                continue
            if not getattr(member, "__doc__", None):
                undocumented.append(f"{cls.__name__}.{name}")
    assert undocumented == []


# --------------------------------------------- names the docs point at

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("DESIGN.md", "README.md", ".claude/skills/verify/SKILL.md")
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")
#: A dotted token ending in one of these is a file name, not code.
_FILE_SUFFIXES = {"py", "md", "json", "jsonl", "yml", "yaml", "toml", "txt",
                  "gz"}


def _source_index() -> tuple[set, set, set, set]:
    """From the AST of ``src/repro``: every qualified path a module,
    class, function or attribute defines (re-exports included) and its
    dotted suffixes, every last component of one, every package and
    module name, every string literal, and every top-level module the
    sources ``import``."""
    paths, modules, literals, imported = set(), set(), set(), set()

    def scan(node, prefix: str, local: bool = False) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                paths.add(f"{prefix}.{child.name}")
                scan(child, prefix, True)  # self.x = ... is the class's
            elif isinstance(child, ast.ClassDef):
                paths.add(f"{prefix}.{child.name}")
                scan(child, f"{prefix}.{child.name}")
            elif isinstance(child, (ast.Assign, ast.AnnAssign)):
                targets = (child.targets if isinstance(child, ast.Assign)
                           else [child.target])
                for target in targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Name) and not local:
                            paths.add(f"{prefix}.{sub.id}")
                        elif isinstance(sub, ast.Attribute) and isinstance(
                                sub.value, ast.Name) and sub.value.id == "self":
                            paths.add(f"{prefix}.{sub.attr}")
                scan(child, prefix, local)
            elif isinstance(child, ast.ImportFrom):
                paths.update(f"{prefix}.{alias.asname or alias.name}"
                             for alias in child.names)
            elif isinstance(child, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in child.names)
            else:
                scan(child, prefix, local)

    for path in (ROOT / "src" / "repro").rglob("*.py"):
        parts = path.relative_to(ROOT / "src").with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        tree = ast.parse(path.read_text())
        paths.add(module)
        modules.add(module)
        scan(tree, module)
        literals.update(node.value for node in ast.walk(tree)
                        if isinstance(node, ast.Constant)
                        and isinstance(node.value, str))
    suffixes = {".".join(p.split(".")[i:]) for p in paths
                for i in range(p.count(".") + 1)}
    members = {p.rsplit(".", 1)[-1] for p in paths - modules}
    packages = {part for p in modules for part in p.split(".")}
    return suffixes, members, packages, literals, imported


def _resolves(name: str, index) -> bool:
    suffixes, members, packages, literals, imported = index
    if name in suffixes or name in literals:
        return True
    head, rest = name.split(".", 1)
    if head in packages and head not in members:  # ``core.groups``
        return False
    if head in imported:  # the standard library, e.g. ``os.replace``
        target = importlib.import_module(head)
        for part in rest.split("."):
            if not hasattr(target, part):
                return False
            target = getattr(target, part)
        return True
    # ``inet._path_cache``: a variable, then attributes of its value.
    return all(part in members for part in rest.split("."))


def test_docs_name_code_that_exists():
    """Every backticked dotted name in the docs resolves to a module,
    class, function or attribute of ``src/repro`` (or is a string the
    sources use, such as the counter ``topo.rows_patched``)."""
    index = _source_index()
    stale = []
    for doc in DOCS:
        for span in re.findall(r"`([^`\n]+)`", (ROOT / doc).read_text()):
            for name in _DOTTED.findall(span):
                if name.rsplit(".", 1)[-1] in _FILE_SUFFIXES:
                    continue
                if not _resolves(name, index):
                    stale.append(f"{doc}: {name}")
    assert stale == []


#: A backticked token that is a path to a file: no spaces, globs or
#: placeholders, ending in one of the file suffixes.
_PATH = re.compile(r"[\w./-]+\.(?:%s)" % "|".join(sorted(_FILE_SUFFIXES)))
#: Where a path in the docs may be relative to.
_PATH_ROOTS = (ROOT, ROOT / "src", ROOT / "src" / "repro", ROOT / "benchmarks")


def test_docs_name_files_that_exist():
    """Every backticked path with a file suffix in the docs and in
    EXPERIMENTS.md names a file that exists, relative to the repository
    root, ``src/``, ``src/repro/`` or ``benchmarks/`` — so a doc cannot
    point at a deleted test, bench or file.
    An output that ``.gitignore`` names (``BENCH_*.json``, say) is
    written by a run, not kept, and is not looked for."""
    outputs = [line for line in (ROOT / ".gitignore").read_text().splitlines()
               if line and not line.startswith("#")]
    missing = []
    for doc in DOCS + ("EXPERIMENTS.md",):
        for span in re.findall(r"`([^`\n]+)`", (ROOT / doc).read_text()):
            for token in re.split(r"[\s'\"(),;=:]+", span):
                if _PATH.fullmatch(token) and not any(
                        fnmatch.fnmatch(token.rsplit("/", 1)[-1], pattern)
                        for pattern in outputs) and not any(
                        (root / token).exists() for root in _PATH_ROOTS):
                    missing.append(f"{doc}: {token}")
    assert missing == []


#: The prose may not outgrow these line counts: a change that needs more
#: room in one of them removes as much first (ROADMAP T(3)).
DOC_LINES = {"DESIGN.md": 1419, ".claude/skills/verify/SKILL.md": 212}


def test_docs_do_not_grow():
    grown = {doc: n for doc, limit in DOC_LINES.items()
             if (n := len((ROOT / doc).read_text().splitlines())) > limit}
    assert grown == {}
