"""The traffic audit as a file: which functions does any workload enter?

Runs every non-test workload (the ledger's CLI documents, written with
``--json`` exactly as the ledger writes them, ``repro list``, three
traced experiments, one of them exported with ``--out``, the examples,
the ``benchmarks/e2e`` workloads at ``--smoke`` size and ``walkers_gemm``
and ``bulk_copy`` at full size) under a ``sys.setprofile`` /
``threading.setprofile`` hook (a long kernel body computes, and a large
fresh device backing is prefaulted, on a worker thread), unions the functions
entered, and compares the rest of ``src/repro`` with ``unentered.json``: every ``file::qualname``
no workload enters, with the one-word reason it is kept.  It fails when a function is unentered and unlisted (give it a
workload, a reason, or delete it) or listed and entered or gone (drop the
line).

A def the audit enters can still hold a branch no workload takes, behind
a keyword that no caller turns, and a class can still take an option no
workload sets.  So the hook also records which arguments of entered calls
differ from their defaults.  Every parameter defaulting to ``True`` or
``False`` that no workload passes the other value is a never-turned
fork, and every ``__init__`` parameter with another literal default
(``None``, a number, a string) that no workload passes a different value
is a never-set option: each needs a workload, a reason in the same list
(keyed ``file::qualname(parameter)``), or deletion.  A generator's
arguments are read at each resume, so a parameter it rebinds would read
as passed.

Two more kinds of settable value get the same treatment.  A frozen
dataclass's generated ``__init__`` (code in ``<string>``) is hooked too:
its class is ``type(self)``, and every field with a default (or a
``default_factory``, unset while it holds the factory sentinel) that no
construction sets to another value is listed as ``file::Class(field)``;
``dataclasses.replace`` passes every field, so a carried-over default
still reads as unset.  Mutable dataclasses are stats, records and
results, not options.  And every option string ``analysis/cli.py``
declares must appear in some ``repro`` command of :func:`workloads`,
else it is listed as ``file::subcommand(--flag)``.  A few minutes; CI
job ``audit``, not tier-1 (``test_unentered.py`` is the tier-1 check
that needs no run).

    python tests/identity/traffic_audit.py            # check
    python tests/identity/traffic_audit.py --write    # rewrite the list

``--write`` keeps known reasons and marks new entries ``unclassified``,
which the check rejects until a reason is filled in by hand.  The e2e
traced pass enables ``cProfile``, which replaces the hook while it runs;
the end-to-end pass runs the same bodies, so nothing is lost.
"""

import argparse
import ast
import functools
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import typing as _t

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))

if __package__:    # imported by the tier-1 guard test
    from .test_ledger import CLI_DOCUMENTS
else:              # run as a script
    from test_ledger import CLI_DOCUMENTS  # noqa: E402  (same directory)

LIST_PATH = pathlib.Path(__file__).with_name("unentered.json")
SRC = "src/repro/"

#: safety: guards a fault, a stall or bad outside input; reference: tests
#: compare against it; api: public surface or interface stub with no
#: surviving twin; error-path: runs only when something failed; debug:
#: ``__repr__`` and other inspection aids.
REASONS = ("safety", "reference", "api", "error-path", "debug")

HOOK = '''\
import atexit, json, os, sys, threading

_FORKS = @FORKS@
_params = {}    # code entered -> its (parameter, literal default) pairs (or ())
_args = set()   # (file, first line, parameter) passed a non-default value
_DATACLASS = ("dataclass",)   # _params marker: a generated dataclass __init__
_classes = {}   # class constructed -> its (file::Class, field, default) triples
_fields = set() # (file::Class, field) set to a non-default value

def _turned(value, default):
    if value is default:
        return False
    if default is True or default is False:
        return value is (not default)
    if default is None:
        return True
    try:
        return bool(value != default)
    except Exception:     # an array compared with a number: not a default
        return True

def _defaulted_fields(cls):
    """``(file::Class, field, default)`` of a frozen dataclass under src;
    a ``default_factory`` field's default is the sentinel the generated
    ``__init__`` receives when the caller leaves it out."""
    import dataclasses
    params = getattr(cls, "__dataclass_params__", None)
    if params is None or not params.frozen:
        return ()
    out = []
    for f in dataclasses.fields(cls):
        if f.default is not dataclasses.MISSING:
            default = f.default
        elif f.default_factory is not dataclasses.MISSING:
            default = dataclasses._HAS_DEFAULT_FACTORY
        else:
            continue
        owner = next(k for k in cls.__mro__
                     if f.name in vars(k).get("__annotations__", {}))
        name = getattr(sys.modules.get(owner.__module__), "__file__", "") or ""
        if f.init and "@SRC@" in name:
            out.append((f"{name[name.rfind('@SRC@'):]}::{owner.__qualname__}",
                        f.name, default))
    return tuple(out)

def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        params = _params.get(code)
        if params is None:
            name = code.co_filename
            params = _params[code] = (
                _FORKS.get(f"{name[name.rfind('@SRC@'):]}:{code.co_firstlineno}", ())
                if "@SRC@" in name
                else _DATACLASS if name == "<string>" and code.co_name == "__init__"
                else ())
        if params is _DATACLASS:
            local = frame.f_locals
            cls = type(local.get("self"))
            fields = _classes.get(cls)
            if fields is None:
                fields = _classes[cls] = _defaulted_fields(cls)
            for owner, field, default in fields:
                if _turned(local.get(field, default), default):
                    _fields.add((owner, field))
        elif params:
            local = frame.f_locals
            for param, default in params:
                if _turned(local.get(param, default), default):
                    _args.add((code.co_filename, code.co_firstlineno, param))

def _dump():
    sys.setprofile(None)
    seen = {(code.co_filename, code.co_firstlineno) for code in list(_params)
            if "@SRC@" in code.co_filename}
    with open(os.path.join(os.environ["AUDIT_OUT"], f"{os.getpid()}.json"), "w") as fh:
        json.dump({"seen": sorted(seen), "args": sorted(_args),
                   "fields": sorted(_fields)}, fh)

sys.setprofile(_hook)
threading.setprofile(_hook)   # kernel bodies and prefaults on worker threads
atexit.register(_dump)
'''.replace("@SRC@", SRC)


def workloads(tmp: pathlib.Path) -> list[list[str]]:
    """Every command the audit runs; the files they write go under ``tmp``."""
    return [
        *(["-m", "repro", *args, "--json", str(tmp / f"{name}.json")]
          for name, args in CLI_DOCUMENTS.items()),
        ["-m", "repro", "list"],
        ["-m", "repro", "trace", "fig05", "--quick", "--check-identity",
         "--timeline", "--out", str(tmp / "fig05.trace.json")],
        *(["-m", "repro", "trace", exp, "--quick", "--check-identity",
           "--timeline"] for exp in ("fig09", "ext_async")),
        *([str(path.relative_to(REPO_ROOT))]
          for path in sorted((REPO_ROOT / "examples").glob("*.py"))),
        ["benchmarks/e2e/run.py", "--smoke", "--seed", "0", "--seconds", "0"],
        # Full size, with two or more cores: walkers_gemm's dgemm bodies
        # are long enough to compute on worker threads, and bulk_copy's
        # 64 MiB backings large enough to be prefaulted on one.
        *(["benchmarks/e2e/run.py", "--workload", name, "--seed", "0",
           "--seconds", "0", "--trace", "0"]
          for name in ("walkers_gemm", "bulk_copy")),
    ]


def definitions() -> dict[tuple[str, int], str]:
    """``(file, first line) -> file::qualname`` of every def under src/repro.

    The first line is the first decorator's, which is what a code object
    reports; a qualname defined twice in one file (a property and its
    setter) gets ``#2`` on the later one.
    """
    return {key: name for key, (name, _) in _defs().items()}


def forks() -> dict[str, tuple[tuple[str, int], str, _t.Any]]:
    """``file::qualname(parameter)`` -> ``((file, first line), parameter,
    default)`` for every parameter under src/repro whose default is
    ``True`` or ``False``, and every ``__init__`` parameter whose default
    is another literal: ``None``, a number or a string."""
    out = {}
    for key, (name, node) in _defs().items():
        args = node.args
        pairs = [*zip(args.posonlyargs[::-1] + args.args[::-1],
                      args.defaults[::-1]),
                 *zip(args.kwonlyargs, args.kw_defaults)]
        for arg, default in pairs:
            try:
                value = ast.literal_eval(default) if default else ...
            except ValueError:
                continue
            if (isinstance(value, bool)
                    or (node.name == "__init__"
                        and (value is None
                             or isinstance(value, (int, float, str))))):
                out[f"{name}({arg.arg})"] = (key, arg.arg, value)
    return out


def fields() -> dict[str, tuple[str, str]]:
    """``file::Class(field)`` -> ``(file::Class, field)`` for every field
    of a frozen dataclass under src/repro that has a default (or a
    ``default_factory``) and is an ``__init__`` parameter.  Mutable
    dataclasses are stats, records and results, not options."""
    out = {}
    for path in sorted((REPO_ROOT / SRC).rglob("*.py")):
        rel = path.relative_to(REPO_ROOT).as_posix()

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    qual = prefix + child.name
                    if any(_is_frozen_dataclass(d)
                           for d in child.decorator_list):
                        for stmt in child.body:
                            if _defaulted_field(stmt):
                                name = stmt.target.id
                                out[f"{rel}::{qual}({name})"] = (
                                    f"{rel}::{qual}", name)
                    visit(child, qual + ".")
                elif not isinstance(child, (ast.FunctionDef,
                                            ast.AsyncFunctionDef)):
                    visit(child, prefix)

        visit(ast.parse(path.read_text()), "")
    return out


def _is_frozen_dataclass(decorator: ast.AST) -> bool:
    return (isinstance(decorator, ast.Call)
            and ast.unparse(decorator.func) in ("dataclass",
                                                "dataclasses.dataclass")
            and any(kw.arg == "frozen" and ast.literal_eval(kw.value) is True
                    for kw in decorator.keywords))


def _defaulted_field(stmt: ast.AST) -> bool:
    if not (isinstance(stmt, ast.AnnAssign) and stmt.value is not None
            and isinstance(stmt.target, ast.Name)
            and "ClassVar" not in ast.unparse(stmt.annotation)):
        return False
    value = stmt.value
    if (isinstance(value, ast.Call)
            and ast.unparse(value.func) in ("field", "dataclasses.field")):
        keywords = {kw.arg: kw.value for kw in value.keywords}
        init = keywords.get("init")
        return (("default" in keywords or "default_factory" in keywords)
                and (init is None or ast.literal_eval(init) is not False))
    return True


CLI = SRC + "analysis/cli.py"


def cli_options() -> dict[str, tuple[str, str]]:
    """``file::subcommand(--flag)`` -> ``(subcommand, --flag)`` for every
    option string the CLI's subcommand parsers declare."""
    tree = ast.parse((REPO_ROOT / CLI).read_text())
    parsers: dict[str, str] = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr == "add_parser"):
            parsers[node.targets[0].id] = node.value.args[0].value
    out = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in parsers):
            sub = parsers[node.func.value.id]
            for arg in node.args:
                if isinstance(arg, ast.Constant) and arg.value.startswith("-"):
                    out[f"{CLI}::{sub}({arg.value})"] = (sub, arg.value)
    return out


def unset_options(cmds: list[list[str]]) -> list[str]:
    """The :func:`cli_options` no command in ``cmds`` passes."""
    passed = {(cmd[2], arg.split("=", 1)[0]) for cmd in cmds
              if cmd[:2] == ["-m", "repro"] and len(cmd) > 2
              for arg in cmd[3:] if arg.startswith("-")}
    return sorted(name for name, option in cli_options().items()
                  if option not in passed)


def rule(name: str) -> str:
    """Which rule an ``unentered.json`` key belongs to: ``defs``,
    ``parameters``, ``fields`` or ``CLI options``."""
    if not name.endswith(")"):
        return "defs"
    if name.startswith(CLI + "::") and "(-" in name:
        return "CLI options"
    owner = name[:name.index("(")]
    return ("parameters" if owner in {qual for qual, _ in _defs().values()}
            else "fields")


@functools.cache
def _defs() -> dict[tuple[str, int], tuple[str, ast.AST]]:
    """``(file, first line) -> (file::qualname, node)``, as
    :func:`definitions` names them."""
    out: dict[tuple[str, int], tuple[str, ast.AST]] = {}
    for path in sorted((REPO_ROOT / SRC).rglob("*.py")):
        rel = path.relative_to(REPO_ROOT).as_posix()
        taken: dict[str, int] = {}

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if not isinstance(child, (ast.FunctionDef, ast.ClassDef,
                                          ast.AsyncFunctionDef)):
                    visit(child, prefix)
                    continue
                qual = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    taken[qual] = taken.get(qual, 0) + 1
                    name = qual if taken[qual] == 1 else f"{qual}#{taken[qual]}"
                    first = min([child.lineno,
                                 *(d.lineno for d in child.decorator_list)])
                    out[rel, first] = (f"{rel}::{name}", child)
                visit(child, qual + ".")

        visit(ast.parse(path.read_text()), "")
    return out


def entered() -> tuple[set[tuple[str, int]], set[tuple[str, int, str]],
                       set[tuple[str, str]]]:
    """Run every workload under the hook.

    Returns the ``(file, first line)`` of every def entered, the
    ``(file, first line, parameter)`` of every :func:`forks` parameter
    some call passed a value other than its default, and the
    ``(file::Class, field)`` of every :func:`fields` field some
    construction set to a value other than its default (a
    ``dataclasses.replace`` passes every field, so a carried-over
    default still reads as unset).
    """
    seen: set[tuple[str, int]] = set()
    passed: set[tuple[str, int, str]] = set()
    set_fields: set[tuple[str, str]] = set()
    hook_forks: dict[str, list[tuple[str, _t.Any]]] = {}
    for (file, line), param, default in forks().values():
        hook_forks.setdefault(f"{file}:{line}", []).append((param, default))
    with tempfile.TemporaryDirectory() as tmp:
        hook_dir, out_dir, docs_dir = (pathlib.Path(tmp, sub)
                                       for sub in ("hook", "out", "docs"))
        for sub in (hook_dir, out_dir, docs_dir):
            sub.mkdir()
        (hook_dir / "sitecustomize.py").write_text(
            HOOK.replace("@FORKS@", repr(hook_forks)))
        env = {**os.environ, "AUDIT_OUT": str(out_dir), "PYTHONHASHSEED": "0",
               "PYTHONPATH": os.pathsep.join([str(hook_dir),
                                              str(REPO_ROOT / "src")])}
        for cmd in workloads(docs_dir):
            print("audit:", " ".join(cmd), flush=True)
            proc = subprocess.run([sys.executable, *cmd], cwd=REPO_ROOT,
                                  env=env, text=True, capture_output=True,
                                  timeout=900)
            if proc.returncode:
                raise SystemExit(f"audit: {' '.join(cmd)} failed\n"
                                 + proc.stdout + proc.stderr)
        for dump in out_dir.glob("*.json"):
            doc = json.loads(dump.read_text())
            for filename, line in doc["seen"]:
                filename = filename.replace(os.sep, "/")
                seen.add((filename[filename.rindex(SRC):], line))
            for filename, line, param in doc["args"]:
                filename = filename.replace(os.sep, "/")
                passed.add((filename[filename.rindex(SRC):], line, param))
            set_fields.update(tuple(pair) for pair in doc["fields"])
    return seen, passed, set_fields


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--write", action="store_true",
                    help="rewrite unentered.json (known reasons are kept)")
    args = ap.parse_args()
    defs = definitions()
    seen, passed, set_fields = entered()
    unentered = sorted(name for key, name in defs.items() if key not in seen)
    entered_forks = {name: fork for name, fork in forks().items()
                     if fork[0] in seen}
    unturned = sorted(name for name, (key, param, _) in entered_forks.items()
                      if (*key, param) not in passed)
    settable = fields()
    unset = sorted(name for name, pair in settable.items()
                   if pair not in set_fields)
    with tempfile.TemporaryDirectory() as tmp:
        unpassed = unset_options(workloads(pathlib.Path(tmp)))
    listed = json.loads(LIST_PATH.read_text()) if LIST_PATH.exists() else {}
    print(f"audit: {len(defs) - len(unentered)} of {len(defs)} function "
          f"definitions under {SRC} entered, {len(unentered)} not; "
          f"{len(entered_forks) - len(unturned)} of {len(entered_forks)} "
          f"bool and constructor-literal parameters of entered defs "
          f"turned, {len(unturned)} not; "
          f"{len(settable) - len(unset)} of {len(settable)} defaulted "
          f"frozen-dataclass fields set, {len(unset)} not; "
          f"{len(cli_options()) - len(unpassed)} of {len(cli_options())} "
          f"CLI options passed, {len(unpassed)} not")
    print("audit: unentered.json lists " + ", ".join(
        f"{sum(1 for name in listed if rule(name) == which)} {which}"
        for which in ("defs", "parameters", "fields", "CLI options")))
    unentered = sorted(unentered + unturned + unset + unpassed)
    if args.write:
        listed = {name: listed.get(name, "unclassified") for name in unentered}
        LIST_PATH.write_text(json.dumps(listed, indent=0) + "\n")
    problems = [
        *(f"unentered or unturned, and unlisted: {name}"
          for name in unentered if name not in listed),
        *(f"listed but entered, turned or gone: {name}"
          for name in listed if name not in unentered),
        *(f"reason {reason!r} is not one of {REASONS}: {name}"
          for name, reason in listed.items() if reason not in REASONS),
    ]
    print("\n".join(problems) or "audit: unentered.json matches")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
