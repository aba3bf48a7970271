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
a keyword that no caller turns.  So the hook also records the bool
arguments of entered calls, and every parameter defaulting to ``True`` or
``False`` that no workload passes the other value is a never-turned
fork: it needs a workload, a reason in the same list (keyed
``file::qualname(parameter)``), or deletion.  A generator's arguments
are read at each resume, so a bool parameter it rebinds would read as
passed.  A few minutes; CI job ``audit``, not tier-1
(``test_unentered.py`` is the tier-1 check that needs no run).

    python tests/identity/traffic_audit.py            # check
    python tests/identity/traffic_audit.py --write    # rewrite the list

``--write`` keeps known reasons and marks new entries ``unclassified``,
which the check rejects until a reason is filled in by hand.  The e2e
traced pass enables ``cProfile``, which replaces the hook while it runs;
the end-to-end pass runs the same bodies, so nothing is lost.
"""

import argparse
import ast
import json
import os
import pathlib
import subprocess
import sys
import tempfile

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
_params = {}    # code entered -> its bool-default parameters (or ())
_args = set()   # (file, first line, parameter, bool passed)

def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        params = _params.get(code)
        if params is None:
            name = code.co_filename
            params = _params[code] = (
                _FORKS.get(f"{name[name.rfind('@SRC@'):]}:{code.co_firstlineno}", ())
                if "@SRC@" in name else ())
        if params:
            local = frame.f_locals
            for param in params:
                value = local.get(param)
                if value is True or value is False:
                    _args.add((code.co_filename, code.co_firstlineno, param, value))

def _dump():
    sys.setprofile(None)
    seen = {(code.co_filename, code.co_firstlineno) for code in list(_params)
            if "@SRC@" in code.co_filename}
    with open(os.path.join(os.environ["AUDIT_OUT"], f"{os.getpid()}.json"), "w") as fh:
        json.dump({"seen": sorted(seen), "args": sorted(_args)}, fh)

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


def forks() -> dict[str, tuple[tuple[str, int], str, bool]]:
    """``file::qualname(parameter)`` -> ``((file, first line), parameter,
    default)`` for every parameter under src/repro whose default is
    ``True`` or ``False``."""
    out = {}
    for key, (name, node) in _defs().items():
        args = node.args
        pairs = [*zip(args.posonlyargs[::-1] + args.args[::-1],
                      args.defaults[::-1]),
                 *zip(args.kwonlyargs, args.kw_defaults)]
        for arg, default in pairs:
            if (isinstance(default, ast.Constant)
                    and isinstance(default.value, bool)):
                out[f"{name}({arg.arg})"] = (key, arg.arg, default.value)
    return out


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


def entered() -> tuple[set[tuple[str, int]], set[tuple[str, int, str, bool]]]:
    """Run every workload under the hook.

    Returns the ``(file, first line)`` of every def entered and the
    ``(file, first line, parameter, value)`` of every bool argument a
    bool-default parameter was passed.
    """
    seen: set[tuple[str, int]] = set()
    passed: set[tuple[str, int, str, bool]] = set()
    hook_forks: dict[str, list[str]] = {}
    for (file, line), param, _ in forks().values():
        hook_forks.setdefault(f"{file}:{line}", []).append(param)
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
            for filename, line, param, value in doc["args"]:
                filename = filename.replace(os.sep, "/")
                passed.add((filename[filename.rindex(SRC):], line, param,
                            value))
    return seen, passed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--write", action="store_true",
                    help="rewrite unentered.json (known reasons are kept)")
    args = ap.parse_args()
    defs = definitions()
    seen, passed = entered()
    unentered = sorted(name for key, name in defs.items() if key not in seen)
    entered_forks = {name: fork for name, fork in forks().items()
                     if fork[0] in seen}
    unturned = sorted(name for name, (key, param, default)
                      in entered_forks.items()
                      if (*key, param, not default) not in passed)
    listed = json.loads(LIST_PATH.read_text()) if LIST_PATH.exists() else {}
    print(f"audit: {len(defs) - len(unentered)} of {len(defs)} function "
          f"definitions under {SRC} entered, {len(unentered)} not; "
          f"{len(entered_forks) - len(unturned)} of {len(entered_forks)} "
          f"bool parameters of entered defs turned, {len(unturned)} not")
    unentered = sorted(unentered + unturned)
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
