"""Guard: every function, method, property, module-level constant, instance
attribute and dataclass field of the package has a reader.

A name counts as read when src/bdmadapt or benchmarks/ load it as a Name or
an Attribute or pass it as a string literal to getattr, or when the
benchmark tracer looks it up by string (the attribute column of its PATCHES
table).  Assignments and imports do not count, and neither do the tests:
code that only the tests call belongs in the tests.  Names without a reader
must be on ALLOWED, with the reason they stay.  Reads are matched by plain
name, so a member counts as read when a member of the same name on another
class is read: MixedSolution.n_dofs went unnoticed behind the reads of
BdmSpace.n_dofs and DgSpace.n_dofs.

Two more guards keep artifacts.write_json the one JSON writer: no
json.dump or json.dumps call in the package, and no orjson import on the
way to `import bdmadapt`.  A last one keeps basis.quad_rule the one place
that takes a quadrature exactness: every other rule follows from p and its
job (fields.ref_tables).

The option guard asks the same of parameters: every defaulted parameter of
a module-level function or method must be passed, by keyword or by
position, by some call in src/bdmadapt or benchmarks/.  An option that no
caller sets has one value and belongs in the code as a constant; the
exceptions are on ALLOWED_OPTIONS.
"""

import ast
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bdmadapt"
BENCHMARKS = ROOT / "benchmarks"

# qualified name (module.[Class.]name) -> why it stays without a caller
ALLOWED = {
    "cli.main": "entry point of the bdmadapt console script",
    "mesh.load_mesh": "reader of the mesh files written by run --dump-meshes",
}

# qualified parameter name -> why no caller in the package sets it
ALLOWED_OPTIONS = {
    "cli.main.argv": "the tests drive the command line through it; the "
                     "console script reads sys.argv",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions():
    """Qualified name -> plain name of every module-level function and every
    method or property of a module-level class in the package."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out[f"{path.stem}.{node.name}"] = node.name
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        out[f"{path.stem}.{node.name}.{sub.name}"] = sub.name
    return out


def _constants():
    """Qualified name -> plain name of every module-level assigned name."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        out[f"{path.stem}.{sub.id}"] = sub.id
    return out


def _attributes():
    """Qualified name -> plain name of every field declared in the body of a
    module-level class (the dataclass fields) and every attribute its code
    stores on self."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef):
                continue
            for sub in node.body:
                if (isinstance(sub, ast.AnnAssign)
                        and isinstance(sub.target, ast.Name)):
                    out[f"{path.stem}.{node.name}.{sub.target.id}"] = \
                        sub.target.id
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Attribute)
                        and isinstance(sub.ctx, ast.Store)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"):
                    out[f"{path.stem}.{node.name}.{sub.attr}"] = sub.attr
    return out


def _tracer_lookups():
    tree = ast.parse((BENCHMARKS / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "PATCHES"
                for t in node.targets):
            return {entry.elts[2].value for entry in node.value.elts}
    raise AssertionError("benchmarks/tracing.py has no PATCHES table")


def _names_read():
    used = set(_tracer_lookups())
    for path in sorted(PACKAGE.glob("*.py")) + sorted(BENCHMARKS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                used.add(node.attr)
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "getattr" and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant)):
                used.add(node.args[1].value)
    return used


def _unread(defined):
    used = _names_read()
    return sorted(q for q, name in defined.items()
                  if name not in used and not _is_dunder(name)
                  and q not in ALLOWED)


def test_every_package_function_has_a_caller():
    uncalled = _unread(_definitions())
    assert not uncalled, (
        f"no code in src/bdmadapt or benchmarks/ calls {uncalled}: delete "
        "them, move them into tests/ as oracles, or add them to ALLOWED "
        "with a reason")
    stale = sorted(set(ALLOWED) - set(_definitions()) - set(_constants())
                   - set(_attributes()))
    assert not stale, f"ALLOWED names that no longer exist: {stale}"


def test_every_module_constant_is_read():
    unread = _unread(_constants())
    assert not unread, (
        f"no code in src/bdmadapt or benchmarks/ reads {unread}: delete "
        "them or add them to ALLOWED with a reason")


def test_every_attribute_is_read():
    unread = _unread(_attributes())
    assert not unread, (
        f"no code in src/bdmadapt or benchmarks/ reads {unread}: delete "
        "them or add them to ALLOWED with a reason")


def test_package_writes_json_only_through_write_json():
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module == "json"
                    and {a.name for a in node.names} & {"dump", "dumps"}):
                calls.append(f"{path.name}:{node.lineno}")
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("dump", "dumps")
                  and isinstance(node.func.value, ast.Name)
                  and node.func.value.id == "json"):
                calls.append(f"{path.name}:{node.lineno}")
    assert not calls, (
        f"json.dump/json.dumps at {calls}: write JSON artifacts through "
        "artifacts.write_json")


def test_import_leaves_orjson_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    code = "import sys, bdmadapt; print('orjson' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"


def test_only_quad_rule_takes_an_exactness():
    takers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                names = {a.arg for a in args.posonlyargs + args.args
                         + args.kwonlyargs}
                if "exactness" in names:
                    takers.append(f"{path.stem}.{node.name}")
    assert takers == ["basis.quad_rule"], (
        f"{takers} take an exactness: derive the rule from p and its job "
        "with fields.ref_tables(p, kind)")


def _defaulted(func, qual, callee, skip):
    """qual.param -> (callee, position or None, param) of each defaulted
    parameter of func, after its first `skip` positional parameters."""
    args = func.args
    positional = (args.posonlyargs + args.args)[skip:]
    out = {}
    for i, a in enumerate(positional):
        if i >= len(positional) - len(args.defaults):
            out[f"{qual}.{a.arg}"] = (callee, i, a.arg)
    for a, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            out[f"{qual}.{a.arg}"] = (callee, None, a.arg)
    return out


def _options():
    """Every defaulted parameter of a module-level function or of a method
    of a module-level class; a constructor is called by its class name, and
    a method's first parameter (self or cls) is never passed."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.update(_defaulted(node, f"{path.stem}.{node.name}",
                                      node.name, 0))
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if not isinstance(sub, (ast.FunctionDef,
                                            ast.AsyncFunctionDef)):
                        continue
                    static = any(isinstance(d, ast.Name)
                                 and d.id == "staticmethod"
                                 for d in sub.decorator_list)
                    callee = node.name if sub.name == "__init__" else sub.name
                    out.update(_defaulted(
                        sub, f"{path.stem}.{node.name}.{sub.name}", callee,
                        0 if static else 1))
    return out


def _sets(call, position, name):
    """Whether call may pass the parameter: by keyword (or **kwargs), by
    position (or *args)."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and position < len(call.args)


def test_every_option_is_set_by_a_caller():
    calls = {}
    for path in sorted(PACKAGE.glob("*.py")) + sorted(BENCHMARKS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else \
                    getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    options = _options()
    unset = sorted(
        q for q, (callee, position, name) in options.items()
        if q not in ALLOWED_OPTIONS and not any(
            _sets(call, position, name) for call in calls.get(callee, ())))
    assert not unset, (
        f"no call in src/bdmadapt or benchmarks/ sets {unset}: make each a "
        "constant, or add it to ALLOWED_OPTIONS with a reason")
    stale = sorted(set(ALLOWED_OPTIONS) - set(options))
    assert not stale, f"ALLOWED_OPTIONS names that no longer exist: {stale}"
