"""Guard: every function, method, property, module-level constant, instance
attribute and dataclass field of the package has a reader.

A name counts as read when src/bdmadapt or benchmarks/ load it as a Name or
an Attribute or pass it as a string literal to getattr, or when the
benchmark tracer looks it up by string (the attribute column of its PATCHES
table, on the class of its class column).  Assignments and imports do not count, and neither do the tests:
code that only the tests call belongs in the tests.  Names without a reader
must be on ALLOWED, with the reason they stay.

A read `x.member` whose receiver's class is known counts only for that
class's member.  The class is known for self in a method, for a parameter,
dataclass field or property annotated with a package class, for a call of
a package class or of a function annotated to return one, and for a local
name that every assignment binds to the same such class.  Other reads are
matched by plain name, so they count for every member of that name; when
all reads were, MixedSolution.n_dofs went unnoticed behind the reads of
BdmSpace.n_dofs.

Two more guards keep artifacts.write_json the one JSON writer: no
json.dump or json.dumps call in the package, and no orjson import on the
way to `import bdmadapt`.  One more keeps basis.quad_rule the one place
that takes a quadrature exactness: every other rule follows from p and its
job (fields.ref_tables).  A last one keeps fields.mapped_points the one map
of reference points onto elements: outside mesh and fields no module reads
TriMesh.tri_coords.

No module-level function of the package may be a pass-through wrapper:
one whose body, docstring aside, is a single return of (nested) calls of
package functions or classes that pass only its own parameters, unchanged.
Such a function restates a composition that its callers can write; a
cached factory (lru_cache) is exempt, since the cache is its job.

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
    """(class or None, attribute) of every entry of the tracer's PATCHES."""
    tree = ast.parse((BENCHMARKS / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "PATCHES"
                for t in node.targets):
            return {(entry.elts[1].value, entry.elts[2].value)
                    for entry in node.value.elts}
    raise AssertionError("benchmarks/tracing.py has no PATCHES table")


def _class_of(annotation, classes):
    """The one package class an annotation names (X, "X | None", ...)."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value,
                                                           str):
        annotation = ast.parse(annotation.value, mode="eval").body
    names = {n.id for n in ast.walk(annotation) if isinstance(n, ast.Name)} \
        if annotation is not None else set()
    names &= classes
    return names.pop() if len(names) == 1 else None


def _package_types():
    """(classes, returns, members, modules): the package's class names,
    the class each module-level function returns, per class the class of
    each annotated dataclass field and of what each method or property
    returns, and the names under which code reaches the package's modules."""
    trees = [ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")]
    classes = {node.name for tree in trees for node in tree.body
               if isinstance(node, ast.ClassDef)}
    returns, members = {}, {name: {} for name in classes}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                kind = _class_of(node.returns, classes)
                returns[node.name] = (kind if returns.get(node.name, kind)
                                      == kind else None)
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        members[node.name][sub.name] = _class_of(sub.returns,
                                                                 classes)
                    elif (isinstance(sub, ast.AnnAssign)
                          and isinstance(sub.target, ast.Name)):
                        members[node.name][sub.target.id] = _class_of(
                            sub.annotation, classes)
    modules = {path.stem for path in PACKAGE.glob("*.py")} | {"bdmadapt"}
    return classes, returns, members, modules


def _expr_class(node, env, types):
    """The package class of an expression's value, where it is known."""
    classes, returns, members, modules = types
    if isinstance(node, ast.Name):
        return env.get(node.id)
    if isinstance(node, ast.Attribute):
        owner = _expr_class(node.value, env, types)
        return members[owner].get(node.attr) if owner else None
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute):
            owner = _expr_class(func.value, env, types)
            if owner:
                return members[owner].get(func.attr)
            if not (isinstance(func.value, ast.Name)
                    and func.value.id in modules):
                return None
            name = func.attr
        elif isinstance(func, ast.Name) and func.id not in env:
            name = func.id
        else:
            return None
        return name if name in classes else returns.get(name)
    return None


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(scope):
    """The nodes of a scope, nested scopes included but not their bodies."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _bound_pairs(target, value):
    """(Name node, value expression or None) of an assignment."""
    if isinstance(target, ast.Name):
        return [(target, value)]
    if (isinstance(target, (ast.Tuple, ast.List))
            and isinstance(value, (ast.Tuple, ast.List))
            and len(target.elts) == len(value.elts)):
        return [pair for t, v in zip(target.elts, value.elts)
                for pair in _bound_pairs(t, v)]
    return [(n, None) for n in ast.walk(target) if isinstance(n, ast.Name)]


def _scope_env(func, outer, owner, types):
    """Local name -> package class in a function or lambda: self in a
    method of the class owner, annotated parameters, and the names that
    every binding gives the same known class (closures see the enclosing
    names that they do not bind)."""
    args = func.args
    params = args.posonlyargs + args.args + args.kwonlyargs + [
        a for a in (args.vararg, args.kwarg) if a is not None]
    bindings = {a.arg: [("class", _class_of(a.annotation, types[0]))]
                for a in params}
    if owner in types[0] and params and params[0].arg == "self":
        bindings["self"] = [("class", owner)]
    values = {}
    for node in _own_nodes(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                values.update((id(n), v) for n, v in _bound_pairs(target,
                                                                 node.value))
    for node in _own_nodes(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            value = values.get(id(node))
            bindings.setdefault(node.id, []).append(
                ("class", None) if value is None else ("expr", value))
    env = {k: v for k, v in outer.items() if k not in bindings}
    # a name's class may follow from another's: one pass per name suffices
    for _ in range(len(bindings)):
        for name, kinds in bindings.items():
            found = {v if how == "class" else _expr_class(v, env, types)
                     for how, v in kinds}
            if len(found) == 1 and None not in found:
                env[name] = found.pop()
    return env


def _scan(scope, env, owner, types, plain, typed):
    """Add the reads of a scope to plain and typed; owner is the class
    whose body holds the scope."""
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        env = _scope_env(scope, env, owner, types)
    inner = scope.name if isinstance(scope, ast.ClassDef) else None
    for node in _own_nodes(scope):
        if isinstance(node, _SCOPES):
            _scan(node, env, inner, types, plain, typed)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            plain.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            kind = _expr_class(node.value, env, types)
            if kind is None:
                plain.add(node.attr)
            else:
                typed.add((kind, node.attr))
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)):
            plain.add(node.args[1].value)


def _reads():
    """(plain, typed): the names read where the receiver's class is not
    known, and the (class, member) pairs read where it is."""
    types = _package_types()
    plain, typed = set(), set()
    for cls, attr in _tracer_lookups():
        if cls is None:
            plain.add(attr)
        else:
            typed.add((cls, attr))
    for path in sorted(PACKAGE.glob("*.py")) + sorted(BENCHMARKS.glob("*.py")):
        _scan(ast.parse(path.read_text()), {}, None, types, plain, typed)
    return plain, typed


def _unread(defined):
    plain, typed = _reads()
    return sorted(q for q, name in defined.items()
                  if name not in plain
                  and tuple(q.split(".")[1:]) not in typed
                  and not _is_dunder(name) and q not in ALLOWED)


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


def test_only_mesh_and_fields_read_tri_coords():
    readers = [f"{path.name}:{node.lineno}"
               for path in sorted(PACKAGE.glob("*.py"))
               if path.stem not in ("mesh", "fields")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute)
               and node.attr == "tri_coords"]
    assert not readers, (
        f"TriMesh.tri_coords read at {readers}: map reference points with "
        "fields.mapped_points")


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


def _forwards(node, params, callables, modules):
    """Whether an expression is one of params, or a call of a package
    function or class whose arguments all forward params unchanged."""
    if isinstance(node, ast.Starred):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id in params
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
            and func.value.id in modules:
        name = func.attr
    elif isinstance(func, ast.Name):
        name = func.id
    else:
        return False
    return name in callables and all(
        _forwards(a, params, callables, modules)
        for a in node.args + [k.value for k in node.keywords])


def _pass_through_wrappers():
    """module.name of every module-level function of the package whose
    body, docstring aside, is one return of package calls that forward only
    its own parameters; lru_cache factories excepted."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    callables = {node.name for tree in trees.values() for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef))}
    modules = set(trees) | {"bdmadapt"}
    found = []
    for stem, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any("lru_cache" in ast.unparse(d) for d in node.decorator_list):
                continue
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                body = body[1:]
            args = node.args
            params = {a.arg for a in args.posonlyargs + args.args
                      + args.kwonlyargs + [args.vararg, args.kwarg] if a}
            if (len(body) == 1 and isinstance(body[0], ast.Return)
                    and isinstance(body[0].value, ast.Call)
                    and _forwards(body[0].value, params, callables, modules)):
                found.append(f"{stem}.{node.name}")
    return found


def test_no_function_only_forwards_its_parameters():
    wrappers = _pass_through_wrappers()
    assert not wrappers, (
        f"{wrappers} only pass their parameters on to package calls: let "
        "the callers make those calls")
