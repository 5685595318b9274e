import ast
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import fcs_spectral

PACKAGE = Path(fcs_spectral.__file__).parent


def test_package_import_loads_no_numpy():
    # the CLI sets OpenBLAS's idle timeout only if numpy is not loaded before
    # it, and `python -m fcs_spectral.cli` imports the package first
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, fcs_spectral; print('numpy' in sys.modules)"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_lazy_exports_resolve():
    from fcs_spectral import aklt, trace_distance
    from fcs_spectral.analysis import trace_distance as defined

    assert trace_distance is defined and aklt is fcs_spectral.fcs.aklt
    assert set(fcs_spectral._EXPORTS) <= set(dir(fcs_spectral))
    assert fcs_spectral.__all__ == list(fcs_spectral._EXPORTS)
    for name, module in fcs_spectral._EXPORTS.items():
        assert getattr(fcs_spectral, name) is getattr(getattr(fcs_spectral, module), name)
    with pytest.raises(AttributeError, match="no_such_name"):
        fcs_spectral.no_such_name
    with pytest.raises(ImportError):
        from fcs_spectral import no_such_name  # noqa: F401


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of each public top-level function and class of
    a module and of each public method or property of those classes."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
            yield stmt.name, stmt
            if isinstance(stmt, ast.ClassDef):
                for sub in stmt.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{stmt.name}.{sub.name}", sub


# attributes of every array: a method of one of these names would pass for
# used wherever any array's attribute of that name is read
_ARRAY_ATTRIBUTES = frozenset(dir(np.ndarray))


def unused_public_names(trees: dict[str, ast.Module], exported: set[str]) -> list[str]:
    """``module.qualified name`` of each public definition of the parsed
    modules (see ``_public_definitions``) that is neither exported nor used.

    A name is used where it is read as a name or an attribute, outside its
    own definition.  A method or property is matched by its name alone, so
    any attribute of that name counts, unless the name is also an attribute
    of ``numpy.ndarray``: then only ``self.<name>`` in its own class or
    ``<Class>.<name>`` counts.
    """
    uses: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append(node)

    def on(node, owner: str) -> bool:
        return isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == owner

    unused = []
    for module, tree in sorted(trees.items()):
        classes = {stmt.name: stmt for stmt in tree.body if isinstance(stmt, ast.ClassDef)}
        for qual, definition in _public_definitions(tree):
            if qual in exported:
                continue
            own = {id(node) for node in ast.walk(definition)}
            owner, _, name = qual.rpartition(".")
            found = uses.get(name, [])
            if owner and name in _ARRAY_ATTRIBUTES:
                in_class = {id(node) for node in ast.walk(classes[owner])}
                found = [node for node in found if on(node, owner)
                         or on(node, "self") and id(node) in in_class]
            if all(id(node) in own for node in found):
                unused.append(f"{module}.{qual}")
    return unused


def test_every_public_name_is_used_or_exported():
    # the package's export table counts as a use
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    del trees["__init__"]
    unused = unused_public_names(trees, set(fcs_spectral._EXPORTS))
    assert not unused, f"no package path or __init__ export uses {unused}"


def test_a_method_named_like_an_array_attribute_needs_its_class():
    # a.copy() could be any array's copy; self.size() and OmegaData.sum
    # name their class
    tree = ast.parse(textwrap.dedent("""
        class OmegaData:
            def copy(self):
                return self

            def size(self):
                return 1

            def sum(self):
                return self.size()

        def _use(a):
            return OmegaData(), a.copy(), OmegaData.sum
    """))
    assert unused_public_names({"synthetic": tree}, set()) == ["synthetic.OmegaData.copy"]
    assert unused_public_names({"synthetic": tree}, {"OmegaData.copy"}) == []


def _defaulted_parameters(tree: ast.AST, cls: str | None = None):
    """(class or None, function name, parameter name, position, bound) of
    each defaulted parameter of each function and method, nested ones
    included.  The position counts the arguments a call through an instance
    passes, so a method's ``self`` or a classmethod's ``cls`` is not
    counted; a keyword-only parameter has position None.  ``bound`` is true
    for a method that takes ``self``: a call through its bare class passes
    the instance as the first argument."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.FunctionDef):
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            kinds = {d.id for d in node.decorator_list if isinstance(d, ast.Name)}
            skip = 1 if cls and "staticmethod" not in kinds else 0
            bound = bool(cls) and not kinds & {"classmethod", "staticmethod"}
            for k in range(first, len(positional)):
                yield cls, node.name, positional[k].arg, k - skip, bound
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield cls, node.name, arg.arg, None, bound
        yield from _defaulted_parameters(
            node, node.name if isinstance(node, ast.ClassDef) else None)


# receiver of a call through an attribute that names no class
_ANY = object()


def _calls(tree: ast.AST, classes: set[str], cls: str | None = None):
    """(receiver, callee name, call, through the class) of each call in a
    parsed module.  The receiver is None for a call of a plain name, the
    class for a call through ``self.<m>`` or ``cls.<m>`` in that class,
    through ``<Class>.<m>`` or through ``<Class>(...).<m>``, a class being
    one of ``classes`` (plain or module-qualified), and ``_ANY`` for any
    other receiver.  The last field is true only for ``<Class>.<m>``."""
    def class_named(node) -> str | None:
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        return name if name in classes else None

    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                yield None, func.id, node, False
            elif isinstance(func, ast.Attribute):
                receiver = func.value
                if isinstance(receiver, ast.Name) and receiver.id in ("self", "cls") and cls:
                    yield cls, func.attr, node, False
                elif isinstance(receiver, ast.Call):
                    yield class_named(receiver.func) or _ANY, func.attr, node, False
                else:
                    owner = class_named(receiver)
                    yield owner or _ANY, func.attr, node, owner is not None
        yield from _calls(node, classes, node.name if isinstance(node, ast.ClassDef) else cls)


def unset_defaulted_parameters(package: dict[str, ast.Module],
                               others: list[ast.Module]) -> list[str]:
    """``module.[class.]function(parameter)`` of each defaulted parameter of
    the parsed package modules that no call in them or in ``others`` passes:
    by keyword, by position or through a *args or **kwargs splat.

    A function is called by its name, plain or as an attribute.  A method
    ``<Class>.<m>`` of a package class is called through ``self.<m>`` in its
    class, ``<Class>.<m>`` or ``<Class>(...).<m>``; a call through any other
    receiver counts only when no other package class defines ``<m>``.
    Positions are counted as for a call through an instance; a call
    ``<Class>.<m>(instance, ...)`` of a method that takes ``self`` passes
    the instance first, so its arguments count from the second.
    """
    # every class, nested ones included, as _defaulted_parameters reads them
    defs = [node for tree in package.values() for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)]
    classes = {node.name for node in defs}
    definers: dict[str, set[str]] = {}
    for node in defs:
        for sub in node.body:
            if isinstance(sub, ast.FunctionDef):
                definers.setdefault(sub.name, set()).add(node.name)
    calls: dict[str, list[tuple]] = {}
    for tree in [*package.values(), *others]:
        for owner, name, call, through_class in _calls(tree, classes):
            calls.setdefault(name, []).append((owner, call, through_class))

    def passes(call: ast.Call, through_class: bool, param: str, position, bound: bool) -> bool:
        if any(kw.arg in (param, None) for kw in call.keywords):
            return True
        if position is None:
            return False
        if through_class and bound:
            position += 1
        return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)

    def reaches(owner, cls, func) -> bool:
        if cls is None:
            return owner is None or owner is _ANY
        return owner == cls or owner is _ANY and definers[func] == {cls}

    unset = []
    for module, tree in sorted(package.items()):
        for cls, func, param, position, bound in _defaulted_parameters(tree):
            if not any(reaches(owner, cls, func) and passes(call, through, param, position, bound)
                       for owner, call, through in calls.get(func, [])):
                unset.append(f"{module}.{cls + '.' if cls else ''}{func}({param})")
    return unset


def test_every_defaulted_parameter_is_passed():
    """Every defaulted parameter of a package function or method is passed
    by some call in the package or its tests (see
    ``unset_defaulted_parameters``)."""
    root = PACKAGE.parents[1]
    package = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    tests = [ast.parse(p.read_text(encoding="utf-8")) for p in (root / "tests").glob("*.py")]
    unset = unset_defaulted_parameters(package, tests)
    assert not unset, f"no call in the package or its tests sets {unset}"


def test_a_method_call_counts_for_its_class_only():
    # x.validate(1e-6) could be either class's validate, so it counts for
    # neither; x.check(2) can only be Strict's and x.tune(3) only the nested
    # class's
    tree = ast.parse(textwrap.dedent("""
        class Strict:
            def validate(self, tol=1e-9):
                return self

            def check(self, level=0):
                return self

            @classmethod
            def make(cls, level=0):
                return cls()

            @staticmethod
            def scale(x, factor=1.0):
                return x

        class Loose:
            def validate(self, tol=1e-3):
                return self

            def again(self):
                return self.validate(0.5)

        class Outer:
            class Nested:
                def tune(self, gain=1.0):
                    return self

        def _use(x):
            return x.validate(1e-6), x.check(2), x.tune(3), Strict.make(1), Strict.scale(x, 2)
    """))
    assert unset_defaulted_parameters({"synthetic": tree}, []) == ["synthetic.Strict.validate(tol)"]
    for use in ("Strict.validate(Strict(), tol=0.0)", "synthetic.Strict().validate(0.0)",
                "Strict.validate(Strict(), 0.0)"):
        assert unset_defaulted_parameters({"synthetic": tree}, [ast.parse(use)]) == []
    # through the bare class a method's first argument is its instance, but a
    # classmethod's or staticmethod's is its first parameter (make and scale)
    instance_only = [ast.parse("Strict.validate(Strict())")]
    assert unset_defaulted_parameters({"synthetic": tree}, instance_only) == [
        "synthetic.Strict.validate(tol)"]


# the calls of numpy.linalg outside linalg.py, (module, function, name): the
# exemptions that linalg's docstring lists
_NUMPY_LINALG_EXEMPT = {
    ("fcs", "_haar_isometry", "qr"),
    ("noise", "_product_outcomes", "eigh"),
    ("noise", "perturb_matrix", "norm"),
    ("cli", "_build_model", "norm"),
    ("opbasis", "expand_in_basis", "norm"),
}


def numpy_linalg_calls(tree: ast.Module, module: str) -> set[tuple[str, str, str]]:
    """(module, function, name) of each call of a ``numpy.linalg`` function
    in a parsed module, through the names the module binds to numpy; the
    function is the qualified name of the innermost enclosing function or
    method, ``""`` at module level.  Raising an exception class such as
    ``LinAlgError`` is not a call of a function.  An import of
    ``numpy.linalg`` itself, which would hide its calls, is reported as a
    call of ``"import"``."""
    aliases = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names if a.name == "numpy"}
    found = set()

    def visit(node, where: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import) and any(
                    a.name.startswith("numpy.linalg") for a in child.names) \
                    or isinstance(child, ast.ImportFrom) and (
                        (child.module or "").startswith("numpy.linalg")
                        or child.module == "numpy"
                        and any(a.name == "linalg" for a in child.names)):
                found.add((module, where, "import"))
            func = child.func if isinstance(child, ast.Call) else None
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Attribute) \
                    and func.value.attr == "linalg" and isinstance(func.value.value, ast.Name) \
                    and func.value.value.id in aliases:
                target = getattr(np.linalg, func.attr, None)
                if not (isinstance(target, type) and issubclass(target, BaseException)):
                    found.add((module, where, func.attr))
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}" if where else child.name
            visit(child, inner)

    visit(tree, "")
    return found


def _docstring_exemptions(doc: str, modules: set[str]) -> set[tuple[str, str, str]]:
    """(module, function, name) of each ``module.function`` that a bullet
    ``* ``np.linalg.<name>`` ...`` of a docstring names."""
    exempt = set()
    for name, text in re.findall(r"^\* ``np\.linalg\.(\w+)``(.*?)(?=^\*|^$)", doc,
                                 flags=re.MULTILINE | re.DOTALL):
        for mod, func in re.findall(r"``(\w+)\.([\w.]+)``", text):
            if mod in modules:
                exempt.add((mod, func, name))
    return exempt


def test_dense_linear_algebra_goes_through_linalg():
    """Outside ``linalg`` a package module calls ``numpy.linalg`` only where
    linalg's docstring exempts the call, and each exemption still occurs."""
    from fcs_spectral import linalg

    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    calls = set().union(*(numpy_linalg_calls(tree, module)
                          for module, tree in trees.items() if module != "linalg"))
    assert calls - _NUMPY_LINALG_EXEMPT == set(), "numpy.linalg called outside linalg"
    assert _NUMPY_LINALG_EXEMPT - calls == set(), "exempt numpy.linalg calls no longer occur"
    assert _docstring_exemptions(linalg.__doc__, set(trees)) == _NUMPY_LINALG_EXEMPT


def _docstring_bindings(doc: str) -> set[str]:
    """The names that a bullet ``* ``<name>``, ... the ctypes binding(s)
    ...`` of a docstring lists before those words."""
    return {name for head in re.findall(r"^\* ([^*]*?),? the ctypes bindings? ", doc,
                                         flags=re.MULTILINE)
            for name in re.findall(r"``(\w+)``", head)}


def _bound_names(tree: ast.Module) -> set[str]:
    """Module-level names assigned the result of ``_bind(...)`` or
    ``_bind_mallopt()``."""
    return {target.id for node in tree.body if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call) and isinstance(node.value.func, ast.Name)
            and node.value.func.id in ("_bind", "_bind_mallopt")
            for target in node.targets if isinstance(target, ast.Name)}


def test_linalg_docstring_lists_its_ctypes_bindings():
    """Each ctypes binding of ``linalg`` is listed in its docstring, and each
    listed binding is still bound."""
    from fcs_spectral import linalg

    bound = _bound_names(ast.parse((PACKAGE / "linalg.py").read_text(encoding="utf-8")))
    assert "_GET_THREADS" in bound and "_MALLOPT" in bound
    assert _docstring_bindings(linalg.__doc__) == bound


def test_numpy_linalg_calls_are_found_by_alias_and_enclosing_function():
    tree = ast.parse(textwrap.dedent("""
        import numpy as xp
        from numpy.linalg import svd

        class Model:
            def fit(self, a):
                def inner(b):
                    return xp.linalg.eigvalsh(b)
                return inner(a), xp.linalg.norm(a)

        def fail(a):
            raise xp.linalg.LinAlgError("no")

        top = xp.linalg.qr(xp.eye(2))
    """))
    assert numpy_linalg_calls(tree, "m") == {
        ("m", "", "import"), ("m", "Model.fit.inner", "eigvalsh"),
        ("m", "Model.fit", "norm"), ("m", "", "qr")}
