"""Every name that `pqvar/__init__.py` imports is used by the package itself,
and every optional parameter of those names is set by some caller.

A name passes when a module of src/pqvar other than `__init__.py` reads it, as
a name or as an attribute, or when it belongs to the verification interface
below: the checks the package exports for callers who test integrands and
conjugates of their own.  The API list of README.md names exactly these
exports.  An optional parameter of an exported function, or of a public method
of an exported class, passes when a call in src/pqvar or perfbench, to a
callee of that name, passes it by keyword or by position; a setting that no
caller changes is a module constant instead.  The verification interface is
exempt.  The tests read the sources and import nothing.
"""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "pqvar"

VERIFICATION_INTERFACE = ("fd_check", "monotonicity_ratios", "inverse_gradient",
                          "fenchel_young_gap")


def exported():
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]


def read_by_the_package():
    """Every name loaded, and every attribute read, in the other modules."""
    seen = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
    return seen


def test_every_export_is_reached():
    seen = read_by_the_package()
    assert [name for name in exported()
            if name not in seen and name not in VERIFICATION_INTERFACE] == []


def test_the_verification_interface_is_exported():
    assert set(VERIFICATION_INTERFACE) <= set(exported())


def test_readme_lists_exactly_the_exports():
    readme = (SRC.parents[1] / "README.md").read_text()
    assert "\n## API\n" in readme
    section = readme.split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    bullets = "".join(par for par in section.split("\n\n") if par.startswith("- "))
    assert sorted(re.findall(r"`(\w+)`", bullets)) == sorted(exported())


# ------------------------------------------------------------ parameters

CALLERS = [SRC, SRC.parents[1] / "perfbench"]
# optional parameters that no caller sets yet; the per-iteration records of
# ROADMAP item 1 replace them
PENDING_PARAMETERS = ("minimize_dirichlet.energy_trace",)


def optional_parameters():
    """(name, index, parameter) of every optional parameter of an exported
    function, or of a public method of an exported class, outside the
    verification interface; `index` is the parameter's position among the
    arguments a call passes, None when it is keyword-only."""
    exports = set(exported()) - set(VERIFICATION_INTERFACE)
    found = []

    def add(name, fn, skip):
        args = fn.args.posonlyargs + fn.args.args
        first = len(args) - len(fn.args.defaults)
        found.extend((name, k - skip, arg.arg) for k, arg in enumerate(args) if k >= first)
        found.extend((name, None, arg.arg) for arg, default
                     in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default is not None)

    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and node.name in exports:
                add(node.name, node, 0)
            elif isinstance(node, ast.ClassDef) and node.name in exports:
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                     for d in fn.decorator_list)
                        add(f"{node.name}.{fn.name}", fn, 0 if static else 1)
    return found


def calls():
    """Every call in src/pqvar and perfbench, as (callee name, number of
    positional arguments, keyword names); None for the number after a *args
    and for the names after a **kwargs."""
    out = []
    for root in CALLERS:
        for path in sorted(root.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    starred = any(isinstance(a, ast.Starred) for a in node.args)
                    keywords = [kw.arg for kw in node.keywords]
                    out.append((name, None if starred else len(node.args),
                                None if None in keywords else set(keywords)))
    return out


def unset_parameters():
    """`name.parameter` of each optional parameter that no call passes, by
    keyword or by position, to a callee of that (last) name."""
    made = calls()

    def passes(call, name, index, param):
        callee, positional, keywords = call
        return callee == name.rsplit(".", 1)[-1] and (
            keywords is None or param in keywords
            or index is not None and (positional is None or positional > index))

    return [f"{name}.{param}" for name, index, param in optional_parameters()
            if not any(passes(call, name, index, param) for call in made)]


def test_every_optional_parameter_is_set_by_a_caller():
    assert [p for p in unset_parameters() if p not in PENDING_PARAMETERS] == []


def test_pending_parameters_are_still_unset():
    assert set(PENDING_PARAMETERS) <= set(unset_parameters())
