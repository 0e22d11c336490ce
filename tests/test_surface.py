"""Every name that `pqvar/__init__.py` imports is used by the package itself.

A name passes when a module of src/pqvar other than `__init__.py` reads it, as
a name or as an attribute, or when it belongs to the verification interface
below: the checks the package exports for callers who test integrands and
conjugates of their own.  The API list of README.md names exactly these
exports.  The tests read the sources and import nothing.
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
