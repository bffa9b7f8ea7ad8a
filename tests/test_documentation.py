"""Documentation coverage: every public item carries a docstring.

Deliverable (e) of the reproduction: doc comments on every public item.
This test walks the package and enforces it mechanically, so a new
module can't silently ship undocumented.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro


def iter_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue  # importing it would run the CLI
        yield importlib.import_module(info.name)


MODULES = list(iter_modules())


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), module.__name__


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_public_classes_and_functions_documented(module):
    undocumented = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-export; documented at its home
        if not (obj.__doc__ and obj.__doc__.strip()):
            undocumented.append(f"{module.__name__}.{name}")
        if inspect.isclass(obj):
            for mname, member in vars(obj).items():
                if mname.startswith("_") or not inspect.isfunction(member):
                    continue
                if member.__doc__ and member.__doc__.strip():
                    continue
                # overrides inherit the contract documented on the base
                inherited = any(
                    getattr(getattr(base, mname, None), "__doc__", None)
                    for base in obj.__mro__[1:]
                )
                if not inherited:
                    undocumented.append(
                        f"{module.__name__}.{name}.{mname}"
                    )
    assert not undocumented, f"undocumented public items: {undocumented}"


def test_repo_docs_exist():
    from pathlib import Path

    root = Path(repro.__file__).resolve().parent.parent.parent
    for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                "docs/protocol.md", "docs/workloads.md",
                "docs/verification.md", "docs/observability.md",
                "docs/parallelism.md"):
        path = root / doc
        assert path.exists(), doc
        assert len(path.read_text()) > 500, f"{doc} looks stubby"


def test_observability_doc_event_table_matches_the_registry():
    """docs/observability.md's event table carries exactly the declared
    events, in declaration order, with their kind and component."""
    import re
    from pathlib import Path

    from repro.obs.registry import EVENTS

    doc = (Path(repro.__file__).parents[2] / "docs" / "observability.md")
    rows = re.findall(
        r"^\| `([a-z_.]+)` \| (span|instant|counter) \| (\w+) \|",
        doc.read_text(), re.M,
    )
    assert rows == [
        (name, spec.kind, spec.comp) for name, spec in EVENTS.items()
    ]


def test_verification_doc_rule_table_matches_lint_rules():
    """docs/verification.md's lint rule table lists exactly
    ``LINT_RULES``' keys, in order (``LINT_RULES`` is the catalogue)."""
    import re
    from pathlib import Path

    from repro.verify.lint import LINT_RULES

    doc = (Path(repro.__file__).parents[2] / "docs" / "verification.md")
    table = doc.read_text().split("## Lint rule catalog")[1].split("\n## ")[0]
    assert re.findall(r"^\| `([a-z-]+)` \|", table, re.M) == list(LINT_RULES)


def test_design_doc_scheme_table_matches_the_classes():
    """DESIGN.md's "who an entry covers" table has one row per entry class,
    carrying the precision, relabelling group and traits its scheme declares."""
    import re
    from pathlib import Path

    from repro.core.registry import make_scheme

    doc = (Path(repro.__file__).parents[2] / "DESIGN.md").read_text()
    rows = {
        entry: (precision, relabelling, set(re.findall(r"`(\w+)`", traits)))
        for entry, precision, relabelling, traits in re.findall(
            r"^\| `(\w+Entry)` \| [^|]+ \| (\w+) \| (\w+) \| ([^|]+) \|$",
            doc, re.M,
        )
    }
    traits = ("serial_invalidations", "evicts_on_overflow", "ordered_entries",
              "couples_entries")
    declared = {}
    for name in ("full", "Dir2B", "Dir2NB", "Dir2X", "Dir2CV2", "DirLL", "Dir2OF2"):
        scheme = make_scheme(name, 8)
        declared[type(scheme.make_entry()).__name__] = (
            scheme.precision, scheme.relabelling,
            {t for t in traits if getattr(scheme, t)},
        )
    assert rows == declared
