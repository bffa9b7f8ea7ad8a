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


# where the repo tells a reader to run something
COMMAND_SOURCES = ("README.md", "docs/*.md", ".claude/skills/verify/SKILL.md",
                   "Makefile", ".github/workflows/ci.yml")


def _fold_yaml(text):
    """Join each YAML ``key: >`` folded block onto its key's line."""
    import re

    lines, out, i = text.split("\n"), [], 0
    while i < len(lines):
        key = re.match(r"^(\s*)(?:- )?[\w-]+: >-?\s*$", lines[i])
        out.append(lines[i])
        i += 1
        if key:
            indent = len(key.group(1))
            while i < len(lines) and (
                not lines[i].strip()
                or len(lines[i]) - len(lines[i].lstrip()) > indent
            ):
                out[-1] += " " + lines[i].strip()
                i += 1
    return "\n".join(out)


def _command_chunks(path):
    """The lines a reader would paste: continuations and folded YAML
    joined, and for Markdown the fenced lines plus every inline span."""
    import re

    text = re.sub(r"\\\n\s*", " ", path.read_text())
    if path.suffix == ".yml":
        text = _fold_yaml(text)
    if path.suffix != ".md":
        return text.split("\n")
    parts = re.split(r"^```.*$", text, flags=re.M)
    fenced = [line for block in parts[1::2] for line in block.split("\n")]
    spans = re.findall(r"`([^`]+)`", "".join(parts[0::2]))
    return fenced + [" ".join(span.split()) for span in spans]


def documented_commands():
    """Every ``python -m repro...`` command in :data:`COMMAND_SOURCES`,
    as ``(file, module, argument string)``."""
    import re
    from pathlib import Path

    root = Path(repro.__file__).parents[2]
    command = re.compile(r"python3? -m (repro[\w.]*)([^`|;&)\"'<>\n]*)")
    found = []
    for pattern in COMMAND_SOURCES:
        for path in sorted(root.glob(pattern)):
            for chunk in _command_chunks(path):
                for m in command.finditer(chunk):
                    found.append((path.relative_to(root).as_posix(),
                                  m.group(1), m.group(2).strip()))
    return found


def test_documented_commands_run_the_one_cli():
    """Every documented ``python -m repro...`` command runs ``repro``
    (no second entry module) and, unless it needs the shell to expand
    something, parses in ``repro.cli.build_parser()``."""
    import shlex

    from repro.cli import build_parser

    commands = documented_commands()
    assert len({f for f, _, _ in commands}) >= 5, commands
    assert [c for c in commands if c[1] != "repro"] == []
    unparsed = []
    for where, _, argv in commands:
        if "$" in argv:
            continue
        try:
            build_parser().parse_args(shlex.split(argv, comments=True))
        except SystemExit as exc:
            if exc.code:  # --help exits 0
                unparsed.append((where, argv))
    assert unparsed == []
