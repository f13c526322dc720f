"""Every example still imports.

Only ``examples/engine_smoke.py`` runs in CI; the rest would silently rot
if an API they import went away.  Each example keeps its work behind a
``__main__`` guard, so importing one as a module is cheap and executes
every import it makes.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(getattr(module, "main", None)), (
        f"{path.name} has no main() behind its __main__ guard"
    )
