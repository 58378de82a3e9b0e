import os
from pathlib import Path

import pytest

import quatrot


@pytest.fixture(scope="session")
def cli_env():
    """Environment for ``python -m quatrot`` child processes: this one's,
    with the directory holding the imported quatrot package first on
    PYTHONPATH, so the child runs the same code installed or not."""
    package_root = str(Path(quatrot.__file__).resolve().parents[1])
    return dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p),
    )
