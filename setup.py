"""Setuptools entry point.

This file is the project's only packaging metadata (there is no
``pyproject.toml``), so ``pip install -e .`` takes the legacy
``setup.py develop`` path, which also works in offline environments whose
pip/setuptools combination cannot build PEP 660 editable wheels (no
``wheel`` package available).  The package has no runtime dependencies;
the test suite needs ``pytest`` and ``hypothesis``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.10.0",
    description=(
        "Reproduction of the TrieJax architecture: WCOJ-based graph pattern "
        "matching acceleration (ASPLOS 2020)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
)
