"""Setuptools packaging for the ``repro`` engine.

The package lives under ``src/``; everything in the repository also runs
from source with ``PYTHONPATH=src``, which is how the tests, benchmarks and
CI use it.  This file exists so that ``pip install -e .`` works too,
including offline environments whose setuptools cannot build PEP 660
editable wheels (no ``wheel`` package available).  Runtime and test
dependencies are listed in ``requirements.txt``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.0.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
)
