"""Setuptools shim: all metadata is in pyproject.toml.

Kept so that ``python setup.py develop`` installs the package and the
``klab`` console script where ``pip install -e .`` cannot (offline,
without the ``wheel`` package).
"""

from setuptools import setup

setup()
