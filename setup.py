"""Package metadata and entry points.

Kept as a plain ``setup.py`` (rather than PEP-517 ``pyproject.toml``
metadata) so editable installs work in offline environments that lack the
``wheel`` package.  The ``repro`` console script is the same driver as
``python -m repro``.
"""

import os
import re

from setuptools import find_packages, setup


def read_version() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "src", "repro", "version.py")) as handle:
        return re.search(r'__version__ = "([^"]+)"', handle.read()).group(1)


setup(
    name="glova-repro",
    version=read_version(),
    description=(
        "Reproduction of GLOVA: global and local variation-aware analog "
        "circuit design with risk-sensitive reinforcement learning (DAC 2025)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
    entry_points={
        "console_scripts": [
            "repro=repro.__main__:main",
        ]
    },
)
