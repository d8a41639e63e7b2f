"""Package metadata (setuptools, no PEP 517 build isolation needed).

Kept as a plain ``setup.py`` so ``pip install -e . --no-build-isolation
--no-use-pep517`` works in offline environments that lack the ``wheel``
package (PEP 660 editable installs need it).

The library needs only numpy.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(
    r'^__version__ = "([^"]+)"', _INIT.read_text(), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Reproduction of Mosaic: client-driven account allocation in "
        "sharded blockchains (ICDCS 2025)"
    ),
    packages=find_packages("src"),
    package_dir={"": "src"},
    python_requires=">=3.9",
    install_requires=["numpy"],
    entry_points={
        "console_scripts": ["repro = repro.cli:main"],
    },
)
