"""Legacy setup shim.

The target environment is offline and lacks the ``wheel`` package, so PEP 660
editable installs fail; this shim lets ``pip install -e .`` fall back to the
legacy ``setup.py develop`` path.  All metadata lives in ``pyproject.toml``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
