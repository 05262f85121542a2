"""Packaging for the PODS 2016 streaming set cover reproduction."""

from setuptools import find_packages, setup

setup(
    name="streaming-set-cover-repro",
    version="1.2.0",
    description=(
        "Reproduction of 'Towards Tight Bounds for the Streaming Set Cover "
        "Problem' (Har-Peled, Indyk, Mahabadi, Vakilian; PODS 2016)"
    ),
    long_description=open("README.md", encoding="utf-8").read(),
    long_description_content_type="text/markdown",
    license="MIT",
    packages=find_packages(where="src"),
    package_dir={"": "src"},
    python_requires=">=3.10",
    install_requires=[
        "numpy>=1.22",
        # LP rounding, `repro info --bounds` and the weighted solvers;
        # imported at their call sites, so `repro solve` never loads it.
        "scipy",
    ],
    extras_require={
        "test": ["pytest", "hypothesis", "pytest-benchmark"],
    },
    entry_points={
        "console_scripts": [
            "repro=repro.cli:main",
        ],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Scientific/Engineering",
    ],
)
