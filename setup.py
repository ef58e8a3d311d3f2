"""Build script: compiles the optional Cython kernel extension.

With Cython installed the extension is built from ``_kernels_cy.pyx``;
without it, from the ``_kernels_cy.c`` generated from that file and shipped
beside it. The package works without the extension (a pure-numpy fallback is
selected at import time), so the extension is optional: a failed compile
downgrades to a warning instead of aborting the install.
"""

import warnings

from setuptools import setup

ext_modules = []
try:
    import numpy as np
    from setuptools import Extension

    kernels = Extension(
        name="logconmix._kernels_cy",
        sources=["src/logconmix/_kernels_cy.pyx"],
        include_dirs=[np.get_include()],
        extra_compile_args=["-O3"],
        define_macros=[("NPY_NO_DEPRECATED_API", "NPY_1_7_API_VERSION")],
        optional=True,
    )
    try:
        from Cython.Build import cythonize
    except ImportError:
        kernels.sources = ["src/logconmix/_kernels_cy.c"]
        ext_modules = [kernels]
    else:
        ext_modules = cythonize([kernels],
                                compiler_directives={"language_level": "3"})
except Exception as exc:  # pragma: no cover - exercised only on broken toolchains
    warnings.warn(f"Cython kernel extension will not be built ({exc}); "
                  "falling back to the pure-Python kernels.")

setup(ext_modules=ext_modules)
