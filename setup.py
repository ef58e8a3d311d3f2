"""Build script: compiles the optional C kernel extension.

``logconmix._kernels_c`` is built from the hand-written ``_kernels_c.c``
against numpy's C API. The package works without it (``kernels`` then
selects the pure-numpy backend), so the extension is optional: a failed
compile downgrades to a warning instead of aborting the install.
"""

import numpy as np
from setuptools import Extension, setup

setup(ext_modules=[Extension(
    name="logconmix._kernels_c",
    sources=["src/logconmix/_kernels_c.c"],
    include_dirs=[np.get_include()],
    extra_compile_args=["-O3"],
    define_macros=[("NPY_NO_DEPRECATED_API", "NPY_1_7_API_VERSION")],
    optional=True,
)])
