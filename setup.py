"""Build script: compiles the optional census kernel.

The package is fully functional without the extension.  The kernel is an
`optional` extension, so a failed compile only warns (`building extension
"foursq._kernel" failed: ...`) and the pure-Python search path is selected
at import time.

The kernel compiles with the interpreter's own flags, so an -O level given in
CFLAGS is the last on the compiler's command line and takes effect.

Build in place for a source checkout:  python setup.py build_ext --inplace
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("foursq._kernel", ["src/foursq/_kernel.c"],
                             optional=True)])
