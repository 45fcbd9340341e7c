"""Build script: compiles the optional census kernel.

The package is fully functional without the extension; a failed compile
falls back to the pure-Python path selected at import time.

Build in place for a source checkout:  python setup.py build_ext --inplace
"""

import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Compile the kernel if possible; degrade to pure Python otherwise."""

    def run(self):
        try:
            super().run()
        except Exception as exc:
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        print(f"warning: census kernel not built ({exc}); "
              f"the pure-Python search path will be used", file=sys.stderr)


setup(ext_modules=[Extension("foursq._kernel", ["src/foursq/_kernel.c"],
                             extra_compile_args=["-O2"])],
      cmdclass={"build_ext": OptionalBuildExt})
