from setuptools import Extension, setup

# optional: without a C compiler the package still installs, and
# macfi.macarray falls back to the pure-Python kernel at import time.
setup(ext_modules=[Extension("macfi._kernel", ["src/macfi/_kernel.c"], optional=True)])
