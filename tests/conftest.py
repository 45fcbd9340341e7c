import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from foursq import search

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def build_kernel(tmp_path_factory):
    """A function that compiles the checkout's `_kernel.c` with the
    checkout's `setup.py` into a temporary directory and imports it, with
    extra compiler flags from its positional arguments and C macros set from
    its keyword arguments.  The module's `build_log` is the build's
    stdout.  With load=False it returns the built file's path instead, for
    a build that only a process started with its own environment can load.

    Skipped only when no C compiler exists; a compiler that fails to build
    the kernel is a test failure.
    """
    cc = sysconfig.get_config_var("CC")
    if not cc or shutil.which(cc.split()[0]) is None:
        pytest.skip("no C compiler to build the census kernel")

    def build(*flags, load=True, **macros):
        out = tmp_path_factory.mktemp("kernel")
        env = dict(os.environ)
        env["CFLAGS"] = " ".join([env.get("CFLAGS", ""), *flags] + [
            f"-D{name}={value}" for name, value in macros.items()])
        proc = subprocess.run(
            [sys.executable, "setup.py", "build_ext", "--build-lib", str(out),
             "--build-temp", str(out / "build")],
            cwd=REPO, env=env, capture_output=True, text=True)
        built = sorted(out.glob("foursq/_kernel.*"))
        assert built, f"{cc} is present but the kernel did not build:\n{proc.stderr}"
        if not load:
            return built[0]
        spec = importlib.util.spec_from_file_location("foursq._kernel", built[0])
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.build_log = proc.stdout  # holds the compiler's command lines
        return module
    return build


@pytest.fixture(scope="session")
def kernel(build_kernel):
    """The census kernel as `setup.py` builds it."""
    return build_kernel()


@pytest.fixture
def no_sieve(monkeypatch):
    """Fail the test if the census builds its sieve."""
    def sieve(limit):
        raise AssertionError(f"a sieve to {limit} was built")
    monkeypatch.setattr(search, "spf_sieve", sieve)
