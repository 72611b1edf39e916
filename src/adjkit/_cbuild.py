"""Build and load the compiled term kernels, ``adjkit._termkernels_c``.

``load()`` returns ``(module, "")``, or ``(None, reason)`` when the
pure-Python kernels must serve.  The shared object lives next to its
source, ``_termkernels_c.c``, and carries the digest (CRC-32) of the source
it was built from.  When it is missing or its digest is not the source's,
``load`` builds it first with the compiler, flags and include directory of
this Python's ``sysconfig``: it compiles to a temporary name and moves the
result into place, so a concurrent import never sees a half-written file.
An import that finds the shared object current reads two files and loads
it; the build's modules are imported only to build.

A tree the build cannot write to is not built ("read-only tree").  A build
that runs and fails leaves a marker, ``<shared object>.failed-<digest>``,
holding its reason, so later imports of the same source report that reason
at once instead of compiling again; delete the marker to retry.  A missing
compiler leaves no marker, so installing one is enough.

Setting the environment variable ``ADJKIT_PURE`` to a value other than
``""`` or ``"0"`` skips the compiled kernels.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import os
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
NAME = "_termkernels_c"
SOURCE = HERE / f"{NAME}.c"
MARKER = b"adjkit-source-digest:"
BUILD_TIMEOUT_S = 300


def target() -> Path:
    return HERE / (NAME + importlib.machinery.EXTENSION_SUFFIXES[0])


def failure_marker(digest: str) -> Path:
    out = target()
    return out.with_name(f"{out.name}.failed-{digest}")


def writable() -> bool:
    return os.access(HERE, os.W_OK)


def compile_command(source: Path, out: Path, digest: str) -> list[str]:
    """The command that compiles and links ``source`` into ``out``."""
    import shlex
    import sysconfig
    link = shlex.split(sysconfig.get_config_var("LDSHARED") or "cc -shared")
    pic = shlex.split(sysconfig.get_config_var("CCSHARED") or "-fPIC")
    return link + pic + [
        "-O2", "-pthread", "-I", sysconfig.get_paths()["include"],
        f'-DADJKIT_SOURCE_DIGEST="{digest}"', str(source), "-o", str(out)]


class BuildError(Exception):
    """A failed build; ``record`` when retrying the same source is futile."""

    def __init__(self, reason: str, record: bool = True):
        super().__init__(reason)
        self.record = record


def build(digest: str) -> None:
    """Compile the extension for ``digest`` into place."""
    import subprocess
    out = target()
    tmp = out.with_name(f"{out.name}.{os.getpid()}.tmp")
    try:
        done = subprocess.run(compile_command(SOURCE, tmp, digest),
                              capture_output=True, text=True,
                              timeout=BUILD_TIMEOUT_S)
    except OSError as e:
        raise BuildError(f"no compiler: {e}", record=False) from None
    except subprocess.TimeoutExpired:
        tmp.unlink(missing_ok=True)
        raise BuildError(f"build error: timed out after {BUILD_TIMEOUT_S} s")
    if done.returncode != 0:
        tmp.unlink(missing_ok=True)
        lines = (done.stderr or done.stdout).strip().splitlines()
        raise BuildError(f"build error: exit {done.returncode}: "
                         + (lines[-1] if lines else "no output"))
    try:
        os.replace(tmp, out)
    except OSError as e:
        tmp.unlink(missing_ok=True)
        raise BuildError(f"build error: {e}") from None


def load():
    """(compiled module, "") or (None, why the pure-Python kernels serve)."""
    if os.environ.get("ADJKIT_PURE", "") not in ("", "0"):
        return None, "ADJKIT_PURE is set"
    try:
        digest = f"{zlib.crc32(SOURCE.read_bytes()):08x}"
    except OSError as e:
        return None, f"build error: {e}"
    try:
        current = MARKER + digest.encode() in target().read_bytes()
    except OSError:
        current = False
    if not current:
        marker = failure_marker(digest)
        try:
            return None, marker.read_text()
        except OSError:
            pass
        if not writable():
            return None, "read-only tree"
        for stale in HERE.glob(f"{target().name}.failed-*"):
            stale.unlink(missing_ok=True)
        try:
            build(digest)
        except BuildError as e:
            if e.record:
                try:
                    marker.write_text(str(e))
                except OSError:
                    pass
            return None, str(e)
    try:
        return importlib.import_module(f"{__package__}.{NAME}"), ""
    except ImportError as e:
        return None, f"import error: {e}"
