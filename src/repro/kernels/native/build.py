"""On-demand compilation of the native kernel library.

The C source (``kernels.c``, shipped inside the package) is compiled
once per (source, compiler, platform) into a shared object under the
repro cache directory and loaded through :mod:`ctypes` — no build-time
dependency, no wheel-per-platform, just ``cc -O3 -shared -fPIC`` at
first use.  Hosts without a working C toolchain raise
:class:`~repro.kernels.backend.KernelBackendUnavailable` from
:func:`load_library`, which the backend table translates into the
documented fall-back-to-``packed`` path.

Environment knobs:

* ``REPRO_NATIVE_CC`` — compiler executable (default: first of ``cc``,
  ``gcc``, ``clang`` on ``PATH``).  Pointing it at a non-existent path
  is the supported way to *simulate* a compiler-less host in tests/CI.
* ``REPRO_NATIVE_CACHE`` — directory for built libraries (default:
  ``~/.cache/repro``).  The library file name embeds a digest of the
  source, the compiler, and the platform, so upgrades and toolchain
  switches rebuild instead of loading a stale binary.

Every build also records the sha256 of the library it produced in a
``.sha256`` file next to it, and a cached library is loaded only when
its bytes still match that digest.  A truncated or otherwise damaged
cache entry (or one with no digest) is rebuilt rather than handed to
``ctypes.CDLL``, which can die by SIGBUS mapping a short file.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import threading
from pathlib import Path

from repro.kernels.backend import KernelBackendUnavailable

#: Compiler override; a non-existent path simulates a toolchain-less host.
ENV_CC = "REPRO_NATIVE_CC"

#: Build-cache directory override.
ENV_CACHE = "REPRO_NATIVE_CACHE"

#: Compilers probed on PATH, in order, when ``REPRO_NATIVE_CC`` is unset.
_COMPILERS = ("cc", "gcc", "clang")

_CFLAGS = ("-O3", "-shared", "-fPIC")

_COMPILE_TIMEOUT = 120.0

SOURCE_PATH = Path(__file__).with_name("kernels.c")

_lock = threading.Lock()
_loaded: "dict[str, ctypes.CDLL]" = {}


def find_compiler() -> "str | None":
    """The C compiler to use, or None when the host has none."""
    override = os.environ.get(ENV_CC)
    if override:
        return override if Path(override).exists() else None
    for name in _COMPILERS:
        found = shutil.which(name)
        if found:
            return found
    return None


def cache_dir() -> Path:
    """Where built libraries (and sibling repro caches) live."""
    override = os.environ.get(ENV_CACHE)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


def library_path(compiler: str) -> Path:
    """The cache path for the library this source + toolchain produces."""
    digest = hashlib.sha256(
        SOURCE_PATH.read_bytes()
        + compiler.encode()
        + f"{sys.platform}-{platform.machine()}".encode()
    ).hexdigest()[:16]
    return cache_dir() / f"repro-kernels-{digest}.so"


def _digest_path(library: Path) -> Path:
    return library.with_name(library.name + ".sha256")


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _is_verified(library: Path) -> bool:
    """Does *library* still hold the bytes its build recorded?"""
    try:
        return _file_digest(library) == _digest_path(library).read_text().strip()
    except OSError:
        return False


def build_library() -> Path:
    """Compile ``kernels.c`` into the cache (idempotent); return its path.

    Raises:
        KernelBackendUnavailable: no compiler, or the compile failed.
    """
    if sys.byteorder != "little":  # pragma: no cover - no BE host in CI
        raise KernelBackendUnavailable(
            "native kernels assume a little-endian host (packed words are '<u8')"
        )
    compiler = find_compiler()
    if compiler is None:
        raise KernelBackendUnavailable(
            f"no C compiler found (set {ENV_CC} or install cc/gcc/clang)"
        )
    target = library_path(compiler)
    if _is_verified(target):
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    # Build to a pid-suffixed temp name, then rename: concurrent
    # processes racing the first build each produce a whole file and
    # os.replace keeps whichever lands last — never a partial library.
    tmp = target.with_name(f"{target.stem}.{os.getpid()}.tmp.so")
    command = [compiler, *_CFLAGS, "-o", str(tmp), str(SOURCE_PATH)]
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, timeout=_COMPILE_TIMEOUT
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise KernelBackendUnavailable(
            f"could not run the C compiler {compiler!r}: {exc}"
        ) from exc
    if proc.returncode != 0:
        tmp.unlink(missing_ok=True)
        detail = (proc.stderr or proc.stdout or "").strip().splitlines()
        raise KernelBackendUnavailable(
            f"C compile failed (exit {proc.returncode}): "
            + (detail[-1] if detail else "no compiler output")
        )
    # The digest goes through the same temp-file + rename, after the
    # library: a reader that sees a digest from another build's race
    # just finds a mismatch and rebuilds.
    tmp_digest = _digest_path(tmp)
    tmp_digest.write_text(_file_digest(tmp) + "\n")
    os.replace(tmp, target)
    os.replace(tmp_digest, _digest_path(target))
    return target


def load_library() -> ctypes.CDLL:
    """Build (if needed) and load the native library, with signatures set.

    Memoized per library path; thread-safe.  Raises
    :class:`KernelBackendUnavailable` when the host cannot produce or
    load the library.
    """
    with _lock:
        compiler = find_compiler()
        if compiler is None:
            raise KernelBackendUnavailable(
                f"no C compiler found (set {ENV_CC} or install cc/gcc/clang)"
            )
        key = str(library_path(compiler))
        lib = _loaded.get(key)
        if lib is not None:
            return lib
        path = build_library()
        try:
            lib = ctypes.CDLL(str(path))
        except OSError as exc:
            raise KernelBackendUnavailable(
                f"built native library failed to load: {exc}"
            ) from exc
        _declare_signatures(lib)
        _loaded[key] = lib
        return lib


def _declare_signatures(lib: ctypes.CDLL) -> None:
    u64p = ctypes.POINTER(ctypes.c_uint64)
    u8p = ctypes.POINTER(ctypes.c_uint8)
    i64p = ctypes.POINTER(ctypes.c_int64)
    size_t = ctypes.c_size_t

    lib.repro_support_any.argtypes = [
        u64p, size_t, size_t,  # matrix, rows, n_words
        u64p,  # alive
        i64p, size_t,  # seg_byte_starts, n_segs
        u8p,  # out
    ]
    lib.repro_support_any.restype = None

    lib.repro_and_accumulate.argtypes = [u64p, u64p, size_t]
    lib.repro_and_accumulate.restype = ctypes.c_uint64

    lib.repro_count_ones.argtypes = [u64p, size_t]
    lib.repro_count_ones.restype = ctypes.c_uint64
