"""Micro-op IR -- re-exported from :mod:`repro.gpu.ops`.

The op vocabulary is canonically defined in the GPU package (it is the
instruction set of the simulated device and the GPU package must not
depend on the rest of the library); this module re-exports it under the
``repro.core`` namespace for the layer map in docs/ARCHITECTURE.md.
"""

from repro.gpu.ops import (  # noqa: F401
    ABORT,
    ATOMIC_ADD,
    ATOMIC_CAS,
    COMPUTE,
    DELETE_ROW,
    INDEX_PROBE,
    INSERT_ROW,
    KIND_NAMES,
    VECTORIZABLE_KINDS,
    LOCK_ACQUIRE,
    LOCK_RELEASE,
    READ,
    SET_BRANCH,
    SFU_COMPUTE,
    THREAD_FENCE,
    WRITE,
    Abort,
    AtomicAdd,
    AtomicCAS,
    Compute,
    DeleteRow,
    IndexProbe,
    InsertRow,
    LockAcquire,
    LockRelease,
    Op,
    OpStream,
    Read,
    SetBranch,
    SfuCompute,
    ThreadFence,
    Write,
)

__all__ = [
    "ABORT", "ATOMIC_ADD", "ATOMIC_CAS", "COMPUTE", "DELETE_ROW",
    "INDEX_PROBE", "INSERT_ROW", "KIND_NAMES", "VECTORIZABLE_KINDS",
    "LOCK_ACQUIRE",
    "LOCK_RELEASE", "READ", "SET_BRANCH", "SFU_COMPUTE", "THREAD_FENCE",
    "WRITE", "Abort", "AtomicAdd", "AtomicCAS", "Compute", "DeleteRow",
    "IndexProbe", "InsertRow", "LockAcquire", "LockRelease", "Op",
    "OpStream", "Read", "SetBranch", "SfuCompute", "ThreadFence", "Write",
]
