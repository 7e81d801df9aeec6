"""The kernel module and its name.

There is one kernel implementation, ``_pykernels``.  These two bindings stay
because they are read from outside the library: the layered benchmark
(``layerbench/``) wraps ``kernels.extend_level``, ``kernels.rref`` and
``kernels.products`` to time the kernel layer, and records ``BACKEND_NAME``
with every run.
"""

from . import _pykernels as kernels

BACKEND_NAME = "pure"
