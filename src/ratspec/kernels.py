"""The hot kernels: exact RREF and matrix multiply over the integers.

Every rank decision in ratspec goes through these two functions. They take
and return Python ints: ratspec.ratmat hands them the integer numerators of
its matrices and keeps the common denominators itself. They are implemented
in pure Python in ratspec._kernels_py.
"""

from ratspec._kernels_py import BACKEND, matmul, rref

__all__ = ["BACKEND", "matmul", "rref"]
