"""The hot kernels: exact RREF and matrix multiply over Fractions.

Every rank decision in ratspec goes through these two functions; they are
implemented in pure Python in ratspec._kernels_py.
"""

from ratspec._kernels_py import BACKEND, matmul, rref

__all__ = ["BACKEND", "matmul", "rref"]
