"""The hot kernels: exact RREF and matrix multiply over the integers.

Every rank decision in ratspec goes through these two functions. They take
and return Python ints: ratspec.ratmat hands them the integer numerators of
its matrices and keeps the common denominators itself. matmul(m, k, n, a,
b, memo_a, memo_b) takes, as optional trailing positional arguments, a memo
for each operand: a dict, empty at first, in which the kernel keeps facts
about that operand alone (its largest absolute entry, its 64-bit lane
packing as a right operand) for the next product that passes the same memo;
what a memo holds is known only to ratspec._kernels_py, and None computes
it afresh. They are implemented in pure Python in ratspec._kernels_py.
"""

from ratspec._kernels_py import BACKEND, matmul, rref

__all__ = ["BACKEND", "matmul", "rref"]
