"""LU — blocked dense LU factorization (SPLASH-2, aligned variant).

Pattern features reproduced (paper Sections 4.3, 5.2.2, 5.3):

* the matrix is blocked into 16x16 blocks of doubles, block-aligned so
  there is no false sharing (the paper uses the *aligned* LU);
* owner-computes: blocks are assigned to cores in a 2D scatter; the
  perimeter and interior updates read blocks owned by other cores
  (producer-consumer sharing through barriers);
* upgrade-heavy stores: blocks are read (Shared) before being written,
  so MESI issues many Upgrade requests with invalidations — the paper's
  "LU store control traffic" oddity;
* triangular use: the perimeter update consumes only the triangular half
  of the diagonal block, so half of each fetched line is spatial waste —
  the paper's residual LU L1 waste.
"""

from __future__ import annotations

from typing import List

from repro.common.config import ScaleConfig
from repro.workloads.base import DOUBLE_WORDS, Generator, core_grid

#: Block edge in doubles: 16x16 blocks at every input scale, as in the
#: paper.
LU_BLOCK = 16


class LUGenerator(Generator):
    name = "LU"

    def __init__(self, scale: ScaleConfig, **kwargs) -> None:
        super().__init__(scale, **kwargs)
        self.n = scale.lu_matrix
        self.b = LU_BLOCK
        if self.n % self.b:
            raise ValueError("matrix size must be a multiple of block size")
        self.nblocks = self.n // self.b
        self.block_words = self.b * self.b * DOUBLE_WORDS
        # 2D block-cyclic owner grid: 4x4 on the paper's 16-core machine.
        self.grid_rows, self.grid_cols = core_grid(self.num_cores)

    def description(self) -> str:
        return (f"{self.n}x{self.n} matrix, {self.b}x{self.b} blocks, "
                f"aligned (no false sharing)")

    def layout(self) -> None:
        total = self.nblocks * self.nblocks * self.block_words
        self.matrix = self.alloc.alloc("lu.matrix", total)

    # -- addressing ------------------------------------------------------
    def block_base(self, bi: int, bj: int) -> int:
        index = bi * self.nblocks + bj
        return self.matrix.base_word + index * self.block_words

    def elem(self, bi: int, bj: int, i: int, j: int) -> int:
        return self.block_base(bi, bj) + (i * self.b + j) * DOUBLE_WORDS

    def owner(self, bi: int, bj: int) -> int:
        """2D scatter block-to-core assignment (SPLASH LU)."""
        return ((bi % self.grid_rows) * self.grid_cols
                + (bj % self.grid_cols))

    # -- emission --------------------------------------------------------
    def emit(self) -> None:
        self._warmup_read_all()
        self.barrier()
        for k in range(self.nblocks):
            self._factor_diagonal(k)
            self.barrier()
            self._update_perimeter(k)
            self.barrier()
            self._update_interior(k)
            self.barrier()

    def warmup_barriers(self) -> int:
        return 1   # core 0 streams the matrix once (paper Section 4.3)

    def _warmup_read_all(self) -> None:
        for bi in range(self.nblocks):
            for bj in range(self.nblocks):
                base = self.block_base(bi, bj)
                self.read_range(0, base, self.block_words)

    def _factor_diagonal(self, k: int) -> None:
        """Owner factorizes block (k, k): read-modify-write, triangular."""
        core = self.owner(k, k)
        for i in range(self.b):
            for j in range(self.b):
                self.load_double(core, self.elem(k, k, i, j))
                if j >= i:   # the elimination only updates at/above the pivot row
                    self.store_double(core, self.elem(k, k, i, j))
            self.compute(core, 4)

    def _update_perimeter(self, k: int) -> None:
        """Row/column blocks (k, j) and (i, k): triangular solve against
        the diagonal block (reads only its upper triangle)."""
        for j in range(k + 1, self.nblocks):
            self._perimeter_one(k, k, j, row=True)
            self._perimeter_one(k, j, k, row=False)

    def _perimeter_one(self, k: int, bi: int, bj: int, row: bool) -> None:
        core = self.owner(bi, bj)
        # Triangular read of the diagonal block: upper half only, which
        # leaves the other half of each fetched line unread.
        for i in range(self.b):
            for j in range(i, self.b):
                self.load_double(core, self.elem(k, k, i, j))
        # Read-modify-write the perimeter block.
        for i in range(self.b):
            for j in range(self.b):
                self.load_double(core, self.elem(bi, bj, i, j))
                self.store_double(core, self.elem(bi, bj, i, j))
            self.compute(core, 4)

    def _update_interior(self, k: int) -> None:
        """Interior blocks (i, j), i,j > k: A[i][j] -= A[i][k] * A[k][j]."""
        for bi in range(k + 1, self.nblocks):
            for bj in range(k + 1, self.nblocks):
                core = self.owner(bi, bj)
                row_base = self.block_base(bi, k)
                col_base = self.block_base(k, bj)
                self.read_range(core, row_base, self.block_words)
                self.read_range(core, col_base, self.block_words)
                for i in range(self.b):
                    for j in range(self.b):
                        self.load_double(core, self.elem(bi, bj, i, j))
                        self.store_double(core, self.elem(bi, bj, i, j))
                    self.compute(core, 8)
