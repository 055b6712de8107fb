"""Real Clifford representation data for Heisenberg-type endomorphism spaces.

Generators are integer matrices (entries in {-1, 0, +1}) so the
anticommutation relations can be checked exactly.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "SizeCapExceeded",
    "CliffordModule",
    "EndomorphismSpace",
    "irreducible_dimension",
    "build_generators",
    "endomorphism_space",
]

# largest block dimension n_l that build_generators builds; read at each call
DEFAULT_SIZE_CAP = 4096

# n_l for l = 8p + r is 2^(4p) times this table indexed by r
_RESIDUE_EXPONENT = (0, 1, 2, 2, 3, 3, 3, 3)


class SizeCapExceeded(RuntimeError):
    """Requested irreducible block dimension exceeds the configured cap."""


def irreducible_dimension(l):
    """Dimension n_l of the irreducible module for an l-dimensional Z-space.

    Follows the mod-8 classification table: for l = 8p + r the dimension is
    2^(4p) * (1, 2, 4, 4, 8, 8, 8, 8)[r].
    """
    if l < 0:
        raise ValueError("l must be non-negative")
    p, r = divmod(l, 8)
    return 2 ** (4 * p + _RESIDUE_EXPONENT[r])


@lru_cache(maxsize=None)
def _cayley_dickson_table(dim):
    """Multiplication table of the Cayley-Dickson algebra of dimension dim.

    Returns T with T[i, j, :] = e_i * e_j in the basis e_0..e_{dim-1}
    (e_0 is the unit).  dim must be a power of two; dim = 2, 4, 8 give the
    complex numbers, quaternions and octonions.  The table is cached and
    read-only.
    """
    if dim == 1:
        table = np.ones((1, 1, 1), dtype=np.int64)
        table.flags.writeable = False
        return table
    half = dim // 2
    sub = _cayley_dickson_table(half)

    def conj(v):
        w = -v.copy()
        w[0] = v[0]
        return w

    def mul(u, v):
        a, b = u[:half], u[half:]
        c, d = v[:half], v[half:]
        # (a,b)(c,d) = (ac - conj(d) b, d a + b conj(c))
        ac = np.einsum("i,j,ijk->k", a, c, sub)
        db = np.einsum("i,j,ijk->k", conj(d), b, sub)
        da = np.einsum("i,j,ijk->k", d, a, sub)
        bc = np.einsum("i,j,ijk->k", b, conj(c), sub)
        return np.concatenate([ac - db, da + bc])

    table = np.zeros((dim, dim, dim), dtype=np.int64)
    eye = np.eye(dim, dtype=np.int64)
    for i in range(dim):
        for j in range(dim):
            table[i, j] = mul(eye[i], eye[j])
    table.flags.writeable = False
    return table


def _left_multiplications(dim, count):
    """Left-multiplication matrices of the first `count` imaginary units."""
    table = _cayley_dickson_table(dim)
    mats = []
    for u in range(1, count + 1):
        # column j of L_u is e_u * e_j
        mats.append(np.ascontiguousarray(table[u, :, :].T))
    return mats


# 2x2 blocks used in the doubling steps
_J2 = np.array([[0, -1], [1, 0]], dtype=np.int64)
_L2 = np.array([[1, 0], [0, -1]], dtype=np.int64)


def _double(gens, n):
    """One doubling step: l anticommuting structures on R^n -> l+1 on R^2n."""
    eye = np.eye(n, dtype=np.int64)
    out = [np.kron(g, _L2) for g in gens]
    out.append(np.kron(eye, _J2))
    return out


def build_generators(l):
    """Construct generators j_1..j_l of an irreducible module on R^{n_l}.

    l = 1..3 are realized on the complex numbers / quaternions by left
    multiplication with imaginary units (so l = 3 is the quaternion
    representation on the basis (1, i, j, k)); l = 4..7 use octonion left
    multiplications; l = 8 doubles the octonion set; l > 8 follows the
    period-8 tensor recursion.  Deterministic, integer entries.  The
    module is built and checked once per l and shared: repeated calls
    return the same object, whose generators are read-only.  Raises
    SizeCapExceeded when n_l exceeds DEFAULT_SIZE_CAP, before the cache is
    consulted.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    n = irreducible_dimension(l)
    if n > DEFAULT_SIZE_CAP:
        raise SizeCapExceeded(f"n_{l} = {n} exceeds size cap {DEFAULT_SIZE_CAP}")
    return _irreducible_module(l)


@lru_cache(maxsize=None)
def _irreducible_module(l):
    if l == 1:
        gens = _left_multiplications(2, 1)
    elif l <= 3:
        gens = _left_multiplications(4, l)
    elif l <= 7:
        gens = _left_multiplications(8, l)
    elif l == 8:
        gens = _double(_left_multiplications(8, 7), 8)
    else:
        base = _irreducible_module(l - 8).generators
        eight = _irreducible_module(8).generators
        # volume element of the l=8 block: symmetric involution that
        # anticommutes with every generator of that block
        w = eight[0]
        for g in eight[1:]:
            w = w @ g
        m = base[0].shape[0]
        gens = [np.kron(g, w) for g in base]
        eye = np.eye(m, dtype=np.int64)
        gens += [np.kron(eye, b) for b in eight]

    return CliffordModule(l=l, n=irreducible_dimension(l), generators=gens)


@dataclass(frozen=True)
class CliffordModule:
    """Irreducible Clifford module: l generators acting on R^n.

    The generators are stored as a tuple of read-only copies, so the
    relations checked on construction hold for the module's lifetime.
    """

    l: int
    n: int
    generators: tuple = field(repr=False)

    def __post_init__(self):
        gens = tuple(np.array(g) for g in self.generators)
        for g in gens:
            g.flags.writeable = False
        object.__setattr__(self, "generators", gens)
        if len(self.generators) != self.l:
            raise ValueError("generator count does not match l")
        for g in self.generators:
            if g.shape != (self.n, self.n):
                raise ValueError("generator has wrong shape")
        errs = self.anticommutation_residual()
        if errs != 0:
            raise ValueError(f"generators violate Clifford relations (max error {errs})")
        if self.n != irreducible_dimension(self.l):
            raise ValueError("n does not match the classification table")

    def anticommutation_residual(self):
        """Exact max deviation of j_a j_b + j_b j_a from -2 delta_ab I."""
        eye = np.eye(self.n, dtype=np.int64)
        worst = 0
        for a, ja in enumerate(self.generators):
            if np.abs(ja + ja.T).max() != 0:
                return int(np.abs(ja + ja.T).max())
            for b, jb in enumerate(self.generators[: a + 1]):
                target = -2 * eye if a == b else 0 * eye
                worst = max(worst, int(np.abs(ja @ jb + jb @ ja - target).max()))
        return worst

    def j(self, Z):
        """j_Z = sum_a Z_a j_a on the irreducible block."""
        Z = np.asarray(Z, dtype=float)
        if Z.shape != (self.l,):
            raise ValueError(f"Z must have length {self.l}")
        return np.tensordot(Z, np.stack(self.generators), axes=1)

    def to_json_dict(self):
        return {
            "l": self.l,
            "n": self.n,
            "generators": [g.tolist() for g in self.generators],
        }


@dataclass(frozen=True)
class EndomorphismSpace:
    """Reducible Clifford endomorphism space with block signs (+1)^a (-1)^b.

    J_Z acts block-diagonally with a copies of j_Z followed by b copies
    of -j_Z on R^k, k = (a+b) n_l.
    """

    a: int
    b: int
    module: CliffordModule

    def __post_init__(self):
        if self.a < 0 or self.b < 0 or self.a + self.b < 1:
            raise ValueError("need a, b >= 0 with a + b >= 1")

    @property
    def l(self):
        return self.module.l

    @property
    def k(self):
        return (self.a + self.b) * self.module.n

    @property
    def signs(self):
        return [1] * self.a + [-1] * self.b

    def basis_matrices(self):
        """The k x k matrices J_{e_1}..J_{e_l} (float)."""
        blocks = []
        for g in self.module.generators:
            blocks.append(_block_diag_signed(g, self.signs))
        return blocks

    def J(self, Z):
        """Block-diagonal J_Z on R^k; linear in Z, satisfies J_Z^2 = -|Z|^2 I."""
        jz = self.module.j(Z)
        return _block_diag_signed(jz, self.signs)

    def to_json_dict(self):
        return {"l": self.l, "a": self.a, "b": self.b, "k": self.k}


def _block_diag_signed(block, signs):
    n = block.shape[0]
    m = len(signs)
    out = np.zeros((m * n, m * n), dtype=block.dtype)
    for i, s in enumerate(signs):
        out[i * n : (i + 1) * n, i * n : (i + 1) * n] = s * block
    return out


def endomorphism_space(l, a, b):
    """Build H-type endomorphism data J_l^(a,b) from scratch."""
    return EndomorphismSpace(a=a, b=b, module=build_generators(l))
