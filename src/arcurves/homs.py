"""Hom spaces between graded modules, and the homs in them.

A homomorphism of degree d from cok(A) to cok(B) is a matrix H with
rows B.rows and columns A.rows + d, sending the j-th generator to
sum_i H[i][j] times the i-th generator of the target.  A hom is kept
as its coordinates in its hom space, a canonical basis from reduced
row echelon form, so identical input yields identical output.

This is the middle of three layers: it reads the modules of matfact
and nothing of modmat.
"""

from __future__ import annotations

from .errors import InputError
from .linalg import kernel_sparse
from .matfact import GradedMatrix, GradedModule, _canonical
from .ring import WPoly


class GradedHom:
    """A homomorphism cok(A) -> cok(B) of fixed degree: its coordinates in
    its hom space, and its matrix H, made from them on every read; sums
    and products of homs are homs, so arithmetic stays on coordinates."""

    __slots__ = ("space", "source", "target", "degree", "coords",
                 "_branch_coeffs")

    def __init__(self, space, coords):
        self.space = space
        self.source, self.target = space.source, space.target
        self.degree = space.degree
        self.coords = coords
        self._branch_coeffs = {}

    @property
    def H(self) -> GradedMatrix:
        return self.space._matrix(self.coords)

    def _coefficients(self, branch):
        """C_b(H), the constant matrix of branch leading coefficients,
        read off the coordinates: entry (i, j) is the sum of c times the
        branch image of the monomial of each coordinate c at (i, j)
        (HomSpace._images), so no matrix H is built.  Made once per
        branch."""
        C = self._branch_coeffs.get(branch)
        if C is None:
            images = self.space._images(branch)
            sums: dict = {}
            for t, c in self.coords:
                hit = images.get(t)
                if hit is not None:
                    entry, v = hit
                    sums[entry] = sums.get(entry, 0) + c * v
            C = [[0] * len(self.source.gens) for _ in self.target.gens]
            for (i, j), v in _canonical(sums, self.source.ring.field).items():
                C[i][j] = v
            self._branch_coeffs[branch] = C
        return C

    def scalar_part(self) -> dict:
        """The scalar part of H (see _scalar_part) as {(i, j): c}, read
        off the coordinates at the constant monomial."""
        constants = self.space._constants
        return {constants[t]: c for t, c in self.coords if t in constants}

    def is_zero(self) -> bool:
        return not self.coords

    def __eq__(self, other):
        if not isinstance(other, GradedHom):
            return NotImplemented
        return (self.source is other.source and self.target is other.target
                and self.degree == other.degree and self.coords == other.coords)

    def __hash__(self):
        raise TypeError("GradedHom is unhashable")

    def compose(self, first: "GradedHom") -> "GradedHom":
        """self after first."""
        if first.target is not self.source:
            raise InputError("composition chain mismatch")
        space = hom_graded(first.source, self.target,
                           self.degree + first.degree)
        return space._hom(space.coords_of(self.H.mul(first.H)))

    def __add__(self, other):
        if (self.source is not other.source or self.target is not other.target
                or self.degree != other.degree):
            raise InputError("cannot add homs from different spaces")
        return self.space._hom(_combine(((1, self.coords), (1, other.coords)),
                                        self.space))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, value):
        return self.space._hom(_combine(((value, self.coords),), self.space))

    def times_monomial(self, i: int, j: int) -> "GradedHom":
        """The hom multiplied by the monomial x^i y^j (degree rises): each
        coordinate c at (r, s, x^a y^b) adds c times the target's table
        row of x^(a+i) y^(b+j) e_r to column s of the raised space."""
        ring = self.source.ring
        space = hom_graded(self.source, self.target,
                           self.degree + ring.wdeg(i, j))
        entries, table = self.space._entry_list, self.target._monomial_coords
        out: dict = {}
        for t, c in self.coords:
            r, s, (a, b) = entries[t]
            flat = space._flat[s]
            for tt, v in table(r, (a + i, b + j)).items():
                key = flat[tt]
                out[key] = out.get(key, 0) + c * v
        return space._hom(_freeze(_canonical(out, ring.field)))

    def __repr__(self):
        return (f"GradedHom(deg={self.degree}, "
                f"{self.source!r} -> {self.target!r})")


class HomSpace:
    """The k-vector space of degree-d homomorphisms between two modules.

    Hom(cok A, N)_d is the kernel of precomposition X -> X A on the sum
    of the pieces N_(w_j + d) over the generator degrees w_j of cok A
    (see _precomposition).  Its vectors live on the nonpivot coordinates
    of N, so they are already reduced modulo N's relations.  The basis
    is the one kernel_sparse reads off the map's RREF with the columns
    keyed in decreasing flat coordinate of a hom matrix: the vector of
    free column f is 1 at f and elsewhere nonzero only at pivot columns
    left of f, so at larger flat coordinates, and at no free column.  So
    in flat coordinates the basis, reversed, is in reduced row echelon
    form, and is the canonical basis by uniqueness of the RREF.  The
    space keeps it once, as frozen coordinates, and basis makes its homs
    when read: a hom refers to its space, so a space that held its homs
    would sit in a reference cycle with them, freed only by a full
    garbage collection.
    """

    def __init__(self, source: GradedModule, target: GradedModule, degree: int):
        self.source = source
        self.target = target
        self.degree = degree
        ring = source.ring
        # Coordinates of a hom matrix flattened row-major: entry (i, j)
        # runs over the monomials of degree ws + degree - wt.
        entry_index = {}
        entry_list = []
        for i, wt in enumerate(target.gens):
            for j, ws in enumerate(source.gens):
                for mono in ring.graded_piece(ws + degree - wt):
                    entry_index[(i, j, mono)] = len(entry_list)
                    entry_list.append((i, j, mono))
        self._entry_list = entry_list
        # _constants[t]: the entry (i, j) whose constant monomial is
        # flat coordinate t.
        self._constants = {entry_index[(i, j, mono)]: (i, j)
                           for i, j, mono in entry_list if mono == (0, 0)}
        # _flat[j][t]: flat coordinate of the t-th ambient basis element
        # of the target in degree w_j + degree, as column j.
        self._flat = [[entry_index[(i, j, mono)]
                       for i, mono in target.ambient_basis(ws + degree)]
                      for j, ws in enumerate(source.gens)]

        variables, rows = _precomposition(source.matrix, target, degree)
        flat = [self._flat[j][t] for j, t in variables]
        # column k of the kernel: the k-th largest flat coordinate
        by_flat = sorted(flat, reverse=True)
        column = {f: k for k, f in enumerate(by_flat)}
        kernel = kernel_sparse(
            ({column[flat[v]]: c for v, c in row.items()} for row in rows),
            len(flat), ring.field)
        self._basis = [_freeze({by_flat[k]: c for k, c in vec.items()})
                       for vec in reversed(kernel)]
        self._branch_images: dict = {}
        self._stably_zero = None  # modmat._stably_zero_span

    @property
    def basis(self):
        """The canonical basis, as new homs on every read."""
        return [GradedHom(self, coords) for coords in self._basis]

    @property
    def dim(self) -> int:
        return len(self._basis)

    def _hom(self, coords) -> GradedHom:
        """The hom with these frozen coordinates; the caller certifies it."""
        return GradedHom(self, coords)

    def _matrix(self, coords) -> GradedMatrix:
        ring = self.source.ring
        ents = [[dict() for _ in self.source.gens] for _ in self.target.gens]
        for t, c in coords:
            i, j, mono = self._entry_list[t]
            ents[i][j][mono] = c
        polys = [[WPoly(ring.field, ring.q, ring.p, e) for e in row]
                 for row in ents]
        return GradedMatrix(ring, self.target.gens,
                            tuple(w + self.degree for w in self.source.gens),
                            polys)

    def _images(self, branch) -> dict:
        """{flat coordinate: ((i, j), branch image of its monomial)} for
        the monomials that do not vanish on the branch, read off
        Branch.piece_row block by block in the order of _entry_list;
        made once per branch."""
        images = self._branch_images.get(branch)
        if images is None:
            images = self._branch_images[branch] = {}
            ring = self.source.ring
            t = 0
            for i, wt in enumerate(self.target.gens):
                for j, ws in enumerate(self.source.gens):
                    w = ws + self.degree - wt
                    for k, v in branch.piece_row(w)[0].items():
                        images[t + k] = ((i, j), v)
                    t += len(ring.graded_piece(w))
        return images

    def coords_of(self, H: GradedMatrix):
        """Canonical coordinates of a hom matrix, in normal form or not."""
        return _freeze(self._coords(
            ((i, j, e) for i, row in enumerate(H.entries)
             for j, e in enumerate(row) if not e.is_zero()), (0, 0)))

    def _coords(self, entries, shift) -> dict:
        """The coordinates of x^a y^b times a matrix given by its nonzero
        entries (i, j, poly), (a, b) = shift: entry (i, j) is read by the
        target's accumulator in degree w_j + degree into column j."""
        gens, d = self.source.gens, self.degree
        out: dict = {}
        for i, j, poly in entries:
            self.target._accumulate(out, i, poly, gens[j] + d, shift,
                                    self._flat[j])
        return _canonical(out, self.source.ring.field)

    def from_matrix(self, H: GradedMatrix) -> GradedHom:
        """The hom given by a matrix from outside the hom layer, certified
        a hom by membership of its coordinates v in this space's span: as
        basis vector b_i alone is nonzero at its pivot, v lies in the
        span exactly when v = sum v[pivot_i] b_i."""
        hom = self._hom(self.coords_of(H))
        if hom_from_coefficients(self, self.expand(hom)) != hom:
            raise InputError("matrix does not define a homomorphism here")
        return hom

    def zero(self) -> GradedHom:
        return self._hom(())

    def expand(self, hom: GradedHom):
        """Coefficients of a hom of this space in the canonical basis."""
        vec = dict(hom.coords)
        K = self.source.ring.field
        # a basis vector's first coordinate is its pivot
        return [vec.get(coords[0][0], K.zero) for coords in self._basis]

    def __repr__(self):
        return (f"HomSpace(dim={self.dim}, deg={self.degree}, "
                f"{self.source!r} -> {self.target!r})")


def _freeze(vec: dict):
    return tuple(sorted(vec.items()))


def hom_graded(source: GradedModule, target: GradedModule,
               degree: int) -> HomSpace:
    key = (id(target), degree)
    cached = source._hom_cache.get(key)
    if cached is not None and cached[0] is target:
        return cached[1]
    space = HomSpace(source, target, degree)
    source._hom_cache[key] = (target, space)
    return space


def drop_hom_graded(source: GradedModule, target: GradedModule,
                    degree: int) -> None:
    """Forget the space hom_graded cached for these arguments, and the
    stably zero span kept on it.  A hom of the space keeps the space
    alive; the next hom_graded call builds it again."""
    cached = source._hom_cache.pop((id(target), degree), None)
    if cached is not None:
        cached[1]._stably_zero = None


def hom_from_coefficients(space: HomSpace, coeffs) -> GradedHom:
    return space._hom(_combine(zip(coeffs, space._basis), space))


def _combine(terms, space: HomSpace):
    """Frozen coordinates of sum c h over the (c, h.coords) pairs, h in
    space."""
    out: dict = {}
    for c, coords in terms:
        for t, v in coords:
            out[t] = out.get(t, 0) + c * v
    return _freeze(_canonical(out, space.source.ring.field))


def _precomposition(A: GradedMatrix, N: GradedModule, d: int):
    """The map X -> X A from Hom(F(A.rows), N)_d to Hom(F(A.cols), N)_d.

    Variable (i, t) sends generator i to the t-th nonpivot basis element
    of N_(A.rows[i] + d).  Returns the variables and the rows of the map,
    one per (column of A, coordinate in N); the kernel is Hom(cok A, N)_d.
    """
    K = A.ring.field
    variables = [(i, t) for i, w in enumerate(A.rows)
                 for t in N.nonpivot_basis(w + d)]
    rows: dict = {}
    for v, (i, t) in enumerate(variables):
        gen, mono = N.ambient_basis(A.rows[i] + d)[t]
        for j, e in enumerate(A.entries[i]):
            if e.is_zero():
                continue
            image: dict = {}
            N._accumulate(image, gen, e, A.cols[j] + d, mono)
            for tt, c in _canonical(image, K).items():
                rows.setdefault((j, tt), {})[v] = c
    return variables, list(rows.values())
