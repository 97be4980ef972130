"""The Gram side of one signature and the linear algebra on it.

One numpy builder (gram_lower) assembles the smaller Gram side for every
route, real when every weight is: its lower triangle as (i, j, v) triplets,
summed where two neighbours share an entry.  Only the spectrum is an
eigensolve (LAPACK's two-stage ?heevd_2stage) on one dense m x m copy.  The
log-determinant and the MMSE diagonal factor I + snr R in LAPACK's
rectangular full packed (RFP) format, m(m+1)/2 lower entries (8 m(m+1) bytes
for complex weights instead of 16 m^2) at level-3 BLAS speed: pftrf, then
tftri or pftri.  Both arrays get mappings of their own (_mapped_zeros), and
the triplets are freed before either goes to LAPACK.

Every LAPACK routine runs through _lapack at its LAPACKE entry point, bound
with ctypes (_lapacke) from the LAPACK numpy itself links, as the ILP64
scipy_LAPACKE_<name>64_ of numpy's own OpenBLAS or the LAPACKE_<name> of a
system LAPACKE.  The platform is one decision, and _lapack alone knows it:
without every routine (numpy on Accelerate), numpy.linalg does each one's
work on a dense copy (eigvalsh, cholesky, inv).  No route imports scipy.

At d = beta_d = 2 the graph is a disjoint union of cycles, and on a cycle of
L users with flux phi the Gram's eigenvalues are 2 + 2 cos((phi + 2 pi k)/L)
(Davis, Circulant Matrices, 1979), found by one walk over the edges
(_cycles); the spectrum, the log-determinant and the MMSE diagonal are then
O(m) sums and no LAPACK routine runs.  Only this module makes that choice.
"""

from __future__ import annotations

import ctypes
import functools
import math
import mmap
import sys
from collections.abc import Callable
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np

from .ensemble import SignatureMatrix
from .errors import NumericalError

__all__ = ["gram_lower", "frobenius_sq", "gram_eigenvalues", "log_det", "mmse_diagonal"]

_TRACE_TOL = 1e-10


def _pair_products(vals: np.ndarray, p: np.ndarray, q: np.ndarray, user_side: bool, out: np.ndarray) -> None:
    """Write conj(vals[:, p]) vals[:, q] (user side) or vals[:, p] conj(vals[:, q]) into out.

    Complex products are formed from real ones in place, each real product
    and sum rounded on its own as in scipy.sparse's A^H A, so an entry of one
    or two products equals that one to the bit; the temporaries are one real
    product and one gather.
    """
    if not np.iscomplexobj(vals):
        np.multiply(vals[:, p], vals[:, q], out=out)
        return
    re, im = vals.real, vals.imag
    out.real, out.imag = re[:, p], re[:, p]
    out.real *= re[:, q]
    out.imag *= im[:, q]
    cross = im[:, p]
    cross *= im[:, q]
    out.real += cross
    cross = im[:, p]
    cross *= re[:, q]
    out.imag -= cross
    if not user_side:
        np.negative(out.imag, out=out.imag)


def gram_lower(sig: SignatureMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """The unscaled smaller-side Gram's lower triangle (i >= j) as triplets (i, j, v), and whether that is the user side.

    A^H A (K x K) when K <= N, otherwise A A^H (N x N).  The two sides share
    their nonzero eigenvalues; callers apply their own scaling.  Every entry
    is a sum over the common neighbours of i and j.  Off the diagonal the
    products are formed per neighbour: on the user side for each pair of
    edges at one resource, on the resource side for each pair of edges in
    one user block.  Each group of edges is put in ascending order of its
    other end, so pairs p > q within it give i > j.  The diagonal sums |w|^2
    over each index's edges in edge order and must hold d (user side) or
    beta_d.  One sort of the keys i m + j puts the entries in row-major
    order, where those that two neighbours share (a 4-cycle) are summed, so
    (i, j) is unique.  v is real when every weight is.  The arrays are
    worked in place and the inputs freed before the sort: at (10,10) with
    complex weights the traced peak is about 45 bytes per product.
    """
    k, n, d, bd = sig.n_users, sig.n_resources, sig.d, sig.beta_d
    user_side = k <= n
    w = sig.weights if sig.weights.imag.any() else sig.weights.real
    if user_side:  # the edges at each resource, ascending, so their users ascend too
        m, degree = k, d
        groups = np.sort(np.argsort(sig.rows).reshape(n, bd), axis=1)
        idx = groups // d
    else:  # the edges of each user block in ascending resource order
        m, degree = n, bd
        groups = np.argsort(sig.rows.reshape(k, d), axis=1)
        groups += np.arange(0, k * d, d)[:, None]
        idx = sig.rows[groups]
    p, q = np.tril_indices(idx.shape[1], -1)
    n_pairs = len(idx) * len(p)
    # the pairs' keys and products, then the diagonal's, each in one array for a single sort
    key = np.empty(n_pairs + m, dtype=np.int32 if m * m < 2**31 else np.int64)
    v = np.empty(n_pairs + m, dtype=w.dtype)
    np.multiply(idx[:, p], m, out=key[:n_pairs].reshape(len(idx), len(p)), dtype=key.dtype)
    key[:n_pairs] += idx[:, q].ravel()
    _pair_products(w[groups], p, q, user_side, v[:n_pairs].reshape(len(idx), len(p)))
    del groups, idx
    key[n_pairs:] = np.arange(m, dtype=key.dtype) * (m + 1)
    v[n_pairs:] = np.bincount(sig.cols if user_side else sig.rows, weights=w.real**2 + w.imag**2, minlength=m)
    if not np.max(np.abs(v[n_pairs:] - degree)) <= _TRACE_TOL:
        raise NumericalError("trace identity violated: Gram diagonal differs from the degree")
    order = np.argsort(key)  # need not be stable: two products add alike in either order
    key = key[order]
    if np.iscomplexobj(v):  # permuted in place, one float array at a time
        v.real = v.real[order]
        v.imag = v.imag[order]
    else:
        v = v[order]
    del order
    first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    v = np.add.reduceat(v, first)
    i, j = np.divmod(key[first], m)
    return i, j, v, user_side


def frobenius_sq(i: np.ndarray, j: np.ndarray, v: np.ndarray) -> float:
    """Sum of |G_ij|^2 over the whole Hermitian matrix whose lower triangle is the triplets (i, j, v)."""
    sq = np.abs(v) ** 2
    return float(2.0 * sq.sum() - sq[i == j].sum())


def _mapped_zeros(count: int, dtype, huge_pages: bool = False) -> np.ndarray:
    """count zeros, flat, in an anonymous private mapping of their own, unmapped when the array is freed.

    The dense copy and the RFP array are the Monte Carlo routes' largest
    allocations.  glibc's malloc maps a block that large on its own, but
    freeing a mapped block of up to 32 MiB raises the dynamic mmap threshold
    (M_MMAP_THRESHOLD, mallopt(3)) to the block's size and the trim
    threshold to twice that, so the next block of that size comes from the
    brk heap and stays resident once freed: a run of trials would peak at
    the blocks glibc kept plus the largest one.  A mapping of its own
    returns to the system with the last view of the array.  On base pages
    only the pages a routine touches become resident, so the dense copy's
    upper triangle, which neither eigen driver reads, stays unbacked, where
    2 MiB pages would back it with the lower one; _eigvalsh places the copy
    in the flat array so that no column's lower part ends mid-page.  pftrf
    writes the RFP array whole, so huge_pages advises it MADV_HUGEPAGE, as
    numpy advises its own large arrays: that costs no memory, and on base
    pages the benchmark's capacity trials ran 5-11% slower.
    """
    dtype = np.dtype(dtype)
    flags = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}  # anonymous on every platform
    buf = mmap.mmap(-1, count * dtype.itemsize, **flags)
    if huge_pages and hasattr(mmap, "MADV_HUGEPAGE"):
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, dtype=dtype)


def _rfp_positions(n: int, i, j) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions of the lower entries (i, j), i >= j, of an n x n matrix in RFP, and which are conjugated.

    LAPACK's rectangular full packed format (TRANSR='N', UPLO='L'; Gustavson,
    Wasniewski, Dongarra and Langou, ACM TOMS 37(2), 2010) keeps the n(n+1)/2
    lower entries in an lda x ceil(n/2) column-major array, lda = n + 1 for
    even n and n for odd n.  The first ceil(n/2) columns are stored whole,
    one row down when n is even; the trailing lower triangle is stored
    conjugate-transposed above them.
    """
    s, n1 = 1 - n % 2, (n + 1) // 2
    i, j = np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp)
    conj = j >= n1
    return np.where(conj, (j - n1) + (i - n1 + 1 - s) * (n + s), (i + s) + j * (n + s)), conj


def _rfp_entries(arf: np.ndarray, n: int, i, j) -> np.ndarray:
    """Entries (i, j), above or below the diagonal, of the n x n Hermitian matrix whose lower triangle arf holds in RFP.

    The stored entry (max(i, j), min(i, j)) is conjugated when exactly one
    of the RFP layout and i < j flips it.  A triangular factor's diagonal
    reads the same way.
    """
    pos, conj = _rfp_positions(n, np.maximum(i, j), np.minimum(i, j))
    return np.where(conj ^ (i < j), np.conj(arf[pos]), arf[pos])


def _cholesky(sig: SignatureMatrix, snr: float) -> tuple[np.ndarray, bool]:
    """Lower Cholesky factor of I + (snr/d) G on the smaller Gram side in RFP, and whether that is the user side.

    The Gram's lower-triangle triplets (gram_lower), scaled and with 1 added
    on the diagonal, are scattered straight into a zeroed RFP array, which
    LAPACK pftrf factors in place: m(m+1)/2 entries, 8 m(m+1) bytes for
    complex weights and half that for real ones, where a full m x m copy
    would take 16 m^2.  The array has a mapping of its own on huge pages
    (_mapped_zeros), and the triplets and their positions are freed before
    pftrf runs.  Callers read the factor's diagonal through _rfp_entries.
    """
    i, j, v, user_side = gram_lower(sig)
    m = sig.n_users if user_side else sig.n_resources
    v *= snr / sig.d
    v[i == j] += 1.0
    pos, conj = _rfp_positions(m, i, j)
    arf = _mapped_zeros(m * (m + 1) // 2, v.dtype, huge_pages=True)
    arf[pos] = np.where(conj, v.conj(), v)
    del i, j, v, pos, conj
    return _lapack("pftrf", "Cholesky factorization of I + snr R", b"N", b"L", m, arf)[0], user_side


def _cycles(sig: SignatureMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Users in walk order, cycle starts in that order, and the Gram eigenvalues of a (2,2) signature.

    The graph is a disjoint union of cycles u_0 r_0 u_1 r_1 ... u_{L-1} r_{L-1}.
    A diagonal unitary gauge turns each cycle's user-side Gram into 2I plus a
    phi-twisted circulant, phi the argument of the product of
    w(u_i, r_i) conj(w(u_{i+1}, r_i)) around it, so its eigenvalues are
    2 + 2 cos((phi + 2 pi k)/L), k = 0..L-1, laid out like the users.  In
    user blocks the other edge at edge e's user is e ^ 1 and that user is
    e // 2; the other edge at its resource comes from sorting the rows.
    """
    by_res = np.argsort(sig.rows, kind="stable").reshape(-1, 2)
    other_res = np.empty(len(sig.rows), dtype=np.intp)  # the other edge at the same resource
    other_res[by_res] = by_res[:, ::-1]
    # edge (u_i, r_i) steps to (u_{i+1}, r_{i+1}); its partner e ^ 1 = (u_i, r_{i-1}) walks backwards
    step = (other_res ^ 1).tolist()
    seen = [False] * len(step)
    order, starts = [], []
    for e in range(len(step)):
        if not seen[e]:
            starts.append(len(order))
        while not seen[e]:
            seen[e] = seen[e ^ 1] = True
            order.append(e)
            e = step[e]
    order, starts = np.array(order, dtype=np.intp), np.array(starts, dtype=np.intp)
    lengths = np.diff(starts, append=len(order))
    twist = sig.weights[order] * np.conj(sig.weights[other_res[order]])
    phi = np.repeat(np.angle(np.multiply.reduceat(twist, starts)), lengths)
    k = np.arange(len(order)) - np.repeat(starts, lengths)
    theta = (phi + 2.0 * math.pi * k) / np.repeat(lengths, lengths)
    return order // 2, starts, 2.0 + 2.0 * np.cos(theta)


# each routine the routes call: its LAPACKE argument types after the layout, one letter each
# (i lapack_int, c char, p pointer), then its complex and real names
_LAPACKE_ROUTINES = {
    "pftrf": ("ccip", "zpftrf", "dpftrf"),  # (transr, uplo, n, a)
    "pftri": ("ccip", "zpftri", "dpftri"),
    "tftri": ("cccip", "ztftri", "dtftri"),  # (transr, uplo, diag, n, a)
    "heevd_2stage": ("ccipip", "zheevd_2stage", "dsyevd_2stage"),  # (jobz, uplo, n, a, lda, w)
}

# the namings numpy's LAPACK may export the routines under, in the order tried, each with its
# lapack_int: the ILP64 scipy-openblas of numpy's wheels suffixes its symbols 64_; a build that
# links a system LAPACKE has the plain names and a C int
_LAPACKE_NAMINGS = (("scipy_LAPACKE_{}64_", ctypes.c_int64), ("LAPACKE_{}", ctypes.c_int))

# without LAPACKE, the numpy.linalg function that does each routine's work on a dense copy
_NUMPY_LINALG = {"pftrf": "cholesky", "pftri": "inv", "tftri": "inv", "heevd_2stage": "eigvalsh"}


def _numpy_extension() -> str | None:
    """Path of numpy's _multiarray_umath extension, which links numpy's BLAS and LAPACK.

    `import numpy` has loaded it, as numpy._core._multiarray_umath on
    numpy 2 and numpy.core._multiarray_umath on numpy 1.x; the other name,
    if loaded, is a Python stub.
    """
    for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        path = getattr(sys.modules.get(name), "__file__", None) or ""
        if path.endswith(tuple(EXTENSION_SUFFIXES)):
            return path
    return None


@functools.cache
def _lapacke() -> dict[str, Callable[..., int]] | None:
    """Every LAPACKE routine the routes call, in both precisions, as ctypes functions returning info, by name.

    Bound on first call from the LAPACK numpy itself links, opened by the
    path of numpy's already loaded extension (dlsym also searches its
    dependencies), under the first of _LAPACKE_NAMINGS that exports all of
    them, so no route imports scipy or maps a second BLAS.  On a 2-vCPU host
    numpy's ILP64 OpenBLAS 0.3.31 ran the m = 2000 eigensolve 3% (complex)
    to 7% (real) slower than scipy's LP64 0.3.30 (BENCH_32.json).  None if
    neither naming has every routine: the platform is decided once, and only
    _lapack asks whether this is None.
    """
    path = _numpy_extension()
    if path is None:
        return None
    lib = ctypes.CDLL(path)
    for symbol, lapack_int in _LAPACKE_NAMINGS:
        types = {"i": lapack_int, "c": ctypes.c_char, "p": ctypes.c_void_p}
        bound = {}
        for args, *names in _LAPACKE_ROUTINES.values():
            for name in names:
                fn = bound[name] = getattr(lib, symbol.format(name), None)
                if fn is not None:
                    fn.argtypes = [ctypes.c_int] + [types[t] for t in args]  # the layout is a C int
                    fn.restype = lapack_int
        if None not in bound.values():
            return bound
    return None


def _rfp_view(arf: np.ndarray, n: int) -> tuple[np.ndarray, int, int]:
    """(b, s, n1): arf as its lda x n1 column-major array b, lda = n + s, s = 1 - n % 2, n1 = ceil(n/2)."""
    s, n1 = 1 - n % 2, (n + 1) // 2
    return arf.reshape(-1, n + s).T, s, n1


def _rfp_columns(arf: np.ndarray, n: int):
    """(j, x, conj) for each column j of the n x n lower triangle that arf holds in RFP (_rfp_positions).

    x is the view of arf holding entries j.. of column j, conjugated when
    conj.  In the array b of _rfp_view the leading n1 columns run down its
    columns from row s, and the trailing triangle's columns run conjugated
    along its first rows, above them, as mmse_diagonal's tftri panels read them.
    """
    b, s, n1 = _rfp_view(arf, n)
    for j in range(n1):
        yield j, b[j + s :, j], False
    for j in range(n - n1):
        yield n1 + j, b[j, j + 1 - s : n + 1 - s - n1], True


def _numpy_linalg(routine: str, n: int, a: np.ndarray, *rest) -> None:
    """Do routine's work with numpy.linalg (_NUMPY_LINALG) and write its result where LAPACK writes it.

    The RFP routines unpack the lower triangle in a (_rfp_columns) to a
    dense copy with zeros above, pass it to cholesky (pftrf) or inv (tftri;
    pftri forms inv(L)^H inv(L)) and pack the result's lower triangle back
    into a.  heevd_2stage writes the eigenvalues into w, its last argument.
    """
    if routine == "heevd_2stage":
        rest[-1][:] = np.linalg.eigvalsh(a)
        return
    low = np.zeros((n, n), dtype=a.dtype, order="F")
    for j, x, conj in _rfp_columns(a, n):
        low[j:, j] = x.conj() if conj else x
    if routine == "pftrf":
        low = np.linalg.cholesky(low)
    else:
        low = np.linalg.inv(low)
        if routine == "pftri":
            low = low.conj().T @ low
    for j, x, conj in _rfp_columns(a, n):
        x[:] = low[j:, j].conj() if conj else low[j:, j]


def _lapack(routine: str, failure: str, *args) -> tuple[np.ndarray, str]:
    """Run LAPACK routine in column-major order: (the array it overwrote, the name that ran).

    args are LAPACKE's arguments after the layout, arrays passed as
    themselves; the first array is the matrix the routine overwrites, and its
    dtype picks the complex or the real name (_LAPACKE_ROUTINES).  info != 0
    raises NumericalError "<failure> failed (<name> info <info>)".  This is
    the only reader of _lapacke(): without LAPACKE numpy.linalg does the
    routine's work (_numpy_linalg), its name is the one that ran, and its
    LinAlgError raises "<failure> failed (numpy.linalg.<name>: <message>)".
    """
    k, a = next((k, x) for k, x in enumerate(args) if isinstance(x, np.ndarray))
    lapacke = _lapacke()
    if lapacke is None:
        name = _NUMPY_LINALG[routine]
        try:
            _numpy_linalg(routine, args[k - 1], *args[k:])  # n precedes a in every routine
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"{failure} failed (numpy.linalg.{name}: {exc})") from None
        return a, name
    name = _LAPACKE_ROUTINES[routine][1 if np.iscomplexobj(a) else 2]
    info = lapacke[name](102, *(x.ctypes.data if isinstance(x, np.ndarray) else x for x in args))
    if info != 0:
        raise NumericalError(f"{failure} failed ({name} info {info})")
    return a, name


def _dense_lower(m: int, i: np.ndarray, j: np.ndarray, v: np.ndarray, scale: float) -> np.ndarray:
    """The m x m Hermitian G / scale as a column-major copy holding only its lower triangle.

    G is given by its lower triangle as triplets (i, j, v), i >= j, the form
    gram_lower returns; both eigen drivers read only that triangle, so the
    upper one stays zero.  The copy, 16 m^2 bytes for complex weights, has a
    mapping of its own on base pages (_mapped_zeros), so only the pages the
    lower triangle spans become resident.  Its leading dimension is m
    rounded up to a whole page of elements (256 complex or 512 real values
    on 4 KiB pages) and it starts lda - m elements into the mapping, so
    every column's lower part ends on a page boundary and only its first
    page is partly outside the triangle: at m = 2000 with complex weights
    34.5 MiB of pages become resident for a 30.5 MiB triangle, where lda = m
    touched 37.6 MiB.  The eigenvalues do not depend on lda.
    """
    # the drivers read a as float64 or complex128 in column-major order
    dtype = np.dtype(complex if np.iscomplexobj(v) else float)
    pad = -m % (mmap.PAGESIZE // dtype.itemsize)
    lda = m + pad
    a = _mapped_zeros(pad + lda * m, dtype)[pad:].reshape((lda, m), order="F")[:m]
    # by the reciprocal, as scipy.sparse scales: at exactly degenerate eigenvalues a last-digit
    # change of an entry can move a KS distance by about 1e-8
    a[i, j] = v * (1.0 / scale)
    return a


def _eigvalsh(a: np.ndarray) -> tuple[np.ndarray, str]:
    """Ascending eigenvalues of the Hermitian matrix whose lower triangle _dense_lower put in a, and the driver that ran.

    LAPACK's two-stage ?heevd_2stage overwrites a; numpy.linalg.eigvalsh,
    the driver _lapack runs without LAPACKE, reads it.
    """
    m, lda = len(a), a.strides[1] // a.itemsize
    w = np.empty(m)  # eigenvalues only, lower triangle
    return w, _lapack("heevd_2stage", "eigensolve", b"N", b"L", m, a, lda, w)[1]


def gram_eigenvalues(sig: SignatureMatrix) -> tuple[np.ndarray, str]:
    """Ascending eigenvalues of the resource-side (1/d) A A^H, one per resource, and the driver that ran.

    The two Gram sides share nonzero eigenvalues, so the decomposition runs
    on the smaller side and zeros are padded back when users are fewer.
    The driver is "cycles" at d = beta_d = 2, where every eigenvalue is
    1 + cos((phi + 2 pi k)/L) of its cycle (exactly 2 and 0 at phi = 0);
    otherwise LAPACK's two-stage driver in place on the one dense copy, else
    numpy.linalg.eigvalsh, both backward stable (errors about N ulp of the
    largest eigenvalue).  The dense copy is filled from the triplets
    (gram_lower), which also give the squared Frobenius norm: the mean and
    the sum of squares of the eigenvalues are checked against the trace and
    that norm.  The norm is taken first, so the triplets are freed before
    the eigensolve runs.
    """
    n, k = sig.n_resources, sig.n_users
    i, j, v, _ = gram_lower(sig)
    frobenius = frobenius_sq(i, j, v) / sig.d**2
    if sig.d == sig.beta_d == 2:
        eigs, driver = _cycles(sig)[2] / sig.d, "cycles"
    else:
        a = _dense_lower(min(n, k), i, j, v, sig.d)
        del i, j, v
        eigs, driver = _eigvalsh(a)
    if k < n:
        eigs = np.concatenate([np.zeros(n - k), eigs])
    # the Gram matrix is PSD; negatives are eigensolver noise
    eigs = np.sort(np.clip(eigs, 0.0, None))
    beta = sig.beta_d / sig.d
    if abs(float(np.mean(eigs)) - beta) > _TRACE_TOL:
        raise NumericalError("trace identity violated: mean eigenvalue differs from beta")
    if abs(float(np.sum(eigs**2)) - frobenius) > _TRACE_TOL * frobenius:
        raise NumericalError("trace identity violated: squared eigenvalues do not sum to ||G||_F^2/d^2")
    return eigs, driver


def log_det(sig: SignatureMatrix, snr: float) -> float:
    """log det(I + (snr/d) G) in nats on the smaller Gram side; no eigensolve runs.

    At d = beta_d = 2 the sum of log1p(snr mu / d) over the cycle eigenvalues
    mu of G, otherwise 2 sum log L_ii over the diagonal of the Cholesky
    factor L, held in RFP (_cholesky).
    """
    if sig.d == sig.beta_d == 2:
        return float(np.log1p(snr / sig.d * _cycles(sig)[2]).sum())
    i = np.arange(min(sig.n_users, sig.n_resources))
    low = _rfp_entries(_cholesky(sig, snr)[0], len(i), i, i).real
    return float(2.0 * np.log(low).sum())


def mmse_diagonal(sig: SignatureMatrix, snr: float) -> np.ndarray:
    """Per-user MMSE values diag((I + snr R)^{-1}), R = (1/d) A^H A, unchecked.

    At d = beta_d = 2 the gauge that makes each cycle's Gram circulant leaves
    the diagonal of the inverse constant on the cycle: every user on it gets
    (1/L) sum_k 1/(1 + (snr/d) mu_k) over the cycle's Gram eigenvalues mu_k.
    Otherwise M = I + (snr/d) G on the smaller Gram side is factored in RFP
    (_cholesky), and with LAPACKE no m x m array is formed.  When K <= N the
    factor is inverted in place (tftri) and user k's MMSE is |column k of
    L^{-1}|^2, re^2 + im^2 summed in panels of at most 64 RFP columns (about
    1 MB of temporaries at m = 2000).  When K > N, pftri gives M^{-1} and user
    k's MMSE is 1 - (snr/d) a_k^H M^{-1} a_k, from the d(d+1)/2 entries
    (_rfp_entries) that user k's resources pick out.
    """
    c = snr / sig.d
    k, d, panel = sig.n_users, sig.d, 64
    diag = np.zeros(k)
    if sig.d == sig.beta_d == 2:
        users, starts, mu = _cycles(sig)
        lengths = np.diff(starts, append=k)
        diag[users] = np.repeat(np.add.reduceat(1.0 / (1.0 + c * mu), starts) / lengths, lengths)
        return diag
    arf, user_side = _cholesky(sig, snr)
    m = k if user_side else sig.n_resources
    if user_side:
        _lapack("tftri", "inverting the Cholesky factor", b"N", b"L", b"N", m, arf)  # overwrites arf
        # column j < n1 of L^{-1} runs down b[j + s:, j], column n1 + j' along b[j', j' + 1 - s:]
        b, s, n1 = _rfp_view(arf, m)
        for start in range(0, n1, panel):
            x = b[:, start : start + panel]
            sq = x.real * x.real
            if np.iscomplexobj(x):
                sq += x.imag * x.imag
            upper = np.triu(sq[: m - n1], 1 - s - start)
            diag[n1:] += upper.sum(axis=1)
            sq[: m - n1] -= upper  # exact: leaves zeros where the trailing triangle was
            diag[start : start + sq.shape[1]] = sq.sum(axis=0)  # stops at n1
        return diag
    inv = _lapack("pftri", "inverting I + snr R", b"N", b"L", m, arf)[0]
    rows, w = sig.rows.reshape(k, d), sig.weights.reshape(k, d)
    quad = np.zeros(k)
    for p in range(d):
        for q in range(p, d):  # a pair p < q stands for (q, p) too
            x = _rfp_entries(inv, m, rows[:, p], rows[:, q])
            quad += (1.0 if p == q else 2.0) * (np.conj(w[:, p]) * w[:, q] * x).real
    return 1.0 - c * quad
