"""Negacyclic NTT arithmetic modulo a stack of word-sized primes.

Everything a leveled RLWE scheme needs from the ring Z_q[X]/(X^N + 1) for
an RNS chain of primes q_0..q_{L-1}: vectorized Montgomery multiplication
over uint64 numpy arrays, prime generation with q = 1 (mod 2N), and
iterative forward/inverse transforms with bit-reversed twiddle tables.
Pointwise products of transformed polynomials realize negacyclic
convolution.

CKKS (``ckks``) uses the pointwise arithmetic and the primes, but no
transform: its one ring product is an exact float FFT product.  The
transforms serve the benchmark harness's kernel timings and the tests,
where the NTT product is the oracle for that FFT product.  A field builds
its twiddle tables on its first transform, so a field that never runs one
never builds them.

A ``PrimeField`` works on ``(..., L, N)`` arrays, one row per prime, so a
single call transforms every row of every polynomial it is given: each
numpy call covers the whole batch instead of one 8192-coefficient row.
The butterflies multiply by their twiddles with Shoup's precomputed
quotients (Harvey, "Faster arithmetic for number-theoretic transforms",
2014) and keep values lazily reduced in [0, 4q) between stages; every
reduction is ``np.minimum(r, r - k*q)``, which is exact while 4q < 2^64.

Memory order (after Bailey, "FFTs in external or hierarchical memory",
1990): a stage pairs values t apart, and a numpy call over the natural
``(..., m, 2, t)`` view iterates over runs only t long.  So the stages with
t < B, where B = min(64, N/2), run on a block-transposed copy: row r of the
``(N/B, B)`` view becomes column r of a ``(B, N/B)`` array, and a butterfly
there pairs whole rows, N/B contiguous values at a time.  ``ntt`` transposes
before those stages and back after them; ``intt`` runs them first and
transposes back before the long-stride ones.  The twiddle segment
``[m, 2m)`` of each such stage is stored in the order that layout reads it,
``(B/2t, N/B)``-major, in the same table as the other stages.  The values
and every operation on them are those of the natural order, so the output
is bit for bit the same.

Products by a fixed multiplier, such as a CKKS secret or a scalar, go
through ``mul_shoup`` with the multiplier's ``ShoupTable``, built once.
"""

from __future__ import annotations

import functools
import math

import numpy as np

MASK32 = np.uint64(0xFFFFFFFF)
SHIFT32 = np.uint64(32)

# deterministic Miller-Rabin witnesses for n < 2^64
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_ntt_primes(bit_sizes, poly_degree: int) -> list[int]:
    """Distinct primes, one per requested bit size, each = 1 mod 2N and < 2^62."""
    step = 2 * poly_degree
    found: list[int] = []
    for bits in bit_sizes:
        if not 20 <= bits <= 61:
            raise ValueError(f"modulus bit size {bits} outside supported range [20, 61]")
        # largest c <= 2^bits with c = 1 (mod 2N)
        candidate = (1 << bits) - ((1 << bits) - 1) % step
        while candidate > (1 << (bits - 1)):
            if candidate not in found and is_prime(candidate):
                found.append(candidate)
                break
            candidate -= step
        else:
            raise ValueError(f"no {bits}-bit NTT prime for degree {poly_degree}")
    return found


def _find_psi(q: int, n: int) -> int:
    # primitive 2n-th root of unity: psi^n = -1 (mod q)
    exponent = (q - 1) // (2 * n)
    for g in range(2, 1000):
        psi = pow(g, exponent, q)
        if pow(psi, n, q) == q - 1:
            return psi
    raise ValueError(f"no primitive 2n-th root found for q={q}")


def _bit_reverse_indices(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.uint64)
    rev = np.zeros(n, dtype=np.uint64)
    for _ in range(bits):
        rev = (rev << np.uint64(1)) | (idx & np.uint64(1))
        idx >>= np.uint64(1)
    return rev.astype(np.int64)


def _powers(base: int, q: int, count: int) -> np.ndarray:
    out = [1] * count
    for i in range(1, count):
        out[i] = out[i - 1] * base % q
    return np.array(out, dtype=np.uint64)


def _column(values) -> np.ndarray:
    return np.array(values, dtype=np.uint64).reshape(-1, 1)


def _mulhi(a: np.ndarray, b) -> np.ndarray:
    """High 64 bits of the 128-bit product, via 32-bit limbs."""
    a_hi = a >> SHIFT32
    a_lo = a & MASK32
    b_hi = b >> SHIFT32
    b_lo = b & MASK32
    # mid = a_lo*b_hi + (a_lo*b_lo >> 32) + (a_hi*b_lo mod 2^32) is at most
    # (2^32-1)^2 + 2*(2^32-1) = 2^64-1, so it cannot wrap
    mid = a_lo * b_lo
    mid >>= SHIFT32
    cross = a_lo * b_hi
    mid += cross
    np.multiply(a_hi, b_lo, out=cross)
    hi = a_hi * b_hi
    mid += cross & MASK32
    cross >>= SHIFT32
    hi += cross
    mid >>= SHIFT32
    hi += mid
    return hi


class ShoupTable:
    """Multipliers w, one row per prime, with their Shoup quotients
    floor(w * 2^64 / q) split into 32-bit limbs once, at build time."""

    def __init__(self, w: np.ndarray, w_hi: np.ndarray, w_lo: np.ndarray):
        self.w, self.w_hi, self.w_lo = w, w_hi, w_lo

    def rows(self, sel: slice) -> "ShoupTable":
        return ShoupTable(self.w[sel], self.w_hi[sel], self.w_lo[sel])

    def segment(self, start: int, *shape: int):
        """(w, w_hi, w_lo) for the prod(shape) columns from ``start``, each
        shaped (L, *shape) to broadcast over a stage's butterfly halves."""
        cols = slice(start, start + math.prod(shape))
        return tuple(x[:, cols].reshape(-1, *shape) for x in (self.w, self.w_hi, self.w_lo))


def _shoup_mul(y, w, w_hi, w_lo, q, two_q, out, t1, t2, t3):
    """out = y*w mod q in [0, 2q) for any uint64 y; out may alias y or t1.

    The quotient estimate drops the carry out of the low limb products, so
    it is at most 2 below floor(y * w' / 2^64) and y*w - est*q lies in
    [0, 4q); one conditional subtraction of 2q brings it to [0, 2q).
    """
    np.bitwise_and(y, MASK32, out=t1)
    np.right_shift(y, SHIFT32, out=t2)
    np.multiply(t2, w_hi, out=t3)
    np.multiply(t2, w_lo, out=t2)
    np.right_shift(t2, SHIFT32, out=t2)
    np.add(t3, t2, out=t3)
    np.multiply(t1, w_hi, out=t1)
    np.right_shift(t1, SHIFT32, out=t1)
    np.add(t3, t1, out=t3)
    np.multiply(t3, q, out=t3)
    np.multiply(y, w, out=out)
    np.subtract(out, t3, out=out)
    np.subtract(out, two_q, out=t3)
    np.minimum(out, t3, out=out)


def _ct_butterfly(x, y, s1, s2, s3, tw, q, two_q):
    """Cooley-Tukey: (x, y) -> (x + y*w, x - y*w) in place, from [0, 4q) to
    [0, 4q); x is first brought to [0, 2q) and y*w lands in [0, 2q)."""
    np.subtract(x, two_q, out=s1)
    np.minimum(x, s1, out=x)
    _shoup_mul(y, *tw, q, two_q, y, s1, s2, s3)
    np.subtract(x, y, out=s1)
    np.add(x, y, out=x)
    np.add(s1, two_q, out=y)


def _gs_butterfly(x, y, s1, s2, s3, tw, q, two_q):
    """Gentleman-Sande: (x, y) -> (x + y, (x - y)*w) in place, within [0, 2q)."""
    np.add(x, y, out=s1)
    np.subtract(x, y, out=y)
    np.add(y, two_q, out=y)
    np.subtract(s1, two_q, out=x)
    np.minimum(s1, x, out=x)
    _shoup_mul(y, *tw, q, two_q, y, s1, s2, s3)


class PrimeField:
    """Vectorized arithmetic modulo a stack of L NTT primes, each < 2^62.

    Arrays are ``(..., L, N)`` with row i reduced mod prime i; the moduli
    are ``(L, 1)`` columns so they broadcast over the batch axes.  A field
    built from a single prime also accepts plain 1-D vectors.  General
    products use Montgomery reduction with R = 2^64; transforms and
    products by fixed multipliers use Shoup multiplication.
    """

    def __init__(self, q, poly_degree: int):
        """``q`` is one prime or a sequence of primes (the rows, in order)."""
        primes = (int(q),) if np.ndim(q) == 0 else tuple(int(p) for p in q)
        for p in primes:
            if not is_prime(p) or p % (2 * poly_degree) != 1:
                raise ValueError(f"{p} is not an NTT prime for degree {poly_degree}")
            if p >= 1 << 62:
                raise ValueError("prime too large for this reduction")
        self._set_moduli(primes, poly_degree)
        self._source = None

    @functools.cached_property
    def _tables(self) -> tuple[ShoupTable, ShoupTable, ShoupTable, ShoupTable]:
        """The transforms' Shoup tables: forward and inverse twiddles, 1/n, and
        the last inverse stage's twiddle times 1/n.  Built by the first
        transform, so a field used only for pointwise arithmetic never builds
        them; a selected field's tables are row views of its parent's."""
        if self._source is not None:
            parent, sel = self._source
            return tuple(table.rows(sel) for table in parent._tables)
        n = self.n
        brv = _bit_reverse_indices(n)
        fwd, inv, n_inv, last = [], [], [], []
        for p in self.primes:
            psi = _find_psi(p, n)
            ipsi = pow(psi, p - 2, p)
            fwd.append(self._stage_order(_powers(psi, p, n)[brv]))
            inv.append(self._stage_order(_powers(ipsi, p, n)[brv]))
            n_inv.append(pow(n, p - 2, p))
            # the last inverse stage's twiddle, ipsi_brv[1] = ipsi^(n/2), times 1/n
            last.append(pow(ipsi, n // 2, p) * n_inv[-1] % p)
        return (
            self.shoup_table(fwd),
            self.shoup_table(inv),
            self.shoup_table(_column(n_inv)),
            self.shoup_table(_column(last)),
        )

    _fwd = property(lambda self: self._tables[0])
    _inv = property(lambda self: self._tables[1])
    _n_inv = property(lambda self: self._tables[2])
    _last_inv = property(lambda self: self._tables[3])

    def _set_moduli(self, primes, poly_degree):
        self.primes = primes
        self.n = poly_degree
        # rows of the block-transposed layout; stages with t < block use it
        self.block = min(64, poly_degree // 2)
        self.q = _column(primes)
        self.two_q = self.q << np.uint64(1)
        self.half_q = self.q >> np.uint64(1)
        self.q_signed = self.q.astype(np.int64)
        self.qinv = _column([(-pow(p, -1, 1 << 64)) % (1 << 64) for p in primes])
        self.r2 = _column([(1 << 128) % p for p in primes])

    def _stage_order(self, w: np.ndarray) -> np.ndarray:
        """Bit-reversed twiddles with the segment [m, 2m) of every stage
        that runs block-transposed stored (B/2t, N/B)-major: the twiddle of
        natural block r*(B/2t) + j moves to j*(N/B) + r."""
        cols = self.n // self.block
        out = w.copy()
        m = cols  # the first such stage has t = B/2, so m = N/B
        while m < self.n:
            out[m : 2 * m] = w[m : 2 * m].reshape(cols, m // cols).T.ravel()
            m *= 2
        return out

    def shoup_table(self, w) -> ShoupTable:
        """The Shoup table of multipliers ``w`` < q, one row (or column) per
        prime, for ``mul_shoup``."""
        w = np.asarray(w, dtype=np.uint64)
        # w*2^64 = quot*q + (w*2^64 mod q), and -qinv = q^-1 mod 2^64, so the
        # exact quotient is (w*2^64 mod q) * qinv mod 2^64
        quot = self.to_mont(w) * self.qinv
        return ShoupTable(w, quot >> SHIFT32, quot & MASK32)

    def select(self, start: int, stop: int) -> "PrimeField":
        """The field of primes ``start..stop-1``; its tables are views."""
        if not 0 <= start < stop <= len(self.primes):
            raise ValueError(f"field has {len(self.primes)} primes, asked for {start}:{stop}")
        sel = slice(start, stop)
        sub = object.__new__(PrimeField)
        sub._set_moduli(self.primes[sel], self.n)
        sub._source = (self, sel)
        return sub

    @property
    def q_int(self) -> int:
        if len(self.primes) != 1:
            raise ValueError("q_int is defined for a single-prime field only")
        return self.primes[0]

    def _rows(self, a):
        """(array, flat): lift a 1-D vector of a one-prime field to one row."""
        flat = np.ndim(a) == 1 and len(self.primes) == 1
        return (a[None] if flat else a), flat

    # -- elementwise arithmetic ---------------------------------------------

    def montmul(self, a, b):
        """a*b/2^64 mod q for a < q and any uint64 b, on (..., L, K) arrays."""
        t_lo = a * b
        t_hi = _mulhi(a, b)
        carry = t_lo != 0
        t_lo *= self.qinv  # m = t*(-q^-1) mod 2^64
        r = _mulhi(t_lo, self.q)
        r += t_hi
        r += carry
        np.subtract(r, self.q, out=t_hi)
        return np.minimum(r, t_hi, out=r)

    def to_mont(self, a):
        return self.montmul(a, self.r2)

    def mul_shoup(self, a, table: ShoupTable) -> np.ndarray:
        """a * table.w mod q in [0, q) for any uint64 ``a``; the table's
        ``(L, K)`` rows broadcast over ``a``'s ``(..., L, K)``."""
        out = np.array(a, dtype=np.uint64)
        t1, t2, t3 = (np.empty_like(out) for _ in range(3))
        _shoup_mul(out, table.w, table.w_hi, table.w_lo, self.q, self.two_q, out, t1, t2, t3)
        return np.minimum(out, np.subtract(out, self.q, out=t1), out=out)

    def mul_const(self, a, consts) -> np.ndarray:
        """a * consts[i] mod q_i along the prime axis; consts are Python ints."""
        table = self.shoup_table(_column([c % q for c, q in zip(consts, self.primes)]))
        return self.mul_shoup(a, table)

    def add(self, a, b):
        s = np.add(a, b)
        return np.minimum(s, s - self.q, out=s)

    def sub(self, a, b):
        d = np.subtract(a, b)
        return np.minimum(d, d + self.q, out=d)

    def reduce_signed(self, a: np.ndarray) -> np.ndarray:
        """Map int64 values (any sign) into [0, q), row i mod prime i."""
        a, flat = self._rows(np.asarray(a, dtype=np.int64))
        bound = min(self.primes)
        if a.size and -bound < a.min() and a.max() < bound:
            # |a| < q: a + q mod 2^64 is a mod q once reduced, with no division
            out = a.view(np.uint64) + self.q
            np.minimum(out, out - self.q, out=out)
        else:
            out = (a % self.q_signed).view(np.uint64)
        return out[0] if flat else out

    def centered(self, a: np.ndarray) -> np.ndarray:
        """Map residues to the centered representative in (-q/2, q/2] as int64."""
        a, flat = self._rows(np.asarray(a, dtype=np.uint64))
        out = a.astype(np.int64)
        out -= (a > self.half_q) * self.q_signed
        return out[0] if flat else out

    # -- transforms ------------------------------------------------------------

    def _layouts(self, a: np.ndarray):
        """Views and buffers for one transform of ``a``: the natural
        ``(batch, L, N)`` view, the same memory seen block-transposed as
        ``(batch, L, block, N/block)``, a contiguous buffer of that shape,
        three half-size scratch buffers, and one full-size scratch buffer of
        ``a``'s shape (the first two halves, which are contiguous)."""
        self._check_shape(a)
        batch = a.reshape(-1, len(self.primes), self.n)
        rows, cols = self.block, self.n // self.block
        size, half = a.size, a.size // 2
        scratch = np.empty(size + 3 * half, dtype=np.uint64)
        halves = [scratch[size + k * half : size + (k + 1) * half] for k in range(3)]
        return (
            batch,
            batch.reshape(*batch.shape[:2], cols, rows).transpose(0, 1, 3, 2),
            scratch[:size].reshape(*batch.shape[:2], rows, cols),
            halves,
            scratch[size : 2 * size].reshape(a.shape),
        )

    @staticmethod
    def _pairs(data, blocks: int, t: int, halves):
        """The butterfly halves (x, y) of one stage on ``data``, natural
        ``(batch, L, N)`` or block-transposed ``(batch, L, block, N/block)``:
        values t apart within each of ``blocks`` blocks per row; then three
        scratch buffers shaped like them."""
        view = data.reshape(*data.shape[:2], blocks, 2, t, *data.shape[3:])
        x = view[:, :, :, 0]
        return (x, view[:, :, :, 1], *(buf.reshape(x.shape) for buf in halves))

    def ntt(self, a: np.ndarray) -> np.ndarray:
        """Forward negacyclic transform (Cooley-Tukey, twiddles bit-reversed)."""
        a, flat = self._rows(np.array(a, dtype=np.uint64))
        batch, natural_t, blocked, halves, full = self._layouts(a)
        q3, two_q3 = self.q[:, :, None], self.two_q[:, :, None]
        q4, two_q4 = q3[..., None], two_q3[..., None]
        tab = self._fwd
        rows = self.block
        cols = self.n // rows
        m, t = 1, self.n // 2
        while t >= rows:
            _ct_butterfly(*self._pairs(batch, m, t, halves), tab.segment(m, m, 1), q3, two_q3)
            m, t = 2 * m, t // 2
        np.copyto(blocked, natural_t)
        while t >= 1:
            blocks = rows // (2 * t)
            tw = tab.segment(m, blocks, 1, cols)
            _ct_butterfly(*self._pairs(blocked, blocks, t, halves), tw, q4, two_q4)
            m, t = 2 * m, t // 2
        scratch = full.reshape(blocked.shape)
        np.subtract(blocked, two_q3, out=scratch)
        np.minimum(blocked, scratch, out=blocked)
        np.subtract(blocked, q3, out=scratch)
        np.minimum(blocked, scratch, out=natural_t)
        return a[0] if flat else a

    def intt(self, a: np.ndarray) -> np.ndarray:
        """Inverse transform (Gentleman-Sande), including the 1/n factor.

        The last stage multiplies by 1/n and by its twiddle times 1/n, so the
        scaling needs no pass of its own.
        """
        a, flat = self._rows(np.array(a, dtype=np.uint64))
        batch, natural_t, blocked, halves, full = self._layouts(a)
        q3, two_q3 = self.q[:, :, None], self.two_q[:, :, None]
        q4, two_q4 = q3[..., None], two_q3[..., None]
        tab = self._inv
        rows = self.block
        cols = self.n // rows
        h, t = self.n // 2, 1
        np.copyto(blocked, natural_t)
        while t < rows:
            blocks = rows // (2 * t)
            tw = tab.segment(h, blocks, 1, cols)
            _gs_butterfly(*self._pairs(blocked, blocks, t, halves), tw, q4, two_q4)
            h, t = h // 2, 2 * t
        np.copyto(natural_t, blocked)
        while h > 1:
            _gs_butterfly(*self._pairs(batch, h, t, halves), tab.segment(h, h, 1), q3, two_q3)
            h, t = h // 2, 2 * t
        # the last stage, t = n/2: x + y and x - y, each times its factor;
        # x is free until it receives the result, so it serves as scratch
        x, y, s1, s2, s3 = self._pairs(batch, 1, t, halves)
        np.add(x, y, out=s1)
        np.subtract(x, y, out=y)
        np.add(y, two_q3, out=y)
        _shoup_mul(y, *self._last_inv.segment(0, 1, 1), q3, two_q3, y, x, s2, s3)
        _shoup_mul(s1, *self._n_inv.segment(0, 1, 1), q3, two_q3, x, x, s2, s3)
        np.subtract(a, self.q, out=full)
        np.minimum(a, full, out=a)
        return a[0] if flat else a

    def _check_shape(self, a: np.ndarray) -> None:
        if a.ndim < 2 or a.shape[-2:] != (len(self.primes), self.n):
            raise ValueError(
                f"expected (..., {len(self.primes)}, {self.n}) residues, got {a.shape}"
            )
