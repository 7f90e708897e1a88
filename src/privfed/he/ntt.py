"""Arithmetic modulo a stack of word-sized NTT primes, and a reference NTT.

What CKKS (``ckks``) needs from the ring Z_q[X]/(X^N + 1) for an RNS chain
of primes q_0..q_{L-1}: prime generation with q = 1 (mod 2N), and
vectorized addition, subtraction, signed lifts, centered representatives
and products by per-prime constants over uint64 numpy arrays.  A product
by a constant w uses Shoup's precomputed quotient floor(w * 2^64 / q)
(Harvey, "Faster arithmetic for number-theoretic transforms", 2014).

CKKS runs no transform: its one ring product is an exact float FFT product.
``ntt``/``intt`` are a plain radix-2 negacyclic pair, reduced to [0, q)
after every stage.  They serve the tests, where their product is the oracle
for the FFT product, and the benchmark harness's kernel timings.  A field
builds their twiddle tables on its first transform, if it runs one.
"""

from __future__ import annotations

import functools

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
    d, r = n - 1, 0
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
    return np.array([int(f"{k:0{bits}b}"[::-1], 2) for k in range(n)], dtype=np.int64)


def _multipliers(rows, primes):
    """(w, w_hi, w_lo) uint64 arrays for multipliers ``rows[i]`` < q_i, one
    row per prime: w and the 32-bit limbs of its Shoup quotient."""
    w = np.array(rows, dtype=np.uint64)
    quot = np.array([[(x << 64) // q for x in row] for row, q in zip(rows, primes)], dtype=np.uint64)
    return w, quot >> SHIFT32, quot & MASK32


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


def _mul_reduced(a, table, q) -> np.ndarray:
    """a * w mod q in [0, q) for any uint64 ``a``; ``table`` and ``q`` broadcast over it."""
    out = np.array(a, dtype=np.uint64)
    t1, t2, t3 = (np.empty_like(out) for _ in range(3))
    _shoup_mul(out, *table, q, q << np.uint64(1), out, t1, t2, t3)
    return np.minimum(out, np.subtract(out, q, out=t1), out=out)


class PrimeField:
    """Vectorized arithmetic modulo a stack of L NTT primes, each < 2^62.

    Arrays are ``(..., L, N)`` with row i reduced mod prime i; the moduli
    are ``(L, 1)`` columns so they broadcast over the batch axes.  A field
    built from a single prime also accepts plain 1-D vectors.
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

    def _set_moduli(self, primes, poly_degree):
        self.primes, self.n = primes, poly_degree
        self.q = np.array(primes, dtype=np.uint64).reshape(-1, 1)
        self.half_q = self.q >> np.uint64(1)
        self.q_signed = self.q.astype(np.int64)

    def select(self, start: int, stop: int) -> "PrimeField":
        """The field of primes ``start..stop-1``, which are not checked again."""
        if not 0 <= start < stop <= len(self.primes):
            raise ValueError(f"field has {len(self.primes)} primes, asked for {start}:{stop}")
        sub = object.__new__(PrimeField)
        sub._set_moduli(self.primes[start:stop], self.n)
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

    def mul_const(self, a, consts) -> np.ndarray:
        """a * consts[i] mod q_i along the prime axis, in [0, q), for any
        uint64 ``a``; consts are Python ints."""
        table = _multipliers([[c % q] for c, q in zip(consts, self.primes)], self.primes)
        return _mul_reduced(a, table, self.q)

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

    # -- reference transforms -------------------------------------------------

    @functools.cached_property
    def _twiddles(self):
        """Shoup multipliers psi^brv(k) (forward) and psi^-brv(k) (inverse)
        for k < N, one row per prime."""
        brv = _bit_reverse_indices(self.n)
        tables = ([], [])
        for q in self.primes:
            psi = _find_psi(q, self.n)
            for rows, base in zip(tables, (psi, pow(psi, -1, q))):
                powers = [1] * self.n
                for k in range(1, self.n):
                    powers[k] = powers[k - 1] * base % q
                rows.append([powers[k] for k in brv])
        return tuple(_multipliers(rows, self.primes) for rows in tables)

    def _stages(self, a, inverse: bool):
        """Per stage m = 1, 2, .., N/2 (reversed for the inverse): its halves in
        ``a``, values t apart in each of m blocks per row, and twiddles [m, 2m)."""
        if a.ndim < 2 or a.shape[-2:] != (len(self.primes), self.n):
            raise ValueError(f"expected (..., {len(self.primes)}, {self.n}) residues, got {a.shape}")
        batch = a.reshape(-1, len(self.primes), self.n)
        table = self._twiddles[inverse]
        log_n = self.n.bit_length() - 1
        for k in reversed(range(log_n)) if inverse else range(log_n):
            m = 1 << k
            view = batch.reshape(*batch.shape[:2], m, 2, self.n >> (k + 1))
            yield view[:, :, :, 0], view[:, :, :, 1], tuple(x[:, m : 2 * m, None] for x in table)

    def ntt(self, a: np.ndarray) -> np.ndarray:
        """Forward negacyclic transform (Cooley-Tukey, twiddles bit-reversed):
        output j is a(psi^(2*brv(j)+1)) mod q."""
        a, flat = self._rows(np.array(a, dtype=np.uint64))
        q = self.q[:, :, None]
        for x, y, tw in self._stages(a, inverse=False):
            u = _mul_reduced(y, tw, q)
            np.subtract(x, u, out=y)
            np.minimum(y, y + q, out=y)
            np.add(x, u, out=x)
            np.minimum(x, x - q, out=x)
        return a[0] if flat else a

    def intt(self, a: np.ndarray) -> np.ndarray:
        """Inverse transform (Gentleman-Sande), including the 1/N factor."""
        a, flat = self._rows(np.array(a, dtype=np.uint64))
        q = self.q[:, :, None]
        for x, y, tw in self._stages(a, inverse=True):
            d = np.subtract(x, y)
            np.minimum(d, d + q, out=d)
            np.add(x, y, out=x)
            np.minimum(x, x - q, out=x)
            y[...] = _mul_reduced(d, tw, q)
        out = self.mul_const(a, [pow(self.n, -1, q) for q in self.primes])
        return out[0] if flat else out
