"""Minimal leveled CKKS: encode/encrypt/decrypt, ciphertext addition, and one
ciphertext-plaintext multiplication with rescale.

The aggregation circuit needs only ct+ct and a single ct*plaintext, so
ciphertexts stay degree 1 and there is no relinearization, rotation, or
bootstrapping.  Representation choices:

- RNS in coefficient form: each polynomial is a (levels, N) uint64 array of
  coefficient residues, one row per active prime, and a ciphertext keeps
  both components in one (2, levels, N) array.  Nothing is ever in an NTT
  domain, so addition, the scalar product and the rescale are pointwise
  (the rescale's dropped row is already coefficients), ``decrypt`` hands
  its residues straight to ``decode``, and the wire header's hash names
  this representation, so an NTT-form blob is refused.
- One ring product: the circuit multiplies only by the ternary secret s,
  in ``encrypt`` (a*s) and ``decrypt`` (c1*s).  ``_mul_secret`` computes
  it exactly with a float FFT over small limbs (Klemsa, "Fast and
  Error-Free Negacyclic Integer Convolution using Extended Fourier
  Transform", CSCML 2021).  Each residue row is split into b = 20-bit limbs
  (three for a 60-bit prime, two for a 40-bit one); coefficients k and
  k + N/2 of a limb fold into one complex value, twisted by exp(i*pi*k/N),
  so one N/2-point FFT pair over every limb of every row, with the key's
  stored spectrum multiplied in between, gives each limb times s.  A limb
  is below 2^b and s is ternary, so each product coefficient is an integer
  of magnitude below N * 2^b (2^33 at N = 8192).
- Exactness: Percival's bound for an FFT product ("Rapid multiplication
  modulo the sum and difference of highly composite numbers", Math. Comp.
  2003) puts every output within
  ||x|| ||y|| ((1+e)^3k (1+e*sqrt5)^(3k+1) (1+t)^3k - 1) of the exact
  integer, with k = log2(N/2), e = 2^-53 and t the twiddles' error.  Here
  ||x|| <= 2^b sqrt(N) and ||y|| = ||s|| <= sqrt(N), so with t near e the
  bound is about 2^b N (12.7k + 2.2) e: 1.5e-4 at N = 8192, plus a few e
  from the twists, far below the 1/2 that rounding needs.  The code relies
  on it, and checks it: a value more than 1/4 from an integer raises
  ``StateError``.  Measured worst case: 4.8e-6.
- Recombination: prime q's product is sum_k c_k 2^(bk) mod q over its
  limbs' products c_k.  Its quotient by q (below 2^35 in magnitude) comes
  from the float sum of c_k * (2^(bk) / q), which is off by at most one,
  and the sum itself from wrapping uint64 arithmetic; the remainder then
  lies in [-q, 2q) and two conditional corrections bring it to [0, q).
- Coefficient packing: a chunk of ``fill`` values is its values times the
  scale, rounded, in coefficients 0 to fill-1, and ``decode`` reads those
  coefficients alone.  The circuit's addition, real-scalar product and
  rescale all act coefficient by coefficient, so the canonical embedding
  (Cheon, Kim, Kim & Song, ASIACRYPT 2017), whose slot-wise products and
  rotations this circuit never uses, would only spread the values over a
  power-of-two width.  Decryption adds c0 column by column, so a
  ciphertext's values depend on c0 only at its first ``fill`` columns:
  ``c0_row`` cuts c0 to them, all a party needs to aggregate c0, and
  ``with_c1`` rejoins such a row to a whole c1.  A chunk's coefficients
  past its fill are zero, so whole ciphertexts of different fills add as if
  zero-padded.  ``chunk_fills`` cuts an update into chunks of N/2 values.
- Two wire forms (``serialize_ct``, ``deserialize_ct``): a whole fresh
  (c0, c1) pair, as a site sends its update, and one c0 row a level below
  cut to its fill (``c0_row``), as the coordinator broadcasts the
  aggregate.  ``deserialize_ct`` alone checks a blob's header against the
  form and fill its reader expects.
- Objects carry their parameters: a plaintext, a ciphertext and a key each
  hold their ``CkksParams``, and ``_context`` caches the state derived from
  them (primes, fields, limb tables, the wire hash).
  Its fields never build NTT twiddle tables.
- Secret-key encryption: every client holds the cohort secret, so there is
  no public key.  A fresh ciphertext is (c0, c1) = (m + e - a*s, a) with a
  uniform ``a``, one row per prime (``sample_a``), drawn after ``e`` from the
  caller's stream unless the caller passes it.  ``a`` is public, so a
  protocol may draw it from a stream every party can derive and send only
  c0 (a one-component ciphertext), as multiparty CKKS does with a common
  reference string (Mouchet, Troncoso-Pastoriza, Bossuat & Hubaux, PoPETs
  2021).  Addition, the scalar product and the rescale act on either
  component alone.  The key is the secret's folded spectrum divided by N/2,
  computed once at keygen and reduced mod no prime, so ``keygen`` runs no
  transform over residues.
- The last entry of ``modulus_bits`` is reserved headroom consumed by fresh
  encryption bookkeeping; ciphertexts start on the remaining chain, so a
  [60, 40, 40] chain yields fresh level 1 and exactly one legal rescaling
  multiplication.
- ``mul_scalar_rescale`` encodes its scalar at the exact value of the prime
  the rescale consumes, so ciphertext scale is preserved bit for bit and the
  serialized header can carry scale as an integer log2.
- Secrets are centered ternary; errors are centered binomial with sigma
  close to 3.2, sampled as the popcount difference of two 21-bit words.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import struct
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import (
    CapacityError,
    ConfigError,
    DecodeError,
    DepthExhaustedError,
    LayoutError,
    StateError,
)
from .ntt import PrimeField, generate_ntt_primes

_CBD_BITS = 21  # centered binomial Sum(21) - Sum(21): variance 10.5, sigma 3.24
_LIMB_BITS = 20  # b: limb width of the secret product
_LIMB_MASK = (1 << _LIMB_BITS) - 1
_REPRESENTATION = "coefficient"  # hashed into the wire header: NTT-form blobs are refused
_HEADER = struct.Struct("<8sBHI")
_MAX_SCALE_LOG2 = 1023  # 2^1023 is the largest power of two a float64 holds


@dataclass(frozen=True)
class CkksParams:
    """Integer entries (a bool is none); a refusal's message begins with the
    entry's name.  The chain's primes are found at first use (``_context``)."""

    poly_degree: int
    modulus_bits: tuple[int, ...]
    scale_log2: int

    def __post_init__(self):
        n, bits, scale_log2 = self.poly_degree, self.modulus_bits, self.scale_log2
        if type(n) is not int or n < 8 or n & (n - 1):
            raise ConfigError(f"poly_degree must be a power of two >= 8, got {n!r}")
        valid = isinstance(bits, (list, tuple)) and all(type(b) is int and 20 <= b <= 61 for b in bits)
        if not valid or len(bits) < 2:
            raise ConfigError(f"modulus_bits must be a list of at least 2 integers in [20, 61], got {bits!r}")
        object.__setattr__(self, "modulus_bits", tuple(bits))
        if type(scale_log2) is not int or not 1 <= scale_log2 <= bits[1]:
            raise ConfigError(f"scale_log2 must be an integer in [1, {bits[1]}], got {scale_log2!r}")

    @property
    def slot_count(self) -> int:
        """The values one chunk holds: N/2, one to a coefficient."""
        return self.poly_degree // 2

    @property
    def scale(self) -> float:
        return float(2**self.scale_log2)

    @property
    def fresh_level(self) -> int:
        """A fresh ciphertext's level: the chain's last prime is encryption headroom."""
        return len(self.modulus_bits) - 2


# full-scale default configuration and the reduced set used for fast tests
DEFAULT_PARAMS = CkksParams(8192, (60, 40, 40), 40)
TEST_PARAMS = CkksParams(1024, (40, 30, 30), 30)


class _Context:
    """Derived per-params state: primes, fields, the secret product's
    tables, and the 8-byte parameter hash that heads every serialized
    ciphertext."""

    def __init__(self, params: CkksParams):
        self.params = params
        all_primes = generate_ntt_primes(params.modulus_bits, params.poly_degree)
        # the trailing prime is encryption headroom, never part of a ciphertext
        self.active_primes = all_primes[:-1]
        n = params.poly_degree
        field = PrimeField(self.active_primes, n)
        count = len(self.active_primes)
        # level_fields[l]: primes 0..l; prime_fields[i]: prime i alone (views)
        self.level_fields = [field.select(0, level + 1) for level in range(count)]
        self.prime_fields = [field.select(i, i + 1) for i in range(count)]
        # the secret product splits prime i's row into the limbs limb_rows[i]
        # (rows of one limb axis over all primes), bits limb_shift[j] and up,
        # and recombines them with limb_ratio[j] = 2^limb_shift[j] / q
        self.limb_rows, self.limb_shift, self.limb_ratio = [], [], []
        for q in self.active_primes:
            start = len(self.limb_shift)
            for shift in range(0, q.bit_length(), _LIMB_BITS):
                self.limb_shift.append(shift)
                self.limb_ratio.append(2.0**shift / q)
            self.limb_rows.append(slice(start, len(self.limb_shift)))
        self.limb_shift_column = np.array(self.limb_shift, dtype=np.int64)[:, None]
        half = np.arange(n // 2)
        self.twist = np.exp(1j * np.pi * half / n)
        self.untwist = np.exp(-1j * np.pi * half / n)
        text = repr((params.poly_degree, params.modulus_bits, params.scale_log2, _REPRESENTATION))
        self.hash = hashlib.sha256(text.encode()).digest()[:8]
        self._local = threading.local()  # each thread's _mul_secret work buffers

    def work_buffer(self, level: int) -> np.ndarray:
        """The secret product's (2, limbs, N) int64 work buffer at ``level``,
        one per thread, reused so that its pages are touched once, not on
        every call."""
        buffers = self._local.__dict__.setdefault("work", {})
        if level not in buffers:
            shape = (2, self.limb_rows[level].stop, self.params.poly_degree)
            buffers[level] = np.empty(shape, dtype=np.int64)
        return buffers[level]


@lru_cache(maxsize=8)
def _context(params: CkksParams) -> _Context:
    return _Context(params)


@dataclass
class PlainPoly:
    residues: np.ndarray  # (level+1, N) uint64 coefficient residues
    level: int
    scale: float
    slot_fill: int
    params: CkksParams


@dataclass
class Ciphertext:
    # (2, level+1, N) uint64: c0 and c1, coefficient form; (1, ...) for c0
    # or c1 alone, and c0 cut to slot_fill columns by ``c0_row``
    comps: np.ndarray
    level: int
    scale: float
    slot_fill: int
    params: CkksParams

    @property
    def c0(self) -> np.ndarray:
        return self.comps[0]

    @property
    def c1(self) -> np.ndarray:
        return self.comps[1]


@dataclass
class KeyPair:
    secret: np.ndarray  # (N/2,) complex: the ternary secret's ``_secret_spectrum``
    params: CkksParams


def _sample_cbd(rng, n: int) -> np.ndarray:
    # popcount of a uniform 21-bit word is Binomial(21, 1/2)
    ones = np.bitwise_count(rng.integers(0, 1 << _CBD_BITS, (2, n), dtype=np.uint32))
    return ones[0].astype(np.int64) - ones[1]


def _secret_spectrum(ctx: _Context, s: np.ndarray) -> np.ndarray:
    """The folded, twisted spectrum of an integer polynomial ``s`` that
    ``_mul_secret`` multiplies by, divided by N/2: the scaling that the
    product's two unscaled transforms leave out."""
    half = ctx.params.poly_degree // 2
    folded = (s[:half] + 1j * s[half:]) * ctx.twist
    return np.fft.ifft(folded, norm="forward") / half


def _mul_secret(ctx: _Context, rows: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """rows * s in Z_q[X]/(X^N + 1), in [0, q), for the (level+1, N) residue
    ``rows`` and the secret's ``spectrum``: exact, with one float FFT pair over
    the limbs of every row (see the module docstring)."""
    level = rows.shape[0] - 1
    n = ctx.params.poly_degree
    half = n // 2
    work = ctx.work_buffer(level)
    for row, part in zip(rows.view(np.int64), ctx.limb_rows):
        np.right_shift(row, ctx.limb_shift_column[part], out=work[0, part])
    work[0] &= _LIMB_MASK
    # coefficients k and k + N/2 form complex value k; twisted by
    # exp(i*pi*k/N), the unscaled N/2-point inverse FFT evaluates the
    # polynomial at the roots exp(i*pi*(4j+1)/N) of X^N + 1, one from each
    # conjugate pair, and the forward FFT, by the spectrum's 1/(N/2), undoes it
    values = work[1].view(np.float64)
    buf = values.view(np.complex128)
    buf.real[...] = work[0, :, :half]
    buf.imag[...] = work[0, :, half:]
    buf *= ctx.twist
    np.fft.ifft(buf, norm="forward", out=buf)
    buf *= spectrum
    np.fft.fft(buf, out=buf)
    buf *= ctx.untwist
    limbs = work[0].view(np.float64)  # limb products: k at 2k, k + N/2 at 2k + 1
    np.rint(values, out=limbs)
    values -= limbs
    worst = max(values.max(), -values.min())
    if not worst <= 0.25:
        raise StateError(f"secret product is not exact: a coefficient lies {worst} from an integer")
    out = np.empty((level + 1, 2, half), dtype=np.uint64)
    for i, (part, q) in enumerate(zip(ctx.limb_rows, ctx.active_primes[: level + 1])):
        # sum_k c_k 2^shift_k mod q: its quotient by q from a float estimate,
        # off by at most one, and the sum itself mod 2^64
        quotient, term = values[part.start], values[part.stop - 1]
        np.multiply(limbs[part.start], ctx.limb_ratio[part.start], out=quotient)
        for j in range(part.start + 1, part.stop):
            quotient += np.multiply(limbs[j], ctx.limb_ratio[j], out=term)
        np.floor(quotient, out=quotient)
        ints = limbs[part].astype(np.int64).view(np.uint64)
        total = ints[0]
        for k, shift in enumerate(ctx.limb_shift[part.start + 1 : part.stop], start=1):
            total += np.left_shift(ints[k], shift, out=ints[k])
        total -= quotient.astype(np.int64).view(np.uint64) * np.uint64(q)
        # the remainder is in [-q, 2q); bring it to [0, q)
        np.minimum(total, total + np.uint64(q), out=total)
        np.minimum(total, total - np.uint64(q), out=total)
        np.copyto(out[i], total.reshape(half, 2).T)
    return out.reshape(level + 1, n)


def keygen(params: CkksParams, rng: np.random.Generator) -> KeyPair:
    """Ternary secret, stored as its folded spectrum; deterministic for a
    given seed, so cohort members can derive the shared key locally."""
    ctx = _context(params)
    secret = rng.integers(-1, 2, params.poly_degree).astype(np.int64)
    return KeyPair(_secret_spectrum(ctx, secret), params)


def encode(values, params: CkksParams) -> PlainPoly:
    """A real vector times the scale, rounded, in coefficients 0 to
    len(values)-1."""
    ctx = _context(params)
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if values.size > params.slot_count:
        raise CapacityError(f"{values.size} values exceed the {params.slot_count} a chunk holds")
    rounded = np.rint(values * params.scale)
    if not np.all(np.abs(rounded) < 2**62):
        raise CapacityError("encoded coefficients must be finite and below 2^62 in magnitude")
    message = np.zeros(params.poly_degree, dtype=np.int64)
    message[: values.size] = rounded
    level = params.fresh_level
    residues = ctx.level_fields[level].reduce_signed(message[None])
    return PlainPoly(residues, level, params.scale, values.size, params)


def _crt_centered(ctx: _Context, residue_rows: np.ndarray, level: int) -> np.ndarray:
    """Combine per-prime coefficient residues into centered integers (float64)."""
    primes = ctx.active_primes[: level + 1]
    if level == 0:
        return ctx.level_fields[0].centered(residue_rows)[0].astype(np.float64)
    modulus = math.prod(primes)
    acc = np.zeros(residue_rows.shape[-1], dtype=object)
    for i, q in enumerate(primes):
        m_i = modulus // q
        y_i = pow(m_i, -1, q)
        acc += residue_rows[i].astype(object) * (m_i * y_i)
    acc %= modulus
    centered = np.where(acc > modulus // 2, acc - modulus, acc)
    return centered.astype(np.float64)


def decode(pt: PlainPoly) -> np.ndarray:
    """The ``slot_fill`` values of a plaintext, read from its first
    ``slot_fill`` coefficients alone; inverse of encode up to its rounding."""
    coeffs = _crt_centered(_context(pt.params), pt.residues[:, : pt.slot_fill], pt.level)
    return coeffs / pt.scale


def sample_a(params: CkksParams, rng: np.random.Generator) -> np.ndarray:
    """A fresh ciphertext's c1 = a: one uniform row per prime of the fresh
    level, (level+1, N) uint64."""
    primes = _context(params).active_primes[: params.fresh_level + 1]
    return np.stack([rng.integers(0, q, params.poly_degree, dtype=np.uint64) for q in primes])


def encrypt(
    pt: PlainPoly, key: KeyPair, rng: np.random.Generator, a: np.ndarray | None = None
) -> Ciphertext:
    """Fresh randomized secret-key encryption at the top level of the active
    chain: (c0, c1) = (m + e - a*s, a).  ``e`` comes from ``rng``, and so
    does ``a``, drawn after it, unless given (``sample_a``'s form)."""
    if pt.params != key.params:
        raise StateError("plaintext/key parameter mismatch")
    ctx = _context(pt.params)
    level = pt.params.fresh_level
    if pt.level != level:
        raise StateError("can only encrypt full-level plaintexts")
    field = ctx.level_fields[level]
    n = pt.params.poly_degree
    e = _sample_cbd(rng, n)
    if a is None:
        a = sample_a(pt.params, rng)
    elif a.shape != (level + 1, n):
        raise StateError(f"a has shape {a.shape}, a fresh c1 is {(level + 1, n)}")
    comps = np.empty((2, level + 1, n), dtype=np.uint64)
    comps[1] = a
    message = field.add(pt.residues, field.reduce_signed(e[None]))
    comps[0] = field.sub(message, _mul_secret(ctx, comps[1], key.secret))
    return Ciphertext(comps, level, pt.scale, pt.slot_fill, pt.params)


def decrypt(ct: Ciphertext, key: KeyPair) -> PlainPoly:
    if key.params != ct.params:
        raise StateError("ciphertext/key parameter mismatch")
    if ct.comps.shape[-1] != ct.params.poly_degree:
        raise StateError("a ciphertext cut to its value columns does not decrypt: c1 must be whole")
    ctx = _context(ct.params)
    field = ctx.level_fields[ct.level]
    residues = field.add(ct.c0, _mul_secret(ctx, ct.c1, key.secret))
    return PlainPoly(residues, ct.level, ct.scale, ct.slot_fill, ct.params)


def add(a: Ciphertext, b: Ciphertext) -> Ciphertext:
    """Homomorphic addition; operands must agree in params, level, scale
    and shape.  Whole operands of different fills add as if zero-padded."""
    if a.params != b.params:
        raise StateError("parameter mismatch")
    if a.level != b.level:
        raise StateError(f"level mismatch: {a.level} vs {b.level}")
    if not math.isclose(a.scale, b.scale, rel_tol=1e-12):
        raise StateError(f"scale mismatch: {a.scale} vs {b.scale}")
    if a.comps.shape != b.comps.shape:
        raise StateError(f"component shapes differ: {a.comps.shape} vs {b.comps.shape}")
    comps = _context(a.params).level_fields[a.level].add(a.comps, b.comps)
    return Ciphertext(comps, a.level, a.scale, max(a.slot_fill, b.slot_fill), a.params)


def c0_row(ct: Ciphertext) -> Ciphertext:
    """``ct``'s c0 at its first ``slot_fill`` columns alone, the coefficients
    ``decode`` reads: all a party needs to add, scale and rescale c0."""
    return dataclasses.replace(ct, comps=np.ascontiguousarray(ct.comps[:1, :, : ct.slot_fill]))


def with_c1(c0: Ciphertext, c1: Ciphertext) -> Ciphertext:
    """The ciphertext (c0, c1) of a ``c0_row`` and a whole one-component c1,
    which must agree in params, level and scale; ``c0`` gives its slot fill.
    c0's columns past its fill are zero, which changes no decoded value, as
    decryption adds c0 column by column and ``decode`` reads the value
    columns alone."""
    if c0.params != c1.params:
        raise StateError("parameter mismatch")
    if (c0.level, c0.scale) != (c1.level, c1.scale):
        raise StateError(
            f"c0 is at level {c0.level}, scale {c0.scale:.0f}; "
            f"c1 at level {c1.level}, scale {c1.scale:.0f}"
        )
    n, width = c0.params.poly_degree, c0.comps.shape[-1]
    if c1.comps.shape[-1] != n or width != c0.slot_fill:
        raise StateError(f"c0 has {width} columns, c1 {c1.comps.shape[-1]}")
    comps = np.zeros((2, c0.level + 1, n), dtype=np.uint64)
    comps[0][:, :width] = c0.comps[0]
    comps[1] = c1.comps[0]
    return Ciphertext(comps, c0.level, c0.scale, c0.slot_fill, c0.params)


def mul_scalar_rescale(ct: Ciphertext, scalar: float) -> Ciphertext:
    """Multiply by a plaintext scalar and rescale once; consumes one level.

    The scalar is encoded at the exact value of the prime being consumed, so
    the output scale equals the input scale bit for bit.
    """
    ctx = _context(ct.params)
    if ct.level < 1:
        raise DepthExhaustedError("no modulus level left for rescaling")
    q_last = ctx.active_primes[ct.level]
    coeff = round(float(scalar) * q_last)
    comps = ctx.level_fields[ct.level].mul_const(ct.comps, [coeff] * (ct.level + 1))
    scaled = Ciphertext(comps, ct.level, ct.scale * q_last, ct.slot_fill, ct.params)
    return _rescale(ctx, scaled)


def _rescale(ctx: _Context, ct: Ciphertext) -> Ciphertext:
    """Drop the last active prime: c' = (c - [c]_q_last) / q_last per prime,
    for both components at once."""
    level = ct.level
    q_last = ctx.active_primes[level]
    field = ctx.level_fields[level - 1]
    lifted = field.reduce_signed(ctx.prime_fields[level].centered(ct.comps[:, level : level + 1]))
    inv_q = [pow(q_last, -1, q) for q in field.primes]
    comps = field.mul_const(field.sub(ct.comps[:, :level], lifted), inv_q)
    return Ciphertext(comps, level - 1, ct.scale / q_last, ct.slot_fill, ct.params)


# -- update packing ----------------------------------------------------------


def chunk_fills(length: int, params: CkksParams) -> list[int]:
    """The slot fill of each chunk of a ``length``-value update: N/2 values
    to a chunk, the last one holding the rest."""
    size = params.slot_count
    return [min(size, length - start) for start in range(0, length, size)]


def pack_update(flat: np.ndarray, params: CkksParams) -> list[np.ndarray]:
    """A flat update cut into its ``chunk_fills``, ready for encode/encrypt."""
    flat = np.asarray(flat, dtype=np.float64).reshape(-1)
    fills = chunk_fills(flat.size, params)
    return [flat[end - fill : end] for fill, end in zip(fills, itertools.accumulate(fills))]


def unpack_update(chunks, length: int) -> np.ndarray:
    """The ``length``-value update whose decoded chunks are ``chunks``."""
    flat = np.concatenate([np.zeros(0), *chunks])
    if flat.size != length:
        raise LayoutError(f"chunks carry {flat.size} values, the update has {length}")
    return flat


# -- serialization -----------------------------------------------------------


def serialize_ct(ct: Ciphertext) -> bytes:
    """Wire format: 15-byte header (params hash, level, log2 scale, slot fill)
    followed by the RNS rows, component-major, little-endian u64: N
    coefficients each, or the slot fill for a ``c0_row``.  The header counts
    neither the components nor the columns: the reader says which of the two
    wire forms it expects (``deserialize_ct``)."""
    scale_log2 = math.log2(ct.scale)
    if scale_log2 != int(scale_log2) or not 0 < int(scale_log2) <= _MAX_SCALE_LOG2:
        raise StateError("only power-of-two scales serialize")
    header = _HEADER.pack(_context(ct.params).hash, ct.level, int(scale_log2), ct.slot_fill)
    return header + ct.comps.astype("<u8", copy=False).tobytes()


def deserialize_ct(data: bytes, params: CkksParams, fill: int, row: bool = False) -> Ciphertext:
    """The ciphertext of ``fill`` values in ``data``, whose header must name
    exactly one of the session's two wire forms: a whole fresh (c0, c1)
    pair, as a site sends it, or, if ``row``, one c0 row a level below cut
    to its value columns (``c0_row``), as the aggregate is broadcast."""
    ctx = _context(params)
    if len(data) < _HEADER.size:
        raise DecodeError("ciphertext buffer shorter than header")
    header = _HEADER.unpack_from(data)
    level = params.fresh_level - 1 if row else params.fresh_level
    expected = (ctx.hash, level, params.scale_log2, fill)
    if header != expected:
        got, want = (
            f"params {h.hex()}, level {lv}, scale 2^{sc}, fill {n}" for h, lv, sc, n in (header, expected)
        )
        raise DecodeError(f"header gives {got}; expected {want}")
    components, width = (1, fill) if row else (2, params.poly_degree)
    size = _HEADER.size + components * (level + 1) * width * 8
    if len(data) != size:
        raise DecodeError(f"expected {size} bytes, got {len(data)}")
    body = np.frombuffer(data, dtype="<u8", offset=_HEADER.size)
    comps = body.reshape(components, level + 1, width).astype(np.uint64)
    if np.any(comps >= ctx.level_fields[level].q):
        raise DecodeError("coefficient outside its prime modulus")
    return Ciphertext(comps, level, params.scale, fill, params)
