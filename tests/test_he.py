import dataclasses
import hashlib
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from privfed.errors import (
    CapacityError,
    ConfigError,
    DecodeError,
    DepthExhaustedError,
    LayoutError,
    StateError,
)
from privfed.he import (
    DEFAULT_PARAMS,
    TEST_PARAMS,
    Ciphertext,
    CkksParams,
    add,
    c0_row,
    decode,
    decrypt,
    deserialize_ct,
    encode,
    encrypt,
    keygen,
    mul_scalar_rescale,
    pack_update,
    sample_a,
    serialize_ct,
    unpack_update,
    with_c1,
)
from privfed.he import ckks
from privfed.he.ckks import _context, _mul_secret, _sample_cbd, _secret_spectrum
from privfed.he.ntt import PrimeField, _bit_reverse_indices, _find_psi, generate_ntt_primes


def mulmod(field, a, b):
    """a*b mod q over Python ints, row i mod prime i."""
    q = np.array(field.primes, dtype=object)[:, None]
    return (a.astype(object) * b.astype(object) % q).astype(np.uint64).reshape(np.shape(a))


@pytest.fixture(scope="module")
def keys():
    return keygen(TEST_PARAMS, np.random.default_rng(11))


def roundtrip(values, keys, rng_seed=0, params=TEST_PARAMS):
    rng = np.random.default_rng(rng_seed)
    ct = encrypt(encode(values, params), keys, rng)
    return decode(decrypt(ct, keys))


# Transform sizes from the smallest degree a CKKS test draws (8) to the default.
DEGREES = (8, 16, 128, 1024, 8192)


def stacked_residues(field, seed):
    """(L, N) random residues with runs of q - 1 and 0 in every row."""
    rng = np.random.default_rng(seed)
    a = np.stack([rng.integers(0, q, field.n, dtype=np.uint64) for q in field.primes])
    for i, q in enumerate(field.primes):
        a[i, : field.n // 8] = q - 1
        a[i, field.n // 8 : field.n // 4] = 0
    return a


def sample_positions(n):
    """Every output index for small n, else a spread including both ends."""
    if n <= 128:
        return range(n)
    return sorted({0, 1, n // 8 - 1, n // 4, n // 2 - 1, n // 2 + 1, n - 2, n - 1})


def negacyclic_coeff(x, y, k):
    """Coefficient k of x * y in Z[X]/(X^n + 1), over Python ints."""
    n = len(x)
    return sum(x[j] * y[k - j] for j in range(k + 1)) - sum(x[j] * y[n + k - j] for j in range(k + 1, n))


def eval_at_odd_psi_power(coeffs, psi, j, brv, q):
    """a(psi^(2*brv(j)+1)) mod q by Horner's rule over Python ints."""
    x = pow(psi, 2 * int(brv[j]) + 1, q)
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


class TestNttLayer:
    def test_negacyclic_convolution_oracle(self):
        # O(n) Python-int reference per output coefficient, on a two-prime stack
        for n in DEGREES:
            field = PrimeField(generate_ntt_primes([30, 40], n), n)
            a = stacked_residues(field, 3)
            b = stacked_residues(field, 4)[:, ::-1].copy()
            got = field.intt(mulmod(field, field.ntt(a), field.ntt(b)))
            for i, q in enumerate(field.primes):
                x = [int(v) for v in a[i]]
                y = [int(v) for v in b[i]]
                for k in sample_positions(n):
                    assert int(got[i, k]) == negacyclic_coeff(x, y, k) % q, (n, i, k)

    def test_transform_roundtrip(self):
        for n in DEGREES:
            field = PrimeField(generate_ntt_primes([40, 60], n), n)
            a = stacked_residues(field, 5)
            assert np.array_equal(field.intt(field.ntt(a)), a), n
            assert np.array_equal(field.ntt(field.intt(a)), a), n
            one = PrimeField(field.primes[0], n)
            assert np.array_equal(one.intt(one.ntt(a[0])), a[0]), n

    @pytest.mark.parametrize("n", DEGREES)
    def test_ntt_evaluates_at_odd_powers_of_psi(self, n):
        # output j of the bit-reversed negacyclic NTT is a(psi^(2*brv(j)+1))
        field = PrimeField(generate_ntt_primes([60, 40], n), n)
        a = stacked_residues(field, 6)
        got = field.ntt(a)
        brv = _bit_reverse_indices(n)
        for i, q in enumerate(field.primes):
            coeffs = [int(c) for c in a[i]]
            psi = _find_psi(q, n)
            for j in sample_positions(n):
                assert int(got[i, j]) == eval_at_odd_psi_power(coeffs, psi, j, brv, q), (n, i, j)

    def test_primes_are_ntt_friendly(self):
        primes = generate_ntt_primes([60, 40, 40], 8192)
        assert len(set(primes)) == 3
        for p, bits in zip(primes, (60, 40, 40)):
            assert p % (2 * 8192) == 1
            assert p.bit_length() == bits


class TestStackedField:
    """A field over a stack of primes must agree bit for bit with one
    single-prime field per row, on batched (B, L, N) inputs."""

    N = 8192
    BITS = (60, 40, 40)

    @pytest.fixture(scope="class")
    def fields(self):
        primes = generate_ntt_primes(self.BITS, self.N)
        return PrimeField(primes, self.N), [PrimeField(q, self.N) for q in primes]

    def residues(self, primes, seed):
        rng = np.random.default_rng(seed)
        out = np.stack([rng.integers(0, q, (2, self.N), dtype=np.uint64) for q in primes], axis=1)
        for i, q in enumerate(primes):
            # edge residues for the Shoup quotient and the min-trick reductions
            out[0, i, :64] = q - 1
            out[0, i, 64:128] = 0
            out[1, i, ::7] = q - 1
        return out

    def per_row(self, singles, fn, *arrays):
        return np.stack(
            [
                np.stack([fn(f, *(x[b, i] for x in arrays)) for i, f in enumerate(singles)])
                for b in range(arrays[0].shape[0])
            ]
        )

    def test_transforms_match_single_rows(self, fields):
        stacked, singles = fields
        a = self.residues(stacked.primes, 40)
        assert np.array_equal(stacked.ntt(a), self.per_row(singles, PrimeField.ntt, a))
        assert np.array_equal(stacked.intt(a), self.per_row(singles, PrimeField.intt, a))
        assert np.array_equal(stacked.intt(stacked.ntt(a)), a)

    def test_elementwise_match_single_rows(self, fields):
        stacked, singles = fields
        a = self.residues(stacked.primes, 41)
        assert np.array_equal(stacked.centered(a), self.per_row(singles, PrimeField.centered, a))
        signed = np.random.default_rng(43).integers(-(2**62), 2**62, a.shape)
        signed[0, :, :3] = [-1, 0, 2**62 - 1]
        assert np.array_equal(
            stacked.reduce_signed(signed), self.per_row(singles, PrimeField.reduce_signed, signed)
        )
        small = signed >> 24  # below every prime in magnitude: the division-free path
        assert np.array_equal(stacked.reduce_signed(small), small % stacked.q_signed)

    def test_products_and_lifts_against_python_ints(self, fields):
        stacked, _ = fields
        a = self.residues(stacked.primes, 44)
        b = self.residues(stacked.primes, 45)[::-1]
        c = [2**70 + 11, 3**40, 5]
        sums, diffs, got = stacked.add(a, b), stacked.sub(a, b), stacked.mul_const(a, c)
        cent = stacked.centered(a)
        for i, q in enumerate(stacked.primes):
            for j in (0, 63, 64, 65, 700, self.N - 1):
                x, y = int(a[0, i, j]), int(b[0, i, j])
                assert (int(sums[0, i, j]), int(diffs[0, i, j])) == ((x + y) % q, (x - y) % q)
                assert int(got[0, i, j]) == x * c[i] % q
                assert int(cent[0, i, j]) % q == int(a[0, i, j])
                assert -q // 2 < int(cent[0, i, j]) <= q // 2

    def test_ntt_evaluates_at_odd_powers_of_psi(self, fields):
        # output i of the bit-reversed negacyclic NTT is a(psi^(2*brv(i)+1))
        stacked, _ = fields
        a = self.residues(stacked.primes, 46)
        got = stacked.ntt(a)
        brv = _bit_reverse_indices(self.N)
        for i, q in enumerate(stacked.primes):
            psi = _find_psi(q, self.N)
            coeffs = [int(c) for c in a[0, i]]
            for j in (0, 1, 4097, self.N - 1):
                assert int(got[0, i, j]) == eval_at_odd_psi_power(coeffs, psi, j, brv, q)

    def test_select_matches_the_stack(self, fields):
        stacked, singles = fields
        low = stacked.select(0, 2)
        assert low.primes == stacked.primes[:2]
        a = self.residues(stacked.primes, 47)
        assert np.array_equal(low.ntt(a[:, :2]), stacked.ntt(a)[:, :2])
        assert np.array_equal(low.intt(a[:, :2]), stacked.intt(a)[:, :2])
        assert stacked.select(2, 3).q_int == singles[2].q_int

    def test_mul_const_against_python_ints(self, fields):
        # the product by a per-prime constant (a CKKS scalar, 1/q_last) at
        # edge residues: a = q-1 and a = 0 meet 0, 1, q-1 and a constant >= q
        stacked, _ = fields
        a = self.residues(stacked.primes, 48)
        q = np.array(stacked.primes, dtype=object)[:, None]
        for consts in (
            [0] * 3,
            [1] * 3,
            [p - 1 for p in stacked.primes],
            [p + 12345 for p in stacked.primes],
            [2**64 - 1, 2**100 + 7, 3 * stacked.primes[2] - 1],
        ):
            got = stacked.mul_const(a, consts)
            want = a.astype(object) * np.array(consts, dtype=object)[:, None] % q
            assert np.array_equal(got, want), consts


class TestSecretProduct:
    """The one ring product CKKS needs, residues times the ternary secret, is
    a limb-split float FFT product; it must equal the NTT product bit for bit."""

    @staticmethod
    def ntt_product(field, rows, s):
        secret = field.ntt(field.reduce_signed(np.broadcast_to(s, rows.shape)))
        return field.intt(mulmod(field, field.ntt(rows), secret))

    def check_every_level(self, params, rows, s):
        ctx = _context(params)
        spectrum = _secret_spectrum(ctx, s)
        full = PrimeField(ctx.active_primes, params.poly_degree)
        for level in range(len(ctx.active_primes)):
            field = full.select(0, level + 1)
            got = _mul_secret(ctx, rows[: level + 1], spectrum)
            assert np.array_equal(got, self.ntt_product(field, rows[: level + 1], s)), level

    @pytest.mark.parametrize("params", [DEFAULT_PARAMS, TEST_PARAMS], ids=["default", "test"])
    @pytest.mark.parametrize("secret", ["random", "plus_ones", "minus_ones"])
    def test_equals_the_ntt_product(self, params, secret):
        n = params.poly_degree
        rng = np.random.default_rng(60)
        s = {
            "random": rng.integers(-1, 2, n),
            "plus_ones": np.ones(n, dtype=np.int64),
            "minus_ones": -np.ones(n, dtype=np.int64),
        }[secret]
        primes = _context(params).active_primes
        self.check_every_level(params, np.stack([rng.integers(0, q, n, dtype=np.uint64) for q in primes]), s)
        top = np.array([[q - 1] for q in primes], dtype=np.uint64)
        self.check_every_level(params, np.repeat(top, n, axis=1), s)

    @settings(max_examples=40, deadline=None)
    @given(
        log_degree=st.integers(3, 12),
        bits=st.lists(st.integers(20, 61), min_size=2, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_ntt_product_at_any_size(self, log_degree, bits, seed):
        n = 1 << log_degree
        try:
            params = CkksParams(n, bits, 1)
            primes = _context(params).active_primes
        except ValueError:  # no distinct NTT primes of these sizes for this degree
            assume(False)
        rng = np.random.default_rng(seed)
        rows = np.stack([rng.integers(0, q, n, dtype=np.uint64) for q in primes])
        rows[:, rng.integers(0, n, n // 4)] = np.array([[q - 1] for q in primes], dtype=np.uint64)
        self.check_every_level(params, rows, rng.integers(-1, 2, n))

    @pytest.mark.parametrize(
        "params",
        [CkksParams(8, (61, 40, 20), 1), CkksParams(16, (30, 30, 30), 1), CkksParams(64, (60, 50, 40), 1)],
        ids=["n8", "n16", "n64"],
    )
    def test_equals_the_schoolbook_product(self, params):
        # an oracle that runs no NTT: the negacyclic product in Python ints
        n = params.poly_degree
        primes = _context(params).active_primes
        rng = np.random.default_rng(65)
        rows = np.stack([rng.integers(0, q, n, dtype=np.uint64) for q in primes])
        rows[:, : n // 4] = np.array([[q - 1] for q in primes], dtype=np.uint64)
        s = rng.integers(-1, 2, n)
        want = [[negacyclic_coeff([int(v) for v in row], [int(v) for v in s], k) % q for k in range(n)]
                for row, q in zip(rows, primes)]
        spectrum = _secret_spectrum(_context(params), s)
        for level in range(len(primes)):
            got = _mul_secret(_context(params), rows[: level + 1], spectrum)
            assert got.tolist() == want[: level + 1], level

    def test_top_rows_times_the_all_ones_secret(self):
        # the extreme input: every row q - 1 takes half the 60-bit prime's
        # coefficients through the [-q, 0) correction and gives the largest
        # float error seen; by s = 1, coefficient k is
        # sum_{j<=k} r_j - sum_{j>k} r_j mod q
        ctx = _context(DEFAULT_PARAMS)
        n = DEFAULT_PARAMS.poly_degree
        rows = np.array([[q - 1] * n for q in ctx.active_primes], dtype=np.uint64)
        got = _mul_secret(ctx, rows, _secret_spectrum(ctx, np.ones(n, dtype=np.int64)))
        for i, (row, q) in enumerate(zip(rows, ctx.active_primes)):
            prefix = np.cumsum(row.astype(object))
            assert got[i].tolist() == ((2 * prefix - prefix[-1]) % q).tolist(), i

    def test_quotient_estimate_one_short_is_corrected(self):
        # the float quotient can fall one short, leaving a remainder in
        # [q, 2q) that the last correction brings down.  With s = 1,
        # coefficient 1 is r_0 + r_1 - sum_{j>1} r_j; rows 0 and 1 fill the
        # high limb and the others the low one, so that its limb products are
        # (c_0, c_1) with c_0 + c_1 2^20 = q, whose float estimate falls
        # below 1 at the 40-bit prime of the default chain (found by a
        # search over c_1)
        ctx = _context(DEFAULT_PARAMS)
        n, q = DEFAULT_PARAMS.poly_degree, ctx.active_primes[1]
        high = (q >> 20) + 132
        low = (high << 20) - q  # -c_0
        row = np.zeros(n, dtype=np.uint64)
        row[0], row[1] = (high - (1 << 20) + 1) << 20, ((1 << 20) - 1) << 20
        row[2 : 2 + low // ((1 << 20) - 1)] = (1 << 20) - 1
        row[2 + low // ((1 << 20) - 1)] = low % ((1 << 20) - 1)
        part = ctx.limb_rows[1]
        estimate = (q - (high << 20)) * ctx.limb_ratio[part.start] + high * ctx.limb_ratio[part.stop - 1]
        assert estimate < 1.0
        rows = np.stack([np.zeros(n, dtype=np.uint64), row])
        got = _mul_secret(ctx, rows, _secret_spectrum(ctx, np.ones(n, dtype=np.int64)))
        prefix = np.cumsum(row.astype(object))
        assert got[1].tolist() == ((2 * prefix - prefix[-1]) % q).tolist()
        assert got[1, 1] == 0

    def test_result_is_fresh_and_the_work_buffer_reused(self):
        ctx = _context(TEST_PARAMS)
        rng = np.random.default_rng(66)
        spectrum = _secret_spectrum(ctx, rng.integers(-1, 2, 1024))
        rows = [sample_a(TEST_PARAMS, rng) for _ in range(2)]
        first = _mul_secret(ctx, rows[0], spectrum)
        kept = first.copy()
        buffer = ctx.work_buffer(1)
        _mul_secret(ctx, rows[1], spectrum)
        assert ctx.work_buffer(1) is buffer
        assert not np.shares_memory(first, buffer)
        assert np.array_equal(first, kept)

    def test_threads_keep_their_own_work_buffers(self):
        # numpy releases the GIL inside the FFTs, so a buffer shared between
        # threads would mix their limbs; switch threads as often as possible
        ctx = _context(TEST_PARAMS)
        rng = np.random.default_rng(67)
        spectrum = _secret_spectrum(ctx, rng.integers(-1, 2, 1024))
        rows = [sample_a(TEST_PARAMS, rng) for _ in range(6)]
        want = [_mul_secret(ctx, r, spectrum) for r in rows]
        wrong = []

        def work(offset):
            for k in range(60):
                i = (offset + k) % len(rows)
                if not np.array_equal(_mul_secret(ctx, rows[i], spectrum), want[i]):
                    wrong.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(offset,)) for offset in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []

    def test_guard_refuses_an_inexact_product(self, monkeypatch):
        key = keygen(TEST_PARAMS, np.random.default_rng(61))
        pt = encode([0.5], TEST_PARAMS)
        ct = encrypt(pt, key, np.random.default_rng(62))
        original = ckks._secret_spectrum
        monkeypatch.setattr(ckks, "_secret_spectrum", lambda ctx, s: original(ctx, s) * (1 + 1e-6))
        bad = keygen(TEST_PARAMS, np.random.default_rng(61))
        with pytest.raises(StateError, match="not exact"):
            encrypt(pt, bad, np.random.default_rng(62))
        with pytest.raises(StateError, match="not exact"):
            decrypt(ct, bad)

    def test_no_transform_runs(self, monkeypatch):
        calls = []
        for name in ("ntt", "intt"):

            def spy(self, a, name=name, original=getattr(PrimeField, name)):
                calls.append(name)
                return original(self, a)

            monkeypatch.setattr(PrimeField, name, spy)
        key = keygen(DEFAULT_PARAMS, np.random.default_rng(63))
        rng = np.random.default_rng(64)
        cts = [encrypt(encode(np.full(66, k / 10), DEFAULT_PARAMS), key, rng) for k in range(4)]
        total = add(add(cts[0], cts[1]), add(cts[2], cts[3]))
        out = decode(decrypt(mul_scalar_rescale(total, 0.25), key))
        assert np.abs(out - 0.15).max() < 1e-6
        assert calls == []
        # the context's fields never built their twiddle tables
        assert all("_twiddles" not in vars(field) for field in _context(DEFAULT_PARAMS).level_fields)


class TestGoldenBytes:
    """Ciphertext bytes and decoded values are pinned: a kernel change that
    alters any bit of a fresh ciphertext, an aggregate or its decoding fails
    here.  Values are the first 16 hex digits of SHA-256."""

    @pytest.mark.parametrize(
        "params, fresh, aggregate, decoded",
        [
            (TEST_PARAMS, "60744f08bc0001f4", "3c1edd81f4cb8c4c", "cd8fc3b1e318b3c4"),
            (DEFAULT_PARAMS, "bbc4df3eb49d1770", "714d64e9bf28ce67", "60a2e59a1747f299"),
        ],
        ids=["test_params", "default_params"],
    )
    def test_fixed_seed_hashes(self, params, fresh, aggregate, decoded):
        def digest(data: bytes) -> str:
            return hashlib.sha256(data).hexdigest()[:16]

        key = keygen(params, np.random.default_rng(2024))
        rng = np.random.default_rng(7)
        cts = [
            encrypt(encode(np.linspace(-0.01, 0.01, 66) * k, params), key, rng)
            for k in range(1, 5)
        ]
        total = cts[0]
        for ct in cts[1:]:
            total = add(total, ct)
        agg = mul_scalar_rescale(total, 0.25)
        assert digest(serialize_ct(cts[0])) == fresh
        assert digest(serialize_ct(agg)) == aggregate
        assert digest(decode(decrypt(agg, key)).tobytes()) == decoded


class TestKeygen:
    def test_zero_roundtrip(self):
        # needs the full 2^40 scale for the 1e-6 bound; still fast
        full_keys = keygen(DEFAULT_PARAMS, np.random.default_rng(30))
        out = roundtrip(np.zeros(DEFAULT_PARAMS.slot_count), full_keys, params=DEFAULT_PARAMS)
        assert np.abs(out).max() < 1e-6

    def test_different_seeds_different_keys(self):
        a = keygen(TEST_PARAMS, np.random.default_rng(1))
        b = keygen(TEST_PARAMS, np.random.default_rng(2))
        assert not np.array_equal(a.secret, b.secret)

    def test_deterministic_given_seed(self):
        a = keygen(TEST_PARAMS, np.random.default_rng(7))
        b = keygen(TEST_PARAMS, np.random.default_rng(7))
        assert a.secret.tobytes() == b.secret.tobytes()

    def test_roundtrip_bound_over_random_vectors(self, keys):
        rng = np.random.default_rng(8)
        worst = 0.0
        for seed in range(20):
            v = rng.uniform(-1, 1, TEST_PARAMS.slot_count)
            out = roundtrip(v, keys, rng_seed=seed)
            worst = max(worst, np.abs(out - v).max())
        assert worst < 1e-4


class TestEncoding:
    def test_zero_vector_exact(self):
        pt = encode(np.zeros(16), TEST_PARAMS)
        assert np.abs(decode(pt)).max() < 1e-9

    def test_roundtrip_error_bound(self):
        v = np.random.default_rng(9).uniform(-1, 1, TEST_PARAMS.slot_count)
        assert np.abs(decode(encode(v, TEST_PARAMS)) - v).max() < 1e-7

    def test_full_slot_roundtrip_at_default_scale(self):
        v = np.random.default_rng(90).uniform(-1, 1, DEFAULT_PARAMS.slot_count)
        assert np.abs(decode(encode(v, DEFAULT_PARAMS)) - v).max() < 1e-7

    def test_single_value_occupies_slot_zero(self):
        # value k lies in coefficient k alone, as its rounded multiple of
        # the scale, and no other coefficient is set
        scale = TEST_PARAMS.scale
        field = _context(TEST_PARAMS).level_fields[TEST_PARAMS.fresh_level]
        for v in ([0.625], [0.625, -0.5]):
            pt = encode(v, TEST_PARAMS)
            out = decode(pt)
            assert out.shape == (len(v),)
            assert np.abs(out - v).max() < 1e-6
            message = np.zeros(TEST_PARAMS.poly_degree, dtype=np.int64)
            message[: len(v)] = np.rint(np.multiply(v, scale))
            assert np.array_equal(pt.residues, field.reduce_signed(message[None]))

    @pytest.mark.parametrize(
        "fill, width", [(0, 2), (1, 2), (2, 2), (3, 4), (11, 16), (66, 128), (100, 128), (512, 512)]
    )
    def test_sparse_message_lies_in_the_subring(self, fill, width):
        # a message lies in its first ``fill`` coefficients, so read at the
        # wider fill ``width`` it decodes to its values and then exact zeros
        v = np.random.default_rng(91).uniform(-1, 1, fill)
        pt = encode(v, TEST_PARAMS)
        assert not pt.residues[:, fill:].any()
        out = decode(pt)
        assert out.shape == (fill,)
        assert np.allclose(out, v, rtol=0, atol=1e-7)
        wide = decode(dataclasses.replace(pt, slot_fill=width))
        assert wide[:fill].tobytes() == out.tobytes()
        assert not wide[fill:].any()

    @pytest.mark.parametrize("fill", [1, 3, 11, 65, 511])
    def test_odd_fill_pads_its_last_slot_with_zero(self, keys, fill):
        # whatever the fill's parity, a value read past it is exactly zero,
        # in the plaintext, and up to the noise once encrypted
        v = np.random.default_rng(95).uniform(-1, 1, fill)
        pt = encode(v, TEST_PARAMS)
        out = decode(dataclasses.replace(pt, slot_fill=fill + 1))
        assert np.abs(out[:fill] - v).max() < 1e-7
        assert out[fill] == 0.0
        ct = encrypt(pt, keys, np.random.default_rng(97))
        out = decode(decrypt(dataclasses.replace(ct, slot_fill=fill + 1), keys))
        assert abs(out[fill]) < 1e-7

    @settings(max_examples=60, deadline=None)
    @given(fill=st.integers(1, TEST_PARAMS.slot_count), seed=st.integers(0, 2**32 - 1))
    def test_roundtrip_at_any_fill(self, keys, fill, seed):
        rng = np.random.default_rng(seed)
        v = rng.uniform(-1, 1, fill)
        pt = encode(v, TEST_PARAMS)
        assert np.abs(decode(pt) - v).max() < 1e-7
        out = decode(decrypt(encrypt(pt, keys, rng), keys))
        assert out.shape == (fill,)
        assert np.abs(out - v).max() < 1e-4

    def test_full_chunk_is_its_scaled_values_rounded(self):
        # N/2 values take coefficients 0 to N/2 - 1, each rint(v * scale),
        # and decode divides them by the scale, bit for bit both ways
        scale = DEFAULT_PARAMS.scale
        v = np.random.default_rng(92).uniform(-1, 1, DEFAULT_PARAMS.slot_count)
        pt = encode(v, DEFAULT_PARAMS)
        coeffs = np.rint(v * scale)
        message = np.zeros(DEFAULT_PARAMS.poly_degree, dtype=np.int64)
        message[: v.size] = coeffs
        field = _context(DEFAULT_PARAMS).level_fields[pt.level]
        assert np.array_equal(pt.residues, field.reduce_signed(message[None]))
        assert decode(pt).tobytes() == (coeffs / scale).tobytes()

    def test_decode_reads_the_subring_columns_alone(self):
        # decode reads the first ``fill`` coefficients and no other
        pt = encode(np.random.default_rng(93).uniform(-1, 1, 11), TEST_PARAMS)
        noisy = sample_a(TEST_PARAMS, np.random.default_rng(94))
        noisy[:, :11] = pt.residues[:, :11]
        assert decode(dataclasses.replace(pt, residues=noisy)).tobytes() == decode(pt).tobytes()

    def test_overflow_and_non_finite_values_refused(self):
        # 2^32 * 2^30 = 2^62 reaches the headroom; NaN compares false to
        # every bound, so the check is written to refuse it too
        for bad in (2.0**32, -(2.0**32), np.nan, np.inf):
            with pytest.raises(CapacityError, match=r"finite and below 2\^62"):
                encode([0.5, bad], TEST_PARAMS)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            encode(np.ones(TEST_PARAMS.slot_count + 1), TEST_PARAMS)


class TestEncryptDecrypt:
    def test_roundtrip(self, keys):
        v = np.random.default_rng(10).uniform(-1, 1, TEST_PARAMS.slot_count)
        assert np.abs(roundtrip(v, keys) - v).max() < 1e-4

    def test_zeros(self, keys):
        assert np.abs(roundtrip(np.zeros(64), keys)).max() < 1e-4

    def test_randomized_encryption(self, keys):
        v = np.ones(32)
        pt = encode(v, TEST_PARAMS)
        a = encrypt(pt, keys, np.random.default_rng(1))
        b = encrypt(pt, keys, np.random.default_rng(2))
        assert not np.array_equal(a.c0, b.c0)
        assert not np.array_equal(a.c1, b.c1)  # a fresh uniform a per encryption
        assert np.abs(decode(decrypt(a, keys)) - 1).max() < 1e-4
        assert np.abs(decode(decrypt(b, keys)) - 1).max() < 1e-4

    def test_key_mismatch_rejected(self, keys):
        other = CkksParams(512, (40, 30, 30), 30)
        other_keys = keygen(other, np.random.default_rng(0))
        pt = encode([1.0], TEST_PARAMS)
        with pytest.raises(StateError):
            encrypt(pt, other_keys, np.random.default_rng(0))


class TestSecretKeyEncryption:
    """A fresh ciphertext is (c0, c1) = (-a*s + e + m, a) with a fresh
    uniform a; e is the first draw of the encryption RNG."""

    @pytest.mark.parametrize("params", [TEST_PARAMS, DEFAULT_PARAMS])
    def test_residual_is_the_sampled_error(self, params):
        key = keygen(params, np.random.default_rng(50))
        pt = encode(np.random.default_rng(51).uniform(-1, 1, 66), params)
        ct = encrypt(pt, key, np.random.default_rng(52))
        field = _context(params).level_fields[ct.level]
        residual = field.centered(field.sub(decrypt(ct, key).residues, pt.residues))
        error = _sample_cbd(np.random.default_rng(52), params.poly_degree)
        assert np.abs(residual).max() <= 21
        for row in residual:
            assert np.array_equal(row, error)

    @pytest.mark.parametrize("params", [TEST_PARAMS, DEFAULT_PARAMS])
    def test_a_given_is_the_a_the_stream_would_draw(self, params):
        # given a, encrypt draws only e; with none it draws a right after e
        key = keygen(params, np.random.default_rng(50))
        pt = encode(np.random.default_rng(51).uniform(-1, 1, 66), params)
        stream = np.random.default_rng(52)
        _sample_cbd(stream, params.poly_degree)
        a = sample_a(params, stream)
        ct = encrypt(pt, key, np.random.default_rng(52), a=a)
        assert np.array_equal(ct.c1, a)
        assert np.array_equal(ct.comps, encrypt(pt, key, np.random.default_rng(52)).comps)
        with pytest.raises(StateError, match="a has shape"):
            encrypt(pt, key, np.random.default_rng(52), a=a[:1])

    def test_other_secret_decrypts_to_garbage(self, keys):
        v = np.random.default_rng(53).uniform(-1, 1, 66)
        ct = encrypt(encode(v, TEST_PARAMS), keys, np.random.default_rng(54))
        other = keygen(TEST_PARAMS, np.random.default_rng(12))
        assert np.abs(roundtrip(v, keys, rng_seed=54) - v).max() < 1e-3
        assert np.median(np.abs(decode(decrypt(ct, other)) - v)) > 1e3

    def test_error_is_centered_binomial_21(self):
        e = _sample_cbd(np.random.default_rng(55), 10**6)
        assert e.dtype == np.int64
        assert np.abs(e).max() <= 21
        assert abs(e.mean()) < 0.01
        assert abs(e.var() / 10.5 - 1) < 0.01


class TestAdd:
    def test_additive_identity(self, keys):
        rng = np.random.default_rng(12)
        v = rng.uniform(-1, 1, 100)
        ct = encrypt(encode(v, TEST_PARAMS), keys, rng)
        zero = encrypt(encode(np.zeros(100), TEST_PARAMS), keys, rng)
        out = decode(decrypt(add(ct, zero), keys))
        assert np.abs(out - v).max() < 1e-3

    def test_four_client_sum(self, keys):
        rng = np.random.default_rng(13)
        cts = [encrypt(encode(np.ones(16), TEST_PARAMS), keys, rng) for _ in range(4)]
        total = cts[0]
        for ct in cts[1:]:
            total = add(total, ct)
        out = decode(decrypt(total, keys))
        assert np.abs(out - 4.0).max() < 1e-3

    def test_commutative(self, keys):
        rng = np.random.default_rng(14)
        a = encrypt(encode([0.25, -0.5], TEST_PARAMS), keys, rng)
        b = encrypt(encode([0.125, 0.75], TEST_PARAMS), keys, rng)
        ab = decode(decrypt(add(a, b), keys))
        ba = decode(decrypt(add(b, a), keys))
        assert np.abs(ab - ba).max() < 1e-9

    def test_level_mismatch_rejected(self, keys):
        rng = np.random.default_rng(15)
        a = encrypt(encode([1.0], TEST_PARAMS), keys, rng)
        b = mul_scalar_rescale(encrypt(encode([1.0], TEST_PARAMS), keys, rng), 1.0)
        with pytest.raises(StateError):
            add(a, b)

    def test_different_sparse_widths_refused(self, keys):
        # cut to their value columns, fills 16 and 100 hold different
        # column counts, which add refuses; with_c1 refuses a cut c0 whose
        # columns are not its fill
        rng = np.random.default_rng(17)
        a = encrypt(encode(np.ones(16), TEST_PARAMS), keys, rng)
        b = encrypt(encode(np.ones(100), TEST_PARAMS), keys, rng)
        cut_a, cut_b = c0_row(a), c0_row(b)
        with pytest.raises(StateError, match="component shapes differ"):
            add(cut_a, cut_b)
        c1 = dataclasses.replace(b, comps=b.comps[1:])
        with pytest.raises(StateError, match="c0 has 16 columns"):
            with_c1(dataclasses.replace(cut_a, slot_fill=100), c1)

    def test_same_sparse_width_adds(self, keys):
        # whole operands of fills 16, 70 and 100 add as if zero-padded:
        # each one's values past its fill are zeros
        rng = np.random.default_rng(18)
        cts = [
            encrypt(encode(np.full(fill, x), TEST_PARAMS), keys, rng)
            for fill, x in ((16, 1.0), (70, 0.5), (100, 0.25))
        ]
        total = add(add(cts[0], cts[1]), cts[2])
        assert total.slot_fill == 100
        out = decode(decrypt(total, keys))
        assert np.abs(out - np.r_[np.full(16, 1.75), np.full(54, 0.75), np.full(30, 0.25)]).max() < 1e-3

    def test_whole_and_subring_operands_refused(self, keys):
        ct = encrypt(encode(np.ones(11), TEST_PARAMS), keys, np.random.default_rng(19))
        with pytest.raises(StateError, match="component shapes differ"):
            add(ct, c0_row(ct))


class TestOneComponent:
    """A ``c0_row`` and c1 add, scale and rescale alone, and ``with_c1``
    joins them into a ciphertext that decodes as the two-component
    operations' result does."""

    def test_halves_at_other_levels_refused(self, keys):
        ct = encrypt(encode([0.5], TEST_PARAMS), keys, np.random.default_rng(71))
        c0 = c0_row(ct)
        c1 = mul_scalar_rescale(dataclasses.replace(ct, comps=ct.comps[1:]), 1.0)
        with pytest.raises(StateError, match="c0 is at level 1"):
            with_c1(c0, c1)

    @pytest.mark.parametrize("fill", [1, 11, 66, 300, 512])
    def test_subring_c0_decodes_to_the_full_result(self, keys, fill):
        # c0 summed and rescaled at its first ``fill`` columns alone, and
        # c1 summed and rescaled alone, equal the whole aggregate's halves,
        # and rejoined they decode as the whole aggregate does
        rng = np.random.default_rng(73)
        cts = [encrypt(encode(rng.uniform(-1, 1, fill), TEST_PARAMS), keys, rng) for _ in range(3)]
        full = mul_scalar_rescale(add(add(cts[0], cts[1]), cts[2]), 1 / 3)
        c0, c1 = (
            mul_scalar_rescale(add(add(cut(cts[0]), cut(cts[1])), cut(cts[2])), 1 / 3)
            for cut in (c0_row, lambda ct: dataclasses.replace(ct, comps=ct.comps[1:]))
        )
        assert c0.comps.shape == (1, 1, fill)
        assert np.array_equal(c0.comps, full.comps[:1, :, :fill])
        assert np.array_equal(c1.comps, full.comps[1:])
        rejoined = with_c1(c0, c1)
        assert decode(decrypt(rejoined, keys)).tobytes() == decode(decrypt(full, keys)).tobytes()

    def test_serialized_subring_c0_reads_back_at_its_width(self, keys):
        # a row a level below fresh, the aggregate's form, reads back only
        # as a row; a whole c0 and a fresh-level row, which no party sends,
        # read back as neither wire form
        ct = encrypt(encode(np.ones(11), TEST_PARAMS), keys, np.random.default_rng(74))
        c0 = c0_row(mul_scalar_rescale(ct, 1.0))
        blob = serialize_ct(c0)
        assert len(blob) == 15 + 11 * 8  # one row of 11 columns at level 0
        back = deserialize_ct(blob, TEST_PARAMS, 11, row=True)
        assert np.array_equal(back.comps, c0.comps)
        with pytest.raises(DecodeError, match="expected"):
            deserialize_ct(blob, TEST_PARAMS, 11)
        whole_c0 = serialize_ct(ct)[: 15 + ct.c0.nbytes]
        for row in (False, True):
            with pytest.raises(DecodeError, match="expected"):
                deserialize_ct(whole_c0, TEST_PARAMS, 11, row=row)
        for fresh in (ct, c0_row(ct)):
            with pytest.raises(DecodeError, match="level 1, .*; expected .*, level 0,"):
                deserialize_ct(serialize_ct(fresh), TEST_PARAMS, 11, row=True)
        with pytest.raises(StateError, match="does not decrypt"):
            decrypt(c0, keys)

    @settings(max_examples=40, deadline=None)
    @given(
        fill=st.integers(1, TEST_PARAMS.slot_count),
        other=st.integers(0, TEST_PARAMS.slot_count),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cut_c0_survives_the_wire(self, keys, fill, other, seed):
        # encrypt, rescale, cut c0 to its value columns, serialize, read
        # back, rejoin c1, decrypt and decode: the input comes back; the
        # cut row is the header and fill residues, and a header fill other
        # than the reader's, or a row at the fresh level, is refused
        assume(other != fill)
        rng = np.random.default_rng(seed)
        v = rng.uniform(-1, 1, fill)
        ct = encrypt(encode(v, TEST_PARAMS), keys, rng)
        with pytest.raises(DecodeError, match="expected"):
            deserialize_ct(serialize_ct(c0_row(ct)), TEST_PARAMS, fill, row=True)
        ct = mul_scalar_rescale(ct, 1.0)
        blob = serialize_ct(c0_row(ct))
        assert len(blob) == 15 + 8 * fill
        c0 = deserialize_ct(blob, TEST_PARAMS, fill, row=True)
        out = decode(decrypt(with_c1(c0, dataclasses.replace(ct, comps=ct.comps[1:])), keys))
        assert np.abs(out - v).max() < 1e-6
        relabelled = blob[:11] + struct.pack("<I", other) + blob[15:]
        for expected_fill in (fill, other):
            with pytest.raises(DecodeError, match="expected"):
                deserialize_ct(relabelled, TEST_PARAMS, expected_fill, row=True)


class TestMulScalarRescale:
    def test_identity_scalar(self, keys):
        rng = np.random.default_rng(16)
        v = rng.uniform(-1, 1, 50)
        ct = encrypt(encode(v, TEST_PARAMS), keys, rng)
        out = decode(decrypt(mul_scalar_rescale(ct, 1.0), keys))
        assert np.abs(out - v).max() < 1e-3

    def test_quarter_on_four_eight(self, keys):
        rng = np.random.default_rng(17)
        ct = encrypt(encode([4.0, 8.0], TEST_PARAMS), keys, rng)
        out = decode(decrypt(mul_scalar_rescale(ct, 0.25), keys))
        assert np.abs(out - [1.0, 2.0]).max() < 1e-3

    def test_scale_preserved_exactly(self, keys):
        ct = encrypt(encode([1.0], TEST_PARAMS), keys, np.random.default_rng(18))
        out = mul_scalar_rescale(ct, 0.5)
        assert out.scale == ct.scale
        assert out.level == ct.level - 1

    def test_exact_legal_depth_is_one(self, keys):
        # 3-prime chain: one prime reserved at encryption, one consumed by the
        # first rescale; the second call must fail
        ct = encrypt(encode([1.0], TEST_PARAMS), keys, np.random.default_rng(19))
        assert ct.level == 1
        once = mul_scalar_rescale(ct, 0.5)
        assert once.level == 0
        with pytest.raises(DepthExhaustedError):
            mul_scalar_rescale(once, 0.5)

    def test_scalar_homomorphism_bound(self, keys):
        rng = np.random.default_rng(20)
        for c in (-1.0, -0.3, 0.1, 0.9):
            v = rng.uniform(-1, 1, TEST_PARAMS.slot_count)
            ct = encrypt(encode(v, TEST_PARAMS), keys, rng)
            out = decode(decrypt(mul_scalar_rescale(ct, c), keys))
            assert np.abs(out - c * v).max() < 1e-3


class TestLevelAccounting:
    def test_fresh_level(self, keys):
        ct = encrypt(encode([1.0], TEST_PARAMS), keys, np.random.default_rng(21))
        assert ct.level == len(TEST_PARAMS.modulus_bits) - 2

    def test_add_preserves_level(self, keys):
        rng = np.random.default_rng(22)
        a = encrypt(encode([1.0], TEST_PARAMS), keys, rng)
        b = encrypt(encode([2.0], TEST_PARAMS), keys, rng)
        assert add(a, b).level == a.level


@pytest.mark.parametrize("params", [DEFAULT_PARAMS, TEST_PARAMS], ids=["default", "test"])
class TestTrailingPrime:
    """The last prime of the chain is encryption headroom: no key or
    ciphertext row is reduced mod it, so a security bound need not count it."""

    def test_in_no_field_of_the_context(self, params):
        trailing = generate_ntt_primes(params.modulus_bits, params.poly_degree)[-1]
        ctx = _context(params)
        fields = []
        for value in vars(ctx).values():
            for item in value if isinstance(value, list) else [value]:
                if isinstance(item, PrimeField):
                    fields.append(item)
        assert fields
        assert all(trailing not in field.primes for field in fields)
        assert trailing not in ctx.active_primes

    def test_key_and_fresh_ciphertext_rows(self, params):
        # the key is the secret's spectrum, reduced mod no prime at all
        key = keygen(params, np.random.default_rng(5))
        assert key.secret.dtype == np.complex128
        assert key.secret.shape == (params.poly_degree // 2,)
        rows = len(params.modulus_bits) - 1
        ct = encrypt(encode([1.0], params), key, np.random.default_rng(6))
        assert ct.c0.shape[0] == ct.c1.shape[0] == rows


class TestPacking:
    def test_lr_update_single_chunk(self):
        chunks = pack_update(np.ones(11), TEST_PARAMS)
        assert len(chunks) == 1

    def test_nn_update_single_chunk(self):
        chunks = pack_update(np.ones(66), TEST_PARAMS)
        assert len(chunks) == 1

    def test_one_past_slot_count_at_default_size(self):
        assert len(pack_update(np.ones(4097), DEFAULT_PARAMS)) == 2
        assert len(pack_update(np.ones(4096), DEFAULT_PARAMS)) == 1

    def test_chunks_hold_n_over_2_values(self):
        # a chunk holds N/2 values, one to a coefficient: NN's 66 cut into
        # two chunks at degree 128
        # two chunks at degree 128, and pack_update cuts by the same rule
        degree_128 = CkksParams(128, (40, 30, 30), 30)
        assert ckks.chunk_fills(66, degree_128) == [64, 2]
        assert [c.size for c in pack_update(np.arange(66.0), degree_128)] == [64, 2]
        assert ckks.chunk_fills(66, DEFAULT_PARAMS) == [66]

    def test_boundary_two_chunks_roundtrip(self, keys):
        n = TEST_PARAMS.slot_count + 1
        flat = np.random.default_rng(23).uniform(-1, 1, n)
        chunks = pack_update(flat, TEST_PARAMS)
        assert len(chunks) == 2
        rng = np.random.default_rng(24)
        cts = [encrypt(encode(c, TEST_PARAMS), keys, rng) for c in chunks]
        decoded = [decode(decrypt(ct, keys)) for ct in cts]
        back = unpack_update(decoded, n)
        assert np.abs(back - flat).max() < 1e-4

    def test_unpack_respects_manifest(self):
        # decode returns exactly a chunk's fill, so no chunk list carries
        # padding, and one longer than the update is refused
        assert unpack_update([np.arange(11.0)], 11).tobytes() == np.arange(11.0).tobytes()
        with pytest.raises(LayoutError):
            unpack_update([np.arange(16.0)], 11)

    def test_unpack_too_short_rejected(self):
        with pytest.raises(LayoutError):
            unpack_update([np.ones(4)], 10)


class TestSerialization:
    def test_bitwise_roundtrip(self, keys):
        ct = encrypt(
            encode(np.random.default_rng(25).uniform(-1, 1, 40), TEST_PARAMS),
            keys,
            np.random.default_rng(26),
        )
        back = deserialize_ct(serialize_ct(ct), TEST_PARAMS, 40)
        assert np.array_equal(back.c0, ct.c0)
        assert np.array_equal(back.c1, ct.c1)
        assert (back.level, back.scale, back.slot_fill) == (ct.level, ct.scale, ct.slot_fill)
        a = decode(decrypt(ct, keys))
        b = decode(decrypt(back, keys))
        assert np.array_equal(a, b)

    def test_size_grows_with_degree(self):
        small = CkksParams(1024, (40, 30, 30), 30)
        big = CkksParams(2048, (40, 30, 30), 30)
        rng = np.random.default_rng(27)
        ct_small = encrypt(encode([1.0], small), keygen(small, rng), rng)
        ct_big = encrypt(encode([1.0], big), keygen(big, rng), rng)
        assert len(serialize_ct(ct_big)) > len(serialize_ct(ct_small))

    def test_truncated_buffer_rejected(self, keys):
        ct = encrypt(encode([1.0], TEST_PARAMS), keys, np.random.default_rng(28))
        blob = serialize_ct(ct)
        with pytest.raises(DecodeError):
            deserialize_ct(blob[:-8], TEST_PARAMS, 1)
        with pytest.raises(DecodeError):
            deserialize_ct(blob[:10], TEST_PARAMS, 1)

    def test_ntt_form_header_rejected(self, keys):
        # the header hash before ciphertexts moved to coefficient form
        ct = encrypt(encode([1.0], TEST_PARAMS), keys, np.random.default_rng(29))
        text = repr((TEST_PARAMS.poly_degree, TEST_PARAMS.modulus_bits, TEST_PARAMS.scale_log2))
        blob = hashlib.sha256(text.encode()).digest()[:8] + serialize_ct(ct)[8:]
        with pytest.raises(DecodeError, match=f"header gives params {blob[:8].hex()}, "):
            deserialize_ct(blob, TEST_PARAMS, 1)

    def test_wrong_params_hash_rejected(self, keys):
        ct = encrypt(encode([1.0], TEST_PARAMS), keys, np.random.default_rng(29))
        other = CkksParams(512, (40, 30, 30), 30)
        with pytest.raises(DecodeError):
            deserialize_ct(serialize_ct(ct), other, 1)

    @pytest.mark.parametrize(
        "field, value",
        [("slot_fill", 2**32 - 1), ("slot_fill", TEST_PARAMS.slot_count + 1), ("scale_log2", 0)],
    )
    def test_header_never_written_rejected(self, keys, field, value):
        ct = encrypt(encode([1.0], TEST_PARAMS), keys, np.random.default_rng(30))
        blob = bytearray(serialize_ct(ct))
        offset, fmt = {"scale_log2": (9, "<H"), "slot_fill": (11, "<I")}[field]
        struct.pack_into(fmt, blob, offset, value)
        with pytest.raises(DecodeError, match="header gives"):
            deserialize_ct(bytes(blob), TEST_PARAMS, 1)

    @settings(max_examples=150, deadline=None)
    @given(
        keep=st.one_of(st.none(), st.integers(0, 32782)),
        flips=st.lists(
            st.tuples(st.one_of(st.integers(0, 14), st.integers(0, 32782)), st.integers(1, 255)),
            max_size=4,
        ),
    )
    def test_corrupted_bytes_rejected_or_in_range(self, keys, keep, flips):
        # a 1024-degree, level-1 ciphertext is 15 + 2*2*1024*8 = 32783 bytes
        ct = encrypt(encode([0.5, -0.25], TEST_PARAMS), keys, np.random.default_rng(31))
        blob = bytearray(serialize_ct(ct))
        assert len(blob) == 32783
        for position, mask in flips:
            blob[position] ^= mask
        blob = bytes(blob[:keep])
        try:
            back = deserialize_ct(blob, TEST_PARAMS, 2)
        except DecodeError:
            return
        q = _context(TEST_PARAMS).level_fields[back.level].q
        assert np.all(back.comps < q)
        assert (back.level, back.scale, back.slot_fill) == (TEST_PARAMS.fresh_level, TEST_PARAMS.scale, 2)


class TestParamsValidation:
    def test_bad_degree(self):
        with pytest.raises(ConfigError):
            CkksParams(1000, (40, 30), 30)

    def test_short_chain(self):
        with pytest.raises(ConfigError):
            CkksParams(1024, (40,), 30)

    def test_scale_headroom(self):
        with pytest.raises(ConfigError):
            CkksParams(1024, (40, 30, 30), 35)
