"""CSV text of float64 blocks, byte for byte what ``repr`` of each float writes.

``csv_lines(block)`` turns a (T, C) block into the text of
``"".join(",".join(map(repr, row)) + "\\r\\n" for row in block.tolist())``
without a Python object per value. ``repr`` writes the shortest decimal
that reads back to the same float, the nearest such decimal to it, ties to
even (Gay, *Correctly rounded binary-decimal and decimal-binary
conversions*, 1990). Ryu (Adams, *Ryu: fast float-to-string conversion*,
PLDI 2018) finds the same digits with fixed-width integer arithmetic, so
here it runs over whole ``uint64`` arrays, in two stages.

- Digits: Ryu's ``d2d``. What depends on the binary exponent alone (the
  128-bit power of five, the shift, the decimal exponent, the exact-product
  flags) is tabulated once per exponent at import, from Python ints. The
  products with the power of five are taken from 32-bit limbs. Ryu removes
  digits while vp // 10 > vm // 10; here the count comes at once: with
  w = vp - vm it is floor(log10 w), or one more plus the trailing zeros of
  vp // 10^(that + 1) when a multiple of 10^(that + 1) lies in (vm, vp].
  The removed part of vr decides the rounding, ties to even where the
  product is exact.
- Layout: ``repr`` writes positional notation for -4 < decpt <= 16, else
  scientific. A value's text is a head (the sign; "0.", "0.0".. before a
  small fraction; "nan", "inf"), a body (the digits, with the point
  inserted) and a tail (the exponent, then ',' or '\\r\\n'). Head and body
  are composed in three little-endian words with byte masks looked up by
  the value's class (decimal-point class and digit count). The lengths give
  each value's byte offset, and ``np.add.at`` adds the words, shifted to
  their offsets, into the output; their nonzero bytes never overlap.

The body's three words are rows of one array, so that each step of the
layout is one numpy call for all three. Values go through in blocks of
``BLOCK``, so that the temporaries stay under 2 MB whatever the size of
the input. Every operand
of the uint64 arithmetic is a uint64 array or a ``np.uint64`` scalar:
before numpy 2, value-based casting turns uint64 mixed with int64, or with
a negative Python int, into float64.
"""

from __future__ import annotations

import numpy as np

# values per pass: a uint64 temporary of a pass takes 64 kB
BLOCK = 8192

_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)
_ONES = _U64(2 ** 64 - 1)

# Ryu's bit counts of its tabulated powers of five
_POW5_INV_BITCOUNT = 125
_POW5_BITCOUNT = 125

# 10^0..10^19, then 2^64 - 1 in place of 10^20 (above every vp)
_P10 = np.array([10 ** i for i in range(20)] + [2 ** 64 - 1], dtype=np.uint64)
# per count k of removed digits, 5 * 10^(k-1): the removed part from which vr rounds up (1 for k = 0)
_HALF = np.array([1] + [min(5 * 10 ** (k - 1), 2 ** 64 - 1) for k in range(1, 21)], dtype=np.uint64)
_P5 = np.array([5 ** i for i in range(22)], dtype=np.uint64)


def _pow5bits(e):
    """Bit length of 5**e (1 for e = 0), for int64 arrays with 0 <= e <= 3528."""
    return ((e * 1217359) >> 19) + 1


def _exponent_tables():
    """Ryu's per-exponent quantities, indexed by the biased exponent 0..2047.

    Ryu's ``e2 >= 0`` case divides by 10^q with an inverse power of five,
    its ``e2 < 0`` case multiplies by 5^i. Returns the multiplier's low and
    high words (two rows); the right shift past the product's middle word;
    the decimal exponent of vr's last digit; the mask for which
    ``mv & mask == 0`` means an exact vr; the flag of Ryu's q <= 1 case; and
    q where Ryu checks divisibility by 5^q (-1 elsewhere). Exponent 2047
    (inf and nan) gets exponent 2046's entries, which go unused.
    """
    biased = np.minimum(np.arange(2048, dtype=np.int64), 2046)
    e2 = np.maximum(biased, 1) - 1077
    pos = e2 >= 0
    e2p, e2n = np.maximum(e2, 0), np.maximum(-e2, 0)
    q_pos = ((e2p * 78913) >> 18) - (e2p > 3)
    q_neg = ((e2n * 732923) >> 20) - (e2n > 1)
    i_neg = e2n - q_neg
    q = np.where(pos, q_pos, q_neg)
    shift = np.where(pos, -e2 + q_pos + _POW5_INV_BITCOUNT + _pow5bits(q_pos) - 1,
                     q_neg - (_pow5bits(i_neg) - _POW5_BITCOUNT))
    e10 = np.where(pos, q_pos, q_neg + e2)

    mask64 = (1 << 64) - 1
    multipliers = []
    for last, inverse in ((int(q_pos.max()), True), (int(i_neg.max()), False)):
        pow5 = 1
        for _ in range(last + 1):
            bits = pow5.bit_length()
            if inverse:
                value = (1 << (bits - 1 + _POW5_INV_BITCOUNT)) // pow5 + 1
            else:
                value = pow5 >> (bits - _POW5_BITCOUNT) if bits >= _POW5_BITCOUNT else pow5 << (_POW5_BITCOUNT - bits)
            multipliers += (value & mask64, value >> 64)
            pow5 *= 5
    words = np.array(multipliers, dtype=np.uint64).reshape(-1, 2)
    rows = np.where(pos, q_pos, int(q_pos.max()) + 1 + i_neg)

    # e2 < 0: vr is exact iff mv is a multiple of 2^q (always for q <= 1,
    # never for q >= 63); e2 >= 0: only where q <= 21, by powers of five
    tz_bits = np.where(pos, 64, np.where(q <= 1, 0, np.minimum(q, 64))).astype(np.uint64)
    tz_mask = np.where(tz_bits == 64, _ONES, (_U64(1) << tz_bits) - _U64(1))
    return (words[rows].T.copy(), (shift - 64).astype(np.uint64), e10, tz_mask, ~pos & (q <= 1),
            np.where(pos & (q <= 21), q, -1))


_MUL, _SHIFT, _E10, _TZ_MASK, _LOW_Q, _POW5_Q = _exponent_tables()
_HIDDEN = np.where(np.arange(2048) == 0, _U64(0), _U64(1 << 52))
_MANTISSA = _U64((1 << 52) - 1)
# the biased exponents of Ryu's exact-product checks (q <= 1 for e2 < 0, q <= 21 for e2 >= 0)
_EXACT_FIRST, _EXACT_LAST = np.flatnonzero(_LOW_Q | (_POW5_Q >= 0))[[0, -1]]


def _umul128(a0, a1, b):
    """Low and high words of a * b, with a given as its 32-bit limbs (a1 < 2^23)."""
    b0, b1 = b & _M32, b >> _U64(32)
    low, mid = a0 * b0, a0 * b1
    cross = (low >> _U64(32)) + (mid & _M32) + a1 * b0
    low &= _M32
    low |= cross << _U64(32)
    mid >>= _U64(32)
    mid += a1 * b1
    mid += cross >> _U64(32)
    return low, mid


def _floor_log10(x):
    """floor(log10(x)) of each uint64 x >= 1, from the bit length of x as a float64 (garbage for 0)."""
    bit_length = (x.astype(np.float64).view(np.int64) >> 52) - 1022
    guess = (bit_length * 1233) >> 12
    return guess - (x < _P10.take(guess, mode="clip"))


def _shortest(bits, ieee_exp):
    """Ryu's shortest digits of each finite nonzero float64, given as its bits and biased exponent.

    Returns the digits as one integer and the decimal exponent of its last
    digit. Lanes that hold zero, inf or nan compute garbage without raising.
    """
    mantissa = bits & _MANTISSA
    mv = (mantissa | _HIDDEN.take(ieee_exp)) << _U64(2)
    vr, vp, vm = _scaled_interval(mv, mantissa, ieee_exp)
    even = (mantissa & _U64(1)) == 0
    vr_exact = (mv & _TZ_MASK.take(ieee_exp)) == 0
    vm_exact = np.zeros(bits.shape, dtype=bool)
    sel = np.flatnonzero((ieee_exp >= _EXACT_FIRST) & (ieee_exp <= _EXACT_LAST))
    if sel.size:
        _exact_checks(sel, ieee_exp[sel], mv, mantissa, even, vp, vr_exact, vm_exact)
    removed, vr_k, vm_k = _removed_digits(vr, vp, vm, vm_exact)

    rest = vr - vr_k * _P10.take(removed, mode="clip")
    half = _HALF.take(removed, mode="clip")
    # an exact tie rounds to even
    round_up = (rest > half) | ((rest == half) & ~(vr_exact & ((vr_k & _U64(1)) == 0)))
    output = vr_k + (((vr_k == vm_k) & ~(even & vm_exact)) | round_up)
    return output, _E10.take(ieee_exp) + removed


def _scaled_interval(mv, mantissa, ieee_exp):
    """Ryu's vr, vp and vm: mv, mv + 2 and mv - 1 - mm_shift times the exponent's multiplier, shifted right."""
    mul_lo, mul_hi, dist = _MUL[0].take(ieee_exp), _MUL[1].take(ieee_exp), _SHIFT.take(ieee_exp)
    back = _U64(64) - dist
    # (w0, w1, w2) = mv * mul
    a0, a1 = mv & _M32, mv >> _U64(32)
    w0, w1 = _umul128(a0, a1, mul_lo)
    low, w2 = _umul128(a0, a1, mul_hi)
    w1 += low
    w2 += w1 < low
    vr = (w2 << back) | (w1 >> dist)
    # vp adds 2 * mul, vm subtracts it
    two_lo, two_hi = mul_lo << _U64(1), (mul_hi << _U64(1)) | (mul_lo >> _U64(63))
    low = w0 + two_lo
    high = w1 + two_hi + (low < w0)
    vp = ((w2 + (high < w1)) << back) | (high >> dist)
    low = w0 - two_lo
    high = w1 - two_hi - (low > w0)
    vm = ((w2 - (high > w1)) << back) | (high >> dist)
    # a power of two above the smallest normal has the nearer lower
    # neighbour (mm_shift 0): its vm subtracts mul alone
    sel = np.flatnonzero(mantissa == 0)
    sel = sel[ieee_exp[sel] > 1]
    if sel.size:
        low = w0[sel] - mul_lo[sel]
        high = w1[sel] - mul_hi[sel] - (low > w0[sel])
        vm[sel] = ((w2[sel] - (high > w1[sel])) << back[sel]) | (high >> dist[sel])
    return vr, vp, vm


def _removed_digits(vr, vp, vm, vm_exact):
    """Ryu's count of removed digits, with vr and vm divided by 10 to that power.

    The count is the greatest k with vp // 10^k > vm // 10^k: at least
    floor(log10(vp - vm)), one more where a multiple of 10^(that + 1) lies
    in (vm, vp], plus that multiple's further trailing zeros. Where vm is
    exact, Ryu's second loop also removes vm's trailing zeros.
    """
    removed = _floor_log10(vp - vm)
    scale = _P10.take(removed, mode="clip")
    vr_k, vm_k, vp_next = vr // scale, vm // scale, vp // scale // _U64(10)
    vm_next = vm_k // _U64(10)
    more = vp_next > vm_next
    removed += more
    vr_k = np.where(more, vr_k // _U64(10), vr_k)
    vm_k = np.where(more, vm_next, vm_k)
    sel = np.flatnonzero(more & (vp_next % _U64(10) == 0))
    if sel.size:
        _remove_zeros(sel, vp_next[sel], removed, vr_k, vm_k)
    sel = np.flatnonzero(vm_exact)
    if sel.size:
        vm_exact[sel] = vm_k[sel] * _P10.take(removed[sel], mode="clip") == vm[sel]
        sel = sel[vm_exact[sel] & (vm_k[sel] != 0)]
        _remove_zeros(sel, vm_k[sel], removed, vr_k, vm_k)
    return removed, vr_k, vm_k


def _remove_zeros(sel, x, removed, vr_k, vm_k):
    """At ``sel``, remove one more digit per trailing zero of ``x`` (in place)."""
    extra = _trailing_zeros(x)
    removed[sel] += extra
    vr_k[sel] //= _P10.take(extra)
    vm_k[sel] //= _P10.take(extra)


def _exact_checks(sel, ieee_exp, mv, mantissa, even, vp, vr_exact, vm_exact):
    """Ryu's exact-product checks (its q <= 1 and q <= 21 cases), in place at ``sel``."""
    mv_s, ev = mv[sel], even[sel]
    mm_shift = (mantissa[sel] != 0).astype(np.uint64)
    low_q, q = _LOW_Q[ieee_exp], _POW5_Q[ieee_exp]
    by5 = q >= 0
    p5 = _P5.take(np.maximum(q, 0))
    mod5 = mv_s % _U64(5) == 0
    vr_exact[sel] = np.where(by5, mod5 & (mv_s % p5 == 0), vr_exact[sel])
    below = by5 & ~mod5 & ((mv_s - _U64(1) - mm_shift) % p5 == 0)
    vm_exact[sel] = ev & ((low_q & (mm_shift == 1)) | below)
    above = by5 & ~mod5 & ((mv_s + _U64(2)) % p5 == 0)
    vp[sel] -= (~ev & (low_q | above)).astype(np.uint64)


def _trailing_zeros(x):
    """Decimal trailing zeros of each nonzero uint64, by a binary search over constant divisors."""
    count = np.zeros(x.shape, dtype=np.intp)
    for step in (16, 8, 4, 2, 1):
        divided = x // _P10[step]
        whole = divided * _P10[step] == x
        x = np.where(whole, divided, x)
        count += whole * step
    return count


# ---------------------------------------------------------------------------
# layout
#
# A value's head and body are composed in three words, its 17 digits
# (left-aligned, so trailing zeros fill out the 17) at bytes 7..23. A
# point goes in by moving the digits before it down one byte; the head
# ends where the body starts.

# decimal-point classes: 0 scientific below, 1-4 decpt -3..0, 5-20 decpt
# 1..16, 21 scientific above; a value's class is 18 * that + its digit
# count, and the two after the last are nan and inf
_POINT_CLASSES = 22
_NAN, _INF = 18 * _POINT_CLASSES, 18 * _POINT_CLASSES + 1


def _byte_range(first, stop):
    """Per word j of three (rows): the mask of bytes first..stop-1 that fall in word j."""
    def below(count):
        kept = np.clip(count - 8 * np.arange(3)[:, None], 0, 8).astype(np.uint64)
        return np.where(kept == 8, _ONES, (_U64(1) << (kept * _U64(8))) - _U64(1))
    return below(stop) & ~below(first)


def _class_tables():
    """Per class: the byte masks of the digits that move and stay, and the point's byte, three words each.

    Per class and sign (at 2 * class + sign): the head word, the byte where
    the text starts and the text's length.
    """
    point_class = np.repeat(np.arange(_POINT_CLASSES), 18)
    n = np.tile(np.arange(18), _POINT_CLASSES)
    decpt = point_class - 4
    sci = (point_class == 0) | (point_class == _POINT_CLASSES - 1)
    small = ~sci & (decpt <= 0)
    whole = ~sci & ~small & (decpt >= n)
    dot = ~small & (~sci | (n > 1))
    # digits before the point; digits in all ("d.ddd", "0.00ddd", "dd.dd", "dd00.0")
    cut = np.append(np.where(dot, np.where(sci, 1, decpt), 0), [0, 0])
    digits = np.append(np.where(whole, decpt + 1, n), [0, 0])
    head = np.append(np.where(small, 1 - decpt, 0), [5, 6])
    dot = np.append(dot, [False, False]).astype(np.int64)
    move, stay = _byte_range(7, 7 + cut), _byte_range(7 + cut, 7 + digits)
    point = _byte_range(6 + cut, 7 + cut) & np.where(dot == 1, _U64(0x2E2E2E2E2E2E2E2E), _U64(0))

    heads = [b"", b"0.", b"0.0", b"0.00", b"0.000", b"nan", b"inf"]
    texts = [text if text == b"nan" else sign + text for text in heads for sign in (b"", b"-")]
    words = np.array([int.from_bytes(t, "little") for t in texts], dtype=np.uint64)
    lengths = np.array([len(t) for t in texts])
    signed = np.repeat(2 * head, 2) + np.tile([0, 1], head.size)
    start = 7 - np.repeat(dot, 2) - lengths[signed]
    head_word = words[signed] << (start * 8).astype(np.uint64)
    return move, stay, point, head_word, start, lengths[signed] + np.repeat(dot + digits, 2)


_MOVE, _STAY, _POINT, _HEAD, _START, _MAIN_LENGTH = _class_tables()


def _exponent_tails():
    """The exponent's text and length per decpt - 1 in -400..399 (at decpt + 399); empty where repr is positional."""
    x = np.arange(-400, 400)
    size = np.abs(x).astype(np.uint64)
    three = size >= 100
    ones, tens = size % _U64(10) + _U64(48), size // _U64(10) % _U64(10) + _U64(48)
    chars = [np.full(x.size, ord("e")), np.where(x < 0, ord("-"), ord("+")),
             np.where(three, size // _U64(100) + _U64(48), tens), np.where(three, tens, ones), np.where(three, ones, 0)]
    word = _U64(0)
    for byte, char in enumerate(chars):
        word = word | (char.astype(np.uint64) << _U64(8 * byte))
    length = np.where((x >= -4) & (x <= 15), 0, np.where(three, 5, 4))
    return np.where(length == 0, _U64(0), word), length


_EXP_WORDS, _EXP_LENGTHS = _exponent_tails()
_COMMA, _CRLF = _U64(ord(",")), _U64(int.from_bytes(b"\r\n", "little"))
# the four ASCII digits of each of 0..9999 in a little-endian word, most significant first
_DIGITS4 = sum((np.arange(10000, dtype=np.uint64) // _U64(10 ** (3 - b)) % _U64(10) + _U64(48)) << _U64(8 * b)
               for b in range(4))


def _format_block(values, separator, separator_length):
    """The CSV bytes of a 1-D float64 block, each value followed by its separator (a word and its length)."""
    bits = values.view(np.uint64)
    ieee_exp = ((bits >> _U64(52)) & _U64(0x7FF)).view(np.int64)
    output, decpt = _shortest(bits, ieee_exp)
    zero = (bits << _U64(1)) == 0
    special = ieee_exp == 2047
    output[zero] = 0
    n = _floor_log10(output) + 1
    n[zero] = 1
    decpt += n
    decpt[zero | special] = 1
    cls = (np.clip(decpt, -4, 17) + 4) * 18 + n
    sel = np.flatnonzero(special)
    cls[sel] = np.where((bits[sel] << _U64(12)) != 0, _NAN, _INF)
    signed = 2 * cls + (bits >> _U64(63)).view(np.int64)

    main = _main_words(output, n, cls)
    main[0] |= _HEAD.take(signed)
    main_length = _MAIN_LENGTH.take(signed)
    exp_length = _EXP_LENGTHS.take(decpt + 399)
    tail = _EXP_WORDS.take(decpt + 399) | (separator << (exp_length * 8).astype(np.uint64))

    length = main_length + exp_length + separator_length
    offset = np.cumsum(length) - length + 8
    total = int(offset[-1] + length[-1])
    text = np.zeros(total // 8 + 4, dtype=np.uint64)
    _add_at(text, main, offset - _START.take(signed))
    _add_at(text, tail[None], offset + main_length)
    return text.view(np.uint8)[8:total].tobytes()


def _main_words(output, n, cls):
    """Each value's body in three words (rows): its 17 digits at bytes 7..23, those before the point one byte down."""
    x = output * _P10.take(17 - n, mode="clip")
    lead = x // _P10[16]
    x -= lead * _P10[16]
    parts = np.empty((2, x.size), dtype=np.uint64)
    parts[0] = x // _P10[8]
    parts[1] = x - parts[0] * _P10[8]
    top = parts // _U64(10000)
    bottom = parts - top * _U64(10000)
    digits = np.empty((3, x.size), dtype=np.uint64)
    digits[0] = (lead + _U64(48)) << _U64(56)
    digits[1:] = _DIGITS4.take(top.view(np.int64)) | (_DIGITS4.take(bottom.view(np.int64)) << _U64(32))
    moved = digits & _MOVE.take(cls, axis=1)
    main = (moved >> _U64(8)) | (digits & _STAY.take(cls, axis=1)) | _POINT.take(cls, axis=1)
    main[:2] |= moved[1:] << _U64(56)
    return main


def _add_at(text, words, byte):
    """Add ``words`` (rows, one word per value each) into ``text``, each value's first word at its byte offset."""
    bit = ((byte & 7) << 3).astype(np.uint64)
    pieces = np.zeros((len(words) + 1, byte.size), dtype=np.uint64)
    pieces[:-1] = words << bit
    pieces[1:] |= words >> (_U64(64) - bit)
    np.add.at(text, ((byte >> 3) + np.arange(len(pieces))[:, None]).ravel(), pieces.ravel())


def csv_lines(block) -> str:
    """A (T, C) block of numbers (C >= 1) as T CSV lines: each cell ``repr`` of its float64, lines ending ``\\r\\n``."""
    values = np.ascontiguousarray(block, dtype=np.float64)
    columns = values.shape[1]
    flat = values.reshape(-1)
    parts = []
    for start in range(0, flat.size, BLOCK):
        stop = min(start + BLOCK, flat.size)
        row_end = np.arange(start + 1, stop + 1) % columns == 0
        parts.append(_format_block(flat[start:stop], np.where(row_end, _CRLF, _COMMA), 1 + row_end))
    return b"".join(parts).decode("ascii")
