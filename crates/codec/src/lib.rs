//! Minimal binary codec for the checkpoint/journal layer, plus [`json`],
//! the workspace's one JSON writer-helper set and reader.
//!
//! The vendored `serde` is a no-op marker (the build is offline), so the
//! `ckpt-v3` snapshot format and the runner's cell journal serialize by
//! hand through this crate: a little-endian, length-prefixed byte stream
//! with no self-description. Every struct that participates writes its
//! fields in a fixed order via [`Enc`] and reads them back in the same
//! order via [`Dec`]; the order *is* the schema, and the engine guards it
//! with a schema hash in the checkpoint envelope (DESIGN.md §12).
//!
//! [`Dec`] panics on malformed input with a position-stamped message.
//! That is deliberate: every consumer validates an FNV-1a checksum (and a
//! schema hash) before decoding, so a decode failure is a programming
//! error — a save/load pair out of sync — not a runtime condition to
//! recover from.

#![forbid(unsafe_code)]

pub mod json;

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a, 64-bit, as a streaming state: a small, dependency-free rolling
/// hash. Not cryptographic — it only needs to make accidental collisions
/// unlikely. Trace digests, ckpt-v3 and journal checksums all hash
/// through it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A fresh hash state.
    pub fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    /// Folds raw bytes into the state.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds one little-endian word into the state.
    #[inline]
    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// The current hash value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// FNV-1a 64 over a byte slice: [`Fnv64`] in one call.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.bytes(bytes);
    h.value()
}

/// Append-only binary encoder.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// Consumes the encoder and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as `u64` (cross-platform width).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes an `f64` by bit pattern — exact round-trip, no formatting.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Writes an `Option` discriminant followed by the value, if any.
    pub fn opt<T>(&mut self, v: &Option<T>, f: impl FnOnce(&mut Self, &T)) {
        match v {
            None => self.bool(false),
            Some(x) => {
                self.bool(true);
                f(self, x);
            }
        }
    }

    /// Writes `n` zero words: the slots of retired fields, kept so the
    /// byte layout around them does not move (DESIGN.md §12).
    pub fn retired(&mut self, n: usize) {
        for _ in 0..n {
            self.u64(0);
        }
    }

    /// Writes a length-prefixed sequence.
    pub fn seq<T>(
        &mut self,
        items: impl ExactSizeIterator<Item = T>,
        mut f: impl FnMut(&mut Self, T),
    ) {
        self.usize(items.len());
        for it in items {
            f(self, it);
        }
    }
}

/// Sequential binary decoder over a byte slice.
///
/// # Panics
///
/// Every accessor panics (with the current offset) when the input is
/// exhausted or malformed — see the crate docs for why that is the right
/// contract here.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Current read offset (for error reporting by callers).
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Asserts the stream was consumed exactly — a trailing-garbage guard
    /// for top-level decoders.
    pub fn finish(self) {
        assert!(
            self.is_done(),
            "codec: {} trailing byte(s) after decode at offset {}",
            self.buf.len() - self.pos,
            self.pos
        );
    }

    fn take(&mut self, n: usize) -> &'a [u8] {
        assert!(
            self.pos + n <= self.buf.len(),
            "codec: truncated input (need {n} byte(s) at offset {}, have {})",
            self.pos,
            self.buf.len() - self.pos
        );
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        s
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> u16 {
        u16::from_le_bytes(self.take(2).try_into().expect("width"))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take(4).try_into().expect("width"))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take(8).try_into().expect("width"))
    }

    /// Reads a `usize` written by [`Enc::usize`].
    pub fn usize(&mut self) -> usize {
        let v = self.u64();
        usize::try_from(v).unwrap_or_else(|_| panic!("codec: length {v} exceeds usize"))
    }

    /// Reads a bool.
    pub fn bool(&mut self) -> bool {
        match self.u8() {
            0 => false,
            1 => true,
            b => panic!("codec: invalid bool byte {b} at offset {}", self.pos - 1),
        }
    }

    /// Reads an `f64` by bit pattern.
    pub fn f64(&mut self) -> f64 {
        f64::from_bits(self.u64())
    }

    /// Reads a length-prefixed byte slice.
    pub fn bytes(&mut self) -> &'a [u8] {
        let n = self.usize();
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> String {
        String::from_utf8(self.bytes().to_vec())
            .unwrap_or_else(|e| panic!("codec: invalid UTF-8 string: {e}"))
    }

    /// Reads an `Option` written by [`Enc::opt`].
    pub fn opt<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> Option<T> {
        if self.bool() {
            Some(f(self))
        } else {
            None
        }
    }

    /// Reads `n` retired slots written by [`Enc::retired`]; a nonzero
    /// word is malformed input, like a bad tag.
    pub fn retired(&mut self, n: usize) {
        for _ in 0..n {
            let v = self.u64();
            assert!(
                v == 0,
                "codec: retired slot holds {v} at offset {}",
                self.pos - 8
            );
        }
    }

    /// Reads a length-prefixed sequence into a `Vec`.
    pub fn seq<T>(&mut self, mut f: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let n = self.usize();
        let mut out = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            out.push(f(self));
        }
        out
    }
}

/// Hex encoding for journal lines (JSON-safe, torn-write detectable:
/// an odd-length or non-hex tail fails [`from_hex`] cleanly).
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(char::from_digit(u32::from(b >> 4), 16).expect("nibble"));
        s.push(char::from_digit(u32::from(b & 0xf), 16).expect("nibble"));
    }
    s
}

/// Inverse of [`to_hex`]; `None` on any malformed input (used to discard
/// torn journal lines rather than crash the resume path).
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    let b = s.as_bytes();
    for pair in b.chunks(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push(((hi << 4) | lo) as u8);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut e = Enc::new();
        e.u8(7);
        e.u16(513);
        e.u32(70_000);
        e.u64(u64::MAX - 3);
        e.usize(42);
        e.bool(true);
        e.bool(false);
        e.f64(-0.125);
        e.str("héllo");
        e.bytes(&[1, 2, 3]);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8(), 7);
        assert_eq!(d.u16(), 513);
        assert_eq!(d.u32(), 70_000);
        assert_eq!(d.u64(), u64::MAX - 3);
        assert_eq!(d.usize(), 42);
        assert!(d.bool());
        assert!(!d.bool());
        assert_eq!(d.f64(), -0.125);
        assert_eq!(d.str(), "héllo");
        assert_eq!(d.bytes(), &[1, 2, 3]);
        d.finish();
    }

    #[test]
    fn f64_bit_exact_including_nan_and_negzero() {
        for v in [f64::NAN, -0.0, f64::INFINITY, 1.0 / 3.0] {
            let mut e = Enc::new();
            e.f64(v);
            let bytes = e.into_bytes();
            let got = Dec::new(&bytes).f64();
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn seq_and_opt_round_trip() {
        let mut e = Enc::new();
        e.seq([1u64, 2, 3].into_iter(), |e, v| e.u64(v));
        e.opt(&Some(9u32), |e, v| e.u32(*v));
        e.opt(&None::<u32>, |e, v| e.u32(*v));
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.seq(|d| d.u64()), vec![1, 2, 3]);
        assert_eq!(d.opt(|d| d.u32()), Some(9));
        assert_eq!(d.opt(|d| d.u32()), None);
        d.finish();
    }

    #[test]
    fn retired_slots_are_zero_words() {
        let mut e = Enc::new();
        e.retired(3);
        e.u8(5);
        let bytes = e.into_bytes();
        assert_eq!(bytes.len(), 3 * 8 + 1);
        let mut d = Dec::new(&bytes);
        d.retired(3);
        assert_eq!(d.u8(), 5);
        d.finish();
    }

    #[test]
    #[should_panic(expected = "retired slot holds 7 at offset 8")]
    fn nonzero_retired_slot_is_rejected() {
        let mut e = Enc::new();
        e.u64(0);
        e.u64(7);
        let bytes = e.into_bytes();
        Dec::new(&bytes).retired(2);
    }

    #[test]
    #[should_panic(expected = "truncated input")]
    fn truncation_panics_with_offset() {
        let mut d = Dec::new(&[1, 2]);
        d.u64();
    }

    #[test]
    #[should_panic(expected = "trailing byte")]
    fn trailing_garbage_is_rejected() {
        let mut e = Enc::new();
        e.u8(1);
        e.u8(2);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        d.u8();
        d.finish();
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        // Standard FNV-1a 64 test vector.
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        // Streaming in pieces hashes the concatenation; a word is its
        // little-endian bytes.
        let mut h = Fnv64::new();
        h.bytes(b"ab");
        h.word(0x0807_0605_0403_0201);
        assert_eq!(h.value(), fnv1a(b"ab\x01\x02\x03\x04\x05\x06\x07\x08"));
    }

    #[test]
    fn hex_round_trip_and_torn_tails() {
        let data = [0u8, 1, 0xab, 0xff];
        let h = to_hex(&data);
        assert_eq!(h, "0001abff");
        assert_eq!(from_hex(&h).as_deref(), Some(&data[..]));
        assert_eq!(from_hex("0001abf"), None, "odd length = torn write");
        assert_eq!(from_hex("zz"), None);
    }
}
