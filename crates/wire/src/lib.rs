//! # dmps-wire
//!
//! A compact, dependency-free serialization codec used across the DMPS
//! workspace for durable state: arbiter snapshots (`dmps-floor`'s
//! `ArbiterSnapshot`), shard event logs (`dmps-cluster`), and experiment
//! traces (`dmps-simnet`).
//!
//! The format is a flat token stream: integers in decimal, floats as exact
//! IEEE-754 bit patterns in hex, strings length-prefixed (`len:bytes`), all
//! separated by single spaces. It is deliberately boring — deterministic,
//! byte-exact round-trips (including every `f64`) and trivially diffable in
//! test failures.
//!
//! Decoding is what a crashed shard waits on: recovery parses its whole
//! checkpoint base. So the reader takes integer tokens and string length
//! prefixes straight off the bytes, and only anything else (a sign,
//! overflow, a malformed token) goes through `str::find` + `str::parse`.
//! On one 1 500-group `churn_sat` shard base (median of 200 decodes on one
//! pinned CPU of a shared 2-vCPU VM) that took the arbiter (277 KB) from
//! 4.1 to 1.9 ms and the session store (612 KB) from 2.5 to 1.0 ms, and the
//! slicing-by-16 CRC checks both in 0.51 ms instead of slicing-by-8's
//! 0.67 ms.
//!
//! # Example
//!
//! ```
//! use dmps_wire::{from_str, to_string, Wire};
//!
//! let value: (u64, String, Vec<bool>) = (7, "floor".into(), vec![true, false]);
//! let encoded = to_string(&value);
//! let back: (u64, String, Vec<bool>) = from_str(&encoded).unwrap();
//! assert_eq!(value, back);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Errors raised while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The input ended before the value was complete.
    UnexpectedEnd,
    /// A token could not be parsed as the expected type.
    BadToken {
        /// What the decoder expected.
        expected: &'static str,
        /// The offending token (truncated).
        token: String,
    },
    /// Trailing bytes remained after the top-level value was decoded.
    TrailingInput,
    /// A checksummed frame's CRC did not match its payload (bit rot, a torn
    /// write, or truncation of the durable bytes).
    Checksum {
        /// The CRC the frame claimed.
        expected: u32,
        /// The CRC the payload actually hashes to.
        actual: u32,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEnd => write!(f, "input ended mid-value"),
            WireError::BadToken { expected, token } => {
                write!(f, "expected {expected}, got `{token}`")
            }
            WireError::TrailingInput => write!(f, "trailing input after value"),
            WireError::Checksum { expected, actual } => {
                write!(
                    f,
                    "checksum mismatch: frame says {expected:08x}, payload hashes to {actual:08x}"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, WireError>;

/// Two-digit decimal lookup: entry `n` is the ASCII of `n` in `00..=99`.
const DIGIT_PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Bytes a hashing writer stages before folding them into its running CRC:
/// large enough that the slicing kernel runs on long runs, small enough to
/// stay in L1.
const HASH_CHUNK: usize = 4096;

/// Initial buffer of an encoding: a logged event fits, so encoding (or
/// hashing) one takes a single small allocation instead of a run of
/// doublings; larger values grow from here.
const ENCODE_RESERVE: usize = 256;

/// Serializes values into the token stream.
#[derive(Debug, Default)]
pub struct Writer {
    /// Encoded bytes. Only ASCII digits/separators and whole `&str`s are
    /// ever appended, so the buffer is valid UTF-8 at every token boundary.
    out: Vec<u8>,
    /// Whether a token was written yet (the next one needs a separator).
    started: bool,
    /// `Some(running CRC state)` on a hashing writer: `out` is then only a
    /// staging buffer, folded into the state every [`HASH_CHUNK`] bytes, so
    /// checksumming a value never materializes its encoding.
    hash: Option<u32>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// An empty writer with room for `bytes` of encoding.
    fn with_capacity(bytes: usize) -> Self {
        Writer {
            out: Vec::with_capacity(bytes),
            ..Writer::default()
        }
    }

    /// A writer that hashes the token stream instead of keeping it.
    fn hashing() -> Self {
        Writer {
            hash: Some(CRC32_INIT),
            ..Writer::with_capacity(ENCODE_RESERVE)
        }
    }

    /// Folds the staged bytes into the running CRC (hashing writers only).
    fn fold(&mut self) {
        if let Some(state) = &mut self.hash {
            *state = crc32_update(*state, &self.out);
            self.out.clear();
        }
    }

    fn sep(&mut self) {
        if self.started {
            if self.hash.is_some() && self.out.len() >= HASH_CHUNK {
                self.fold();
            }
            self.out.push(b' ');
        } else {
            self.started = true;
        }
    }

    /// Appends the decimal digits of `v`, formatted two at a time into the
    /// back of a stack buffer.
    fn digits(&mut self, mut v: u64) {
        if v < 10 {
            // Tags, flags and small ids: most tokens are one digit.
            return self.out.push(b'0' + v as u8);
        }
        let mut buf = [0u8; 20];
        let mut at = buf.len();
        while v >= 100 {
            let pair = (v % 100) as usize * 2;
            v /= 100;
            at -= 2;
            buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        }
        if v >= 10 {
            let pair = v as usize * 2;
            at -= 2;
            buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        } else {
            at -= 1;
            buf[at] = b'0' + v as u8;
        }
        self.out.extend_from_slice(&buf[at..]);
    }

    /// Writes an unsigned integer.
    pub fn u64(&mut self, v: u64) {
        self.sep();
        self.digits(v);
    }

    /// Writes a signed integer.
    pub fn i64(&mut self, v: i64) {
        self.sep();
        if v < 0 {
            self.out.push(b'-');
        }
        self.digits(v.unsigned_abs());
    }

    /// Writes a float as its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.sep();
        let bits = v.to_bits();
        let mut token = [b'x'; 17];
        for (i, slot) in token[1..].iter_mut().enumerate() {
            *slot = b"0123456789abcdef"[((bits >> (60 - 4 * i)) & 0xF) as usize];
        }
        self.out.extend_from_slice(&token);
    }

    /// Writes a boolean.
    pub fn bool(&mut self, v: bool) {
        self.sep();
        self.out.push(if v { b'1' } else { b'0' });
    }

    /// Writes a length-prefixed string.
    pub fn str(&mut self, s: &str) {
        self.sep();
        self.digits(s.len() as u64);
        self.out.push(b':');
        if self.hash.is_some() && s.len() >= HASH_CHUNK {
            // A long payload is hashed where it lies instead of being
            // copied through the staging buffer.
            self.fold();
            self.hash = self.hash.map(|state| crc32_update(state, s.as_bytes()));
        } else {
            self.out.extend_from_slice(s.as_bytes());
        }
    }

    /// Finishes and returns the encoded buffer.
    pub fn finish(self) -> String {
        String::from_utf8(self.out).expect("wire tokens are ASCII or whole strs")
    }

    /// Finishes a hashing writer: the CRC-32 of everything written.
    fn finish_crc32(mut self) -> u32 {
        self.fold();
        crc32_finish(self.hash.expect("hashing writer"))
    }
}

/// Deserializes values from the token stream.
#[derive(Debug)]
pub struct Reader<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over an encoded buffer.
    pub fn new(input: &'a str) -> Self {
        Reader { input, pos: 0 }
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.input.len()
    }

    fn skip_sep(&mut self) {
        if self.pos < self.input.len() && self.input.as_bytes()[self.pos] == b' ' {
            self.pos += 1;
        }
    }

    fn token(&mut self) -> Result<&'a str> {
        self.skip_sep();
        if self.pos >= self.input.len() {
            return Err(WireError::UnexpectedEnd);
        }
        let rest = &self.input[self.pos..];
        let end = rest.find(' ').unwrap_or(rest.len());
        let tok = &rest[..end];
        self.pos += end;
        Ok(tok)
    }

    /// Plain ASCII digits read straight off the bytes after the optional
    /// separator: their value and the position just past them, without
    /// moving the cursor. `None` when there is no digit or the value
    /// overflows.
    ///
    /// This is the fast path of integer tokens and length prefixes. Anything
    /// it does not take (a sign, an empty token, overflow, a bad terminator
    /// or char boundary) goes to the general path from the untouched cursor,
    /// so both accept and reject exactly the same inputs.
    fn digits(&self) -> Option<(u64, usize)> {
        let bytes = self.input.as_bytes();
        let start = self.pos + usize::from(bytes.get(self.pos) == Some(&b' '));
        let mut v: u64 = 0;
        let mut end = start;
        for &b in bytes.get(start..)? {
            let digit = b.wrapping_sub(b'0');
            if digit > 9 {
                break;
            }
            v = v.checked_mul(10)?.checked_add(u64::from(digit))?;
            end += 1;
        }
        (end > start).then_some((v, end))
    }

    /// [`Reader::digits`] that make up a whole token (a space or the input's
    /// end follows).
    fn digit_token(&self) -> Option<(u64, usize)> {
        let (v, end) = self.digits()?;
        matches!(self.input.as_bytes().get(end), None | Some(b' ')).then_some((v, end))
    }

    /// Reads an unsigned integer.
    pub fn u64(&mut self) -> Result<u64> {
        if let Some((v, end)) = self.digit_token() {
            self.pos = end;
            return Ok(v);
        }
        let tok = self.token()?;
        tok.parse().map_err(|_| WireError::BadToken {
            expected: "u64",
            token: tok.chars().take(32).collect(),
        })
    }

    /// Reads a signed integer.
    pub fn i64(&mut self) -> Result<i64> {
        if let Some((v, end)) = self.digit_token() {
            if let Ok(v) = i64::try_from(v) {
                self.pos = end;
                return Ok(v);
            }
        }
        let tok = self.token()?;
        tok.parse().map_err(|_| WireError::BadToken {
            expected: "i64",
            token: tok.chars().take(32).collect(),
        })
    }

    /// Reads a float from its bit pattern.
    pub fn f64(&mut self) -> Result<f64> {
        let tok = self.token()?;
        let hex = tok.strip_prefix('x').ok_or_else(|| WireError::BadToken {
            expected: "f64 bits",
            token: tok.chars().take(32).collect(),
        })?;
        u64::from_str_radix(hex, 16)
            .map(f64::from_bits)
            .map_err(|_| WireError::BadToken {
                expected: "f64 bits",
                token: tok.chars().take(32).collect(),
            })
    }

    /// Reads a boolean.
    pub fn bool(&mut self) -> Result<bool> {
        match self.token()? {
            "1" => Ok(true),
            "0" => Ok(false),
            other => Err(WireError::BadToken {
                expected: "bool",
                token: other.chars().take(32).collect(),
            }),
        }
    }

    /// Reads a length-prefixed string into a fresh `String`.
    pub fn str(&mut self) -> Result<String> {
        self.str_ref().map(str::to_string)
    }

    /// Reads a length-prefixed string as a slice of the input — the borrowed
    /// form [`Reader::str`] wraps, so a decoder that builds its own owner
    /// (`String`, `Arc<str>`) copies the bytes exactly once.
    pub fn str_ref(&mut self) -> Result<&'a str> {
        if let Some((len, colon)) = self.digits() {
            let start = colon + 1;
            let s = usize::try_from(len)
                .ok()
                .and_then(|len| self.input.get(start..start.checked_add(len)?));
            if let (Some(b':'), Some(s)) = (self.input.as_bytes().get(colon), s) {
                self.pos = start + s.len();
                return Ok(s);
            }
        }
        self.skip_sep();
        if self.pos >= self.input.len() {
            return Err(WireError::UnexpectedEnd);
        }
        let rest = &self.input[self.pos..];
        let colon = rest.find(':').ok_or(WireError::BadToken {
            expected: "string length prefix",
            token: rest.chars().take(32).collect(),
        })?;
        let len: usize = rest[..colon].parse().map_err(|_| WireError::BadToken {
            expected: "string length",
            token: rest[..colon].chars().take(32).collect(),
        })?;
        let start = colon + 1;
        // Checked: a corrupt length prefix can claim usize::MAX bytes, and
        // `start + len` must not overflow on it.
        let end = start.checked_add(len).ok_or(WireError::UnexpectedEnd)?;
        if rest.len() < end {
            return Err(WireError::UnexpectedEnd);
        }
        let s = rest.get(start..end).ok_or(WireError::UnexpectedEnd)?;
        self.pos += end;
        Ok(s)
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected) — the checksum under every durable frame.
// Hand-rolled because the workspace is dependency-free; the tables are built
// at compile time.

/// Slicing-by-16 tables: `CRC32_TABLES[0]` is the classic bytewise table;
/// `CRC32_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so
/// sixteen (or, on the tail, eight) table lookups advance the state over as
/// many input bytes at once.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

/// The four table lookups that fold little-endian word `w` of a run of
/// slicing input, `zeros` bytes before the run's end: `t[zeros + 3]` takes
/// its first byte, `t[zeros]` its last.
fn crc32_word(t: &[[u32; 256]; 16], w: u32, zeros: usize) -> u32 {
    t[zeros + 3][(w & 0xFF) as usize]
        ^ t[zeros + 2][((w >> 8) & 0xFF) as usize]
        ^ t[zeros + 1][((w >> 16) & 0xFF) as usize]
        ^ t[zeros][(w >> 24) as usize]
}

/// Folds `bytes` into a running CRC32 state. Start from
/// [`CRC32_INIT`] and finish with [`crc32_finish`]; or use [`crc32`] for a
/// one-shot hash. Streaming: any split of the input gives the same state.
pub fn crc32_update(mut state: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let word = |c: &[u8], i: usize| u32::from_le_bytes([c[i], c[i + 1], c[i + 2], c[i + 3]]);
    let mut chunks = bytes.chunks_exact(16);
    for c in &mut chunks {
        state = crc32_word(t, word(c, 0) ^ state, 12)
            ^ crc32_word(t, word(c, 4), 8)
            ^ crc32_word(t, word(c, 8), 4)
            ^ crc32_word(t, word(c, 12), 0);
    }
    let mut tail = chunks.remainder().chunks_exact(8);
    for c in &mut tail {
        state = crc32_word(t, word(c, 0) ^ state, 4) ^ crc32_word(t, word(c, 4), 0);
    }
    for &b in tail.remainder() {
        state = (state >> 8) ^ t[0][((state ^ b as u32) & 0xFF) as usize];
    }
    state
}

/// The initial CRC32 state.
pub const CRC32_INIT: u32 = 0xFFFF_FFFF;

/// Finalizes a running CRC32 state.
pub fn crc32_finish(state: u32) -> u32 {
    !state
}

/// One-shot CRC32 (IEEE) of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_finish(crc32_update(CRC32_INIT, bytes))
}

/// Encodes a value with a CRC32 frame: the first token is the checksum of
/// the encoded payload that follows. [`from_str_checksummed`] refuses the
/// frame when the payload no longer hashes to it — the detection layer under
/// self-healing durability.
pub fn to_string_checksummed<T: Wire>(value: &T) -> String {
    let payload = to_string(value);
    let mut framed = String::with_capacity(payload.len() + 11);
    framed.push_str(&crc32(payload.as_bytes()).to_string());
    framed.push(' ');
    framed.push_str(&payload);
    framed
}

/// Decodes a CRC32-framed value, verifying the checksum first.
///
/// # Errors
///
/// [`WireError::Checksum`] when the payload does not hash to the frame's
/// CRC; any decode error the payload itself raises.
pub fn from_str_checksummed<T: Wire>(s: &str) -> Result<T> {
    let mut r = Reader::new(s);
    let expected = r.u64()?;
    let expected = u32::try_from(expected).map_err(|_| WireError::BadToken {
        expected: "crc32",
        token: expected.to_string(),
    })?;
    let payload = s.get(r.pos..).unwrap_or("").strip_prefix(' ').unwrap_or("");
    let actual = crc32(payload.as_bytes());
    if actual != expected {
        return Err(WireError::Checksum { expected, actual });
    }
    from_str(payload)
}

/// Types encodable to / decodable from the wire format.
pub trait Wire: Sized {
    /// Appends this value to the writer.
    fn encode(&self, w: &mut Writer);

    /// Reads one value from the reader.
    fn decode(r: &mut Reader<'_>) -> Result<Self>;
}

/// Encodes a value to a string.
pub fn to_string<T: Wire>(value: &T) -> String {
    let mut w = Writer::with_capacity(ENCODE_RESERVE);
    value.encode(&mut w);
    w.finish()
}

/// CRC-32 of a value's encoding — `crc32(to_string(value).as_bytes())`
/// without materializing the string: tokens are folded into the running
/// checksum as they are written.
pub fn crc32_of<T: Wire>(value: &T) -> u32 {
    crc32_of_each(std::iter::once(value))
}

/// CRC-32 of the encodings of a run of values written back to back (no
/// length prefix), likewise without materializing them.
pub fn crc32_of_each<'a, T: Wire + 'a>(values: impl IntoIterator<Item = &'a T>) -> u32 {
    let mut w = Writer::hashing();
    for value in values {
        value.encode(&mut w);
    }
    w.finish_crc32()
}

/// Decodes a value from a string, requiring all input to be consumed.
pub fn from_str<T: Wire>(s: &str) -> Result<T> {
    let mut r = Reader::new(s);
    let v = T::decode(&mut r)?;
    if !r.is_empty() {
        return Err(WireError::TrailingInput);
    }
    Ok(v)
}

macro_rules! wire_unsigned {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, w: &mut Writer) {
                w.u64(*self as u64);
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self> {
                let v = r.u64()?;
                <$t>::try_from(v).map_err(|_| WireError::BadToken {
                    expected: stringify!($t),
                    token: v.to_string(),
                })
            }
        }
    )*};
}

wire_unsigned!(u8, u16, u32, u64, usize);

macro_rules! wire_signed {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, w: &mut Writer) {
                w.i64(*self as i64);
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self> {
                let v = r.i64()?;
                <$t>::try_from(v).map_err(|_| WireError::BadToken {
                    expected: stringify!($t),
                    token: v.to_string(),
                })
            }
        }
    )*};
}

wire_signed!(i8, i16, i32, i64, isize);

impl Wire for f64 {
    fn encode(&self, w: &mut Writer) {
        w.f64(*self);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        r.f64()
    }
}

impl Wire for bool {
    fn encode(&self, w: &mut Writer) {
        w.bool(*self);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        r.bool()
    }
}

impl Wire for String {
    fn encode(&self, w: &mut Writer) {
        w.str(self);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        r.str()
    }
}

/// A shared immutable string: byte-identical to `String`'s encoding, and one
/// allocation per decode (the `Arc` is built straight from the input slice).
impl Wire for Arc<str> {
    fn encode(&self, w: &mut Writer) {
        w.str(self);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        r.str_ref().map(Arc::from)
    }
}

impl Wire for Duration {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.as_secs());
        w.u64(self.subsec_nanos() as u64);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let secs = r.u64()?;
        let nanos = r.u64()?;
        Ok(Duration::new(secs, nanos as u32))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            Some(v) => {
                w.bool(true);
                v.encode(w);
            }
            None => w.bool(false),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        if r.bool()? {
            Ok(Some(T::decode(r)?))
        } else {
            Ok(None)
        }
    }
}

fn decode_len(r: &mut Reader<'_>) -> Result<usize> {
    usize::decode(r)
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.len() as u64);
        for v in self {
            v.encode(w);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let len = decode_len(r)?;
        let mut out = Vec::with_capacity(len.min(4_096));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Wire> Wire for VecDeque<T> {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.len() as u64);
        for v in self {
            v.encode(w);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let len = decode_len(r)?;
        let mut out = VecDeque::with_capacity(len.min(4_096));
        for _ in 0..len {
            out.push_back(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Wire + Ord> Wire for BTreeSet<T> {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.len() as u64);
        for v in self {
            v.encode(w);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let len = decode_len(r)?;
        let mut out = BTreeSet::new();
        for _ in 0..len {
            out.insert(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.len() as u64);
        for (k, v) in self {
            k.encode(w);
            v.encode(w);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let len = decode_len(r)?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

macro_rules! wire_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            fn encode(&self, w: &mut Writer) {
                $(self.$idx.encode(w);)+
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self> {
                Ok(($($name::decode(r)?,)+))
            }
        }
    };
}

wire_tuple!(A: 0);
wire_tuple!(A: 0, B: 1);
wire_tuple!(A: 0, B: 1, C: 2);
wire_tuple!(A: 0, B: 1, C: 2, D: 3);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        assert_eq!(from_str::<u64>(&to_string(&42u64)).unwrap(), 42);
        assert_eq!(from_str::<i32>(&to_string(&-7i32)).unwrap(), -7);
        assert!(from_str::<bool>(&to_string(&true)).unwrap());
        assert_eq!(
            from_str::<String>(&to_string(&"hello world".to_string())).unwrap(),
            "hello world"
        );
        assert_eq!(from_str::<String>(&to_string(&String::new())).unwrap(), "");
    }

    #[test]
    fn float_roundtrip_is_bit_exact() {
        for v in [0.0, -0.0, 1.5, 0.1, f64::MAX, f64::MIN_POSITIVE, f64::NAN] {
            let back = from_str::<f64>(&to_string(&v)).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn strings_with_separators_roundtrip() {
        let tricky = "1:2 3:4  x0000 :".to_string();
        assert_eq!(from_str::<String>(&to_string(&tricky)).unwrap(), tricky);
        let unicode = "čéß → 🦀".to_string();
        assert_eq!(from_str::<String>(&to_string(&unicode)).unwrap(), unicode);
    }

    #[test]
    fn collection_roundtrips() {
        let v: Vec<u32> = vec![1, 2, 3];
        assert_eq!(from_str::<Vec<u32>>(&to_string(&v)).unwrap(), v);
        let m: BTreeMap<String, i64> = [("a".into(), -1), ("b c".into(), 2)].into_iter().collect();
        assert_eq!(
            from_str::<BTreeMap<String, i64>>(&to_string(&m)).unwrap(),
            m
        );
        let s: BTreeSet<u8> = [3, 1, 2].into_iter().collect();
        assert_eq!(from_str::<BTreeSet<u8>>(&to_string(&s)).unwrap(), s);
        let q: VecDeque<bool> = [true, false].into_iter().collect();
        assert_eq!(from_str::<VecDeque<bool>>(&to_string(&q)).unwrap(), q);
        let empty: Vec<String> = Vec::new();
        assert_eq!(from_str::<Vec<String>>(&to_string(&empty)).unwrap(), empty);
    }

    #[test]
    fn nested_values_roundtrip() {
        let v: Vec<(Option<String>, Vec<u64>)> =
            vec![(Some("x y".into()), vec![1, 2]), (None, vec![])];
        assert_eq!(
            from_str::<Vec<(Option<String>, Vec<u64>)>>(&to_string(&v)).unwrap(),
            v
        );
        let d = Duration::new(5, 123_456_789);
        assert_eq!(from_str::<Duration>(&to_string(&d)).unwrap(), d);
    }

    #[test]
    fn malformed_input_is_rejected() {
        assert!(from_str::<u64>("").is_err());
        assert!(from_str::<u64>("abc").is_err());
        assert!(from_str::<bool>("2").is_err());
        assert!(from_str::<String>("5:ab").is_err());
        assert!(from_str::<f64>("1.5").is_err());
        assert_eq!(
            from_str::<u64>("1 2").unwrap_err(),
            WireError::TrailingInput
        );
        assert!(from_str::<u8>("300").is_err(), "u8 range check");
        assert!(!WireError::UnexpectedEnd.to_string().is_empty());
    }

    #[test]
    fn huge_string_length_prefix_is_an_error_not_a_panic() {
        // A corrupt length prefix may claim usize::MAX bytes; the checked
        // arithmetic must turn that into UnexpectedEnd.
        let huge = format!("{}:abc", usize::MAX);
        assert_eq!(
            from_str::<String>(&huge).unwrap_err(),
            WireError::UnexpectedEnd
        );
        let near = format!("{}:x", usize::MAX - 1);
        assert!(from_str::<String>(&near).is_err());
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // IEEE 802.3 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        // Streaming equals one-shot.
        let state = crc32_update(CRC32_INIT, b"1234");
        let state = crc32_update(state, b"56789");
        assert_eq!(crc32_finish(state), 0xCBF4_3926);
    }

    #[test]
    fn checksummed_frames_roundtrip_and_detect_corruption() {
        let value: (u64, String, Vec<bool>) = (9, "floor token".into(), vec![true, false]);
        let framed = to_string_checksummed(&value);
        let back: (u64, String, Vec<bool>) = from_str_checksummed(&framed).unwrap();
        assert_eq!(back, value);

        // A single flipped payload byte fails the checksum, not the decoder.
        let mut bytes = framed.clone().into_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let tampered = String::from_utf8(bytes).unwrap();
        assert!(matches!(
            from_str_checksummed::<(u64, String, Vec<bool>)>(&tampered).unwrap_err(),
            WireError::Checksum { .. }
        ));

        // A torn write (truncated frame) is caught the same way.
        let torn = &framed[..framed.len() - 3];
        assert!(from_str_checksummed::<(u64, String, Vec<bool>)>(torn).is_err());
    }
}
