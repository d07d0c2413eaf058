//! Robustness properties of the wire codec: decoding is total. No input —
//! truncated, bit-flipped, or arbitrary garbage — may panic the decoder;
//! every outcome is `Ok` or a `WireError`. This is the contract the
//! fault-injection plane leans on: corrupt durable bytes must surface as
//! detectable errors, never a process abort.
//!
//! And equivalence properties of the checksum kernel: the slicing CRC, the
//! digit-formatting writer and the hashing sink must produce exactly the
//! bytes and checksums the bytewise / `to_string()`-per-token codec did, or
//! every stored CRC would stop verifying.
//!
//! And the same for the reader: its byte-level integer and length-prefix
//! fast paths must accept and reject exactly what the token-splitting reader
//! they sit in front of does, with the same errors and the same cursor.

use std::collections::BTreeMap;
use std::sync::Arc;

use dmps_cluster::session::SessionEvent;
use dmps_cluster::{GlobalGroupId, GlobalMemberId, SessionOpKind, Shard, ShardEvent, ShardId};
use dmps_floor::{ArbiterEvent, FcmMode, FloorRequest, GroupId, Member, MemberId, Role};
use dmps_wire::{
    crc32, crc32_finish, crc32_of, crc32_of_each, crc32_update, from_str, from_str_checksummed,
    to_string, to_string_checksummed, Reader, Wire, WireError, Writer, CRC32_INIT,
};
use proptest::prelude::*;

/// A value exercising every shape the codec has to parse: nested
/// collections, strings with separators and length-prefix look-alikes,
/// options, maps and tuples.
type Deep = (
    u64,
    String,
    Vec<(Option<String>, Vec<u64>)>,
    BTreeMap<String, (i64, bool)>,
);

/// Strings biased toward the codec's own metacharacters (spaces, colons,
/// digits) plus some multi-byte codepoints, so mutations land on parser
/// edges, not just payload bytes.
fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..16, 0..10).prop_map(|picks| {
        const ALPHABET: [char; 16] = [
            ' ', ':', '0', '9', '1', 'x', 'a', '-', '%', 'é', '→', '🦀', 'z', '5', ':', ' ',
        ];
        picks.into_iter().map(|i| ALPHABET[i]).collect()
    })
}

fn arb_option_string() -> impl Strategy<Value = Option<String>> {
    (proptest::bool::ANY, arb_string()).prop_map(|(some, s)| some.then_some(s))
}

fn arb_deep() -> impl Strategy<Value = Deep> {
    (
        0u64..u64::MAX,
        arb_string(),
        proptest::collection::vec(
            (
                arb_option_string(),
                proptest::collection::vec(0u64..u64::MAX, 0..4),
            ),
            0..4,
        ),
        proptest::collection::vec(
            (arb_string(), (i64::MIN..i64::MAX, proptest::bool::ANY)),
            0..4,
        )
        .prop_map(|pairs| pairs.into_iter().collect::<BTreeMap<_, _>>()),
    )
}

/// Flips one bit of one byte, keeping the buffer valid UTF-8 by retrying on
/// a different bit of the same byte when the flip lands mid-codepoint.
fn flip_bit(encoded: &str, byte_idx: usize, bit: u8) -> Option<String> {
    if encoded.is_empty() {
        return None;
    }
    let bytes = encoded.as_bytes();
    let i = byte_idx % bytes.len();
    for b in 0..8u8 {
        let mut mutated = bytes.to_vec();
        mutated[i] ^= 1 << ((bit + b) % 8);
        if let Ok(s) = String::from_utf8(mutated) {
            return Some(s);
        }
    }
    let mut fallback = bytes.to_vec();
    fallback[i] = b'?';
    String::from_utf8(fallback).ok()
}

/// The reference CRC-32 (IEEE, reflected): one bit at a time, no tables.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// The token reader the byte-level fast paths front: one `find(' ')` scan
/// and one `str::parse` per token. Kept verbatim as the reference every
/// outcome of [`Reader`] must equal.
struct ReferenceReader<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> ReferenceReader<'a> {
    fn is_empty(&self) -> bool {
        self.pos >= self.input.len()
    }

    fn skip_sep(&mut self) {
        if self.pos < self.input.len() && self.input.as_bytes()[self.pos] == b' ' {
            self.pos += 1;
        }
    }

    fn token(&mut self) -> Result<&'a str, WireError> {
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

    fn u64(&mut self) -> Result<u64, WireError> {
        let tok = self.token()?;
        tok.parse().map_err(|_| WireError::BadToken {
            expected: "u64",
            token: tok.chars().take(32).collect(),
        })
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        let tok = self.token()?;
        tok.parse().map_err(|_| WireError::BadToken {
            expected: "i64",
            token: tok.chars().take(32).collect(),
        })
    }

    fn str_ref(&mut self) -> Result<&'a str, WireError> {
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
        let end = start.checked_add(len).ok_or(WireError::UnexpectedEnd)?;
        if rest.len() < end {
            return Err(WireError::UnexpectedEnd);
        }
        let s = rest.get(start..end).ok_or(WireError::UnexpectedEnd)?;
        self.pos += end;
        Ok(s)
    }
}

/// The reads the differential property draws from: `u8`, `usize`, `u64`,
/// `i64`, `String`, `Arc<str>`.
const READ_KINDS: usize = 6;

/// One read through the real codec, its value rendered for comparison.
fn read_fast(r: &mut Reader<'_>, kind: usize) -> Result<String, WireError> {
    match kind {
        0 => u8::decode(r).map(|v| v.to_string()),
        1 => usize::decode(r).map(|v| v.to_string()),
        2 => u64::decode(r).map(|v| v.to_string()),
        3 => i64::decode(r).map(|v| v.to_string()),
        4 => String::decode(r),
        _ => Arc::<str>::decode(r).map(|s| s.to_string()),
    }
}

/// The same read through the reference, narrowing as the codec's
/// `u8`/`usize` impls do.
fn read_reference(r: &mut ReferenceReader<'_>, kind: usize) -> Result<String, WireError> {
    let narrow = |v: u64, fits: bool, expected: &'static str| {
        if fits {
            Ok(v.to_string())
        } else {
            Err(WireError::BadToken {
                expected,
                token: v.to_string(),
            })
        }
    };
    match kind {
        0 => r
            .u64()
            .and_then(|v| narrow(v, u8::try_from(v).is_ok(), "u8")),
        1 => r
            .u64()
            .and_then(|v| narrow(v, usize::try_from(v).is_ok(), "usize")),
        2 => r.u64().map(|v| v.to_string()),
        3 => r.i64().map(|v| v.to_string()),
        _ => r.str_ref().map(str::to_string),
    }
}

/// Runs one read sequence through both readers — continuing past errors, so
/// the cursor an error leaves behind is compared too — and returns the
/// codec's outcomes once every outcome and the final `is_empty` agree.
fn differential(input: &str, kinds: &[usize]) -> Result<Vec<Result<String, WireError>>, String> {
    let mut fast = Reader::new(input);
    let mut reference = ReferenceReader { input, pos: 0 };
    let mut outcomes = Vec::with_capacity(kinds.len());
    for (i, &kind) in kinds.iter().enumerate() {
        let got = read_fast(&mut fast, kind);
        let want = read_reference(&mut reference, kind);
        if got != want {
            return Err(format!(
                "{input:?}: read {i} (kind {kind}) gave {got:?}, the reference {want:?}"
            ));
        }
        outcomes.push(got);
    }
    if fast.is_empty() != reference.is_empty() {
        return Err(format!("{input:?}: readers disagree on is_empty"));
    }
    Ok(outcomes)
}

/// Input fragments biased toward the integer and length-prefix edges: signs,
/// leading zeros, the `u64`/`i64` limits and one past them, separators, and
/// multi-byte codepoints a length prefix can split.
fn arb_fragments() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..20, 0..14).prop_map(|picks| {
        const FRAGMENTS: [&str; 20] = [
            "0",
            "1",
            "7",
            " ",
            " ",
            ":",
            "+",
            "-",
            "00",
            "255",
            "256",
            "18446744073709551615",
            "18446744073709551616",
            "9223372036854775807",
            "9223372036854775808",
            "é",
            "🦀",
            "x",
            "2:",
            "1:",
        ];
        picks.into_iter().map(|i| FRAGMENTS[i]).collect()
    })
}

fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..=255, 0..600)
}

/// Runs a seminar through a checkpointing shard — floor requests, chat
/// lines of `chat_len` bytes, a full base then a differential checkpoint —
/// and returns it with every event it logged.
fn driven_shard(ops: &[(usize, usize)], chat_len: usize) -> (Shard, Vec<ShardEvent>) {
    let mut shard = Shard::new(ShardId(0), 0, 64);
    shard.set_snapshot_policy(0, 4);
    shard
        .apply(ArbiterEvent::CreateGroup {
            name: "seminar room".into(),
            mode: FcmMode::FreeAccess,
        })
        .unwrap();
    for m in 0..4 {
        let member = Member::new(format!("m {m}"), Role::Participant);
        let group = GroupId(0);
        shard
            .apply(ArbiterEvent::AddMember { group, member })
            .unwrap();
    }
    let mut events: Vec<ShardEvent> = shard.log().events_from(0).cloned().collect();
    for (i, &(kind, m)) in ops.iter().enumerate() {
        if i == ops.len() / 2 {
            events.extend(shard.log().events_from(events.len() as u64).cloned());
            shard.take_snapshot();
        }
        if kind == 0 {
            let request = FloorRequest::speak(GroupId(0), MemberId(m));
            let _ = shard.apply(ArbiterEvent::Arbitrate { request });
        } else {
            let _ = shard.apply_session(SessionEvent {
                group: GlobalGroupId(7),
                local_group: GroupId(0),
                from: GlobalMemberId(m as u64),
                local_from: MemberId(m),
                kind: SessionOpKind::Chat {
                    text: "é: 1".repeat(chat_len / 5).into(),
                },
            });
        }
    }
    events.extend(shard.log().events_from(events.len() as u64).cloned());
    shard.take_delta();
    (shard, events)
}

proptest! {
    /// The slicing kernel equals the bitwise reference, one-shot and
    /// streamed across arbitrary split points.
    #[test]
    fn crc32_kernel_equals_the_bitwise_reference_at_any_split(
        bytes in arb_bytes(),
        a in 0usize..601,
        b in 0usize..601,
    ) {
        let expected = crc32_bitwise(&bytes);
        prop_assert_eq!(crc32(&bytes), expected);
        let (a, b) = (a % (bytes.len() + 1), b % (bytes.len() + 1));
        let (a, b) = (a.min(b), a.max(b));
        let mut state = crc32_update(CRC32_INIT, &bytes[..a]);
        state = crc32_update(state, &bytes[a..b]);
        state = crc32_update(state, &bytes[b..]);
        prop_assert_eq!(crc32_finish(state), expected);
    }

    /// Every length through the 16 → 8 → 1 remainder cascade, at every
    /// start alignment within a 16-byte block, hashes as the bitwise
    /// reference does.
    #[test]
    fn crc32_kernel_equals_the_bitwise_reference_at_every_tail(seed in 0u64..u64::MAX) {
        let bytes: Vec<u8> = (0..96u64)
            .map(|i| (seed.rotate_left(i as u32) ^ i.wrapping_mul(0x9E37_79B9)) as u8)
            .collect();
        for start in 0..16 {
            for len in 0..=80 {
                let slice = &bytes[start..start + len];
                prop_assert_eq!(crc32(slice), crc32_bitwise(slice), "start {} len {}", start, len);
            }
        }
    }

    /// Integer, float and string tokens encode byte-identically to the
    /// `to_string()` / `format!` writer they replaced.
    #[test]
    fn tokens_encode_as_the_formatting_writer_did(
        u in 0u64..u64::MAX,
        shift in 0u32..64,
        i in i64::MIN..i64::MAX,
        bits in 0u64..u64::MAX,
        s in arb_string(),
    ) {
        let mut w = Writer::new();
        w.u64(u >> shift);
        w.i64(i >> shift);
        w.f64(f64::from_bits(bits));
        w.str(&s);
        let expected = format!("{} {} x{:016x} {}:{}", u >> shift, i >> shift, bits, s.len(), s);
        prop_assert_eq!(w.finish(), expected);
    }

    /// The hashing sink equals the hash of the materialized encoding, for
    /// values on both sides of its staging-buffer size.
    #[test]
    fn hashing_sink_equals_the_hash_of_the_encoding(
        value in arb_deep(),
        long in 0usize..10_000,
    ) {
        prop_assert_eq!(crc32_of(&value), crc32(to_string(&value).as_bytes()));
        let padded = (value, "→".repeat(long / 3), vec![u64::MAX; long / 64]);
        prop_assert_eq!(crc32_of(&padded), crc32(to_string(&padded).as_bytes()));
    }

    /// A shared string is a `String` on the wire: same tokens, same
    /// checksum, and each decodes what the other encoded — for arbitrary
    /// text incl. multi-byte codepoints, at lengths on both sides of the
    /// hashing writer's staging size.
    #[test]
    fn shared_strings_encode_and_hash_as_owned_strings(
        s in arb_string(),
        long in 0usize..10_000,
    ) {
        for owned in [s.clone(), format!("{s}{}", "→z".repeat(long / 4))] {
            let shared: Arc<str> = Arc::from(owned.as_str());
            let encoded = to_string(&shared);
            prop_assert_eq!(&encoded, &to_string(&owned));
            prop_assert_eq!(crc32_of(&shared), crc32_of(&owned));
            prop_assert_eq!(crc32_of(&shared), crc32(encoded.as_bytes()));
            prop_assert_eq!(&*from_str::<Arc<str>>(&encoded).unwrap(), owned.as_str());
            prop_assert_eq!(from_str::<String>(&encoded).unwrap(), owned);
            // In a sequence too: the borrowed read leaves the cursor where
            // the allocating read did.
            let pair = (shared.clone(), 7u64, shared);
            let back: (String, u64, Arc<str>) = from_str(&to_string(&pair)).unwrap();
            prop_assert_eq!((back.0.as_str(), back.1, &*back.2), (&*pair.0, 7, &*pair.2));
        }
    }

    /// Every checksum the cluster stores — per sealed segment, per delta,
    /// per base — is the one the materializing codec would have stored.
    #[test]
    fn durable_artifact_checksums_equal_the_hash_of_their_encoding(
        ops in proptest::collection::vec((0usize..2, 0usize..4), 2..60),
        chat_len in 0usize..6_000,
    ) {
        let (shard, events) = driven_shard(&ops, chat_len);
        let mut w = Writer::new();
        for event in &events {
            prop_assert_eq!(crc32_of(event), crc32(to_string(event).as_bytes()));
            dmps_wire::Wire::encode(event, &mut w);
        }
        prop_assert_eq!(crc32_of_each(&events), crc32(w.finish().as_bytes()));
        let base = shard.latest_snapshot().expect("base taken mid-run");
        prop_assert_eq!(crc32_of(base), crc32(to_string(base).as_bytes()));
        let delta = shard.snapshot_deltas().last().expect("delta taken at the end");
        prop_assert_eq!(crc32_of(delta), crc32(to_string(delta).as_bytes()));
    }

    /// Decoding any prefix of a valid encoding returns Ok or an error —
    /// never a panic (a panic fails the test).
    #[test]
    fn truncated_encodings_never_panic(value in arb_deep(), cut in 0usize..4096) {
        let encoded = to_string(&value);
        let mut end = cut % (encoded.len() + 1);
        // Truncation may land mid-codepoint; clamp to a char boundary.
        while !encoded.is_char_boundary(end) {
            end -= 1;
        }
        let _ = from_str::<Deep>(&encoded[..end]);
    }

    /// Decoding a bit-flipped valid encoding returns Ok or an error — never
    /// a panic, even when the flip corrupts a length prefix.
    #[test]
    fn bit_flipped_encodings_never_panic(
        value in arb_deep(),
        byte_idx in 0usize..4096,
        bit in 0u8..8,
    ) {
        let encoded = to_string(&value);
        if let Some(mutated) = flip_bit(&encoded, byte_idx, bit) {
            let _ = from_str::<Deep>(&mutated);
        }
    }

    /// Arbitrary garbage (never derived from a valid encoding) does not
    /// panic the decoder either.
    #[test]
    fn arbitrary_input_never_panics(tokens in proptest::collection::vec(arb_string(), 0..8)) {
        let input = tokens.join(" ");
        let _ = from_str::<Deep>(&input);
        let _ = from_str::<String>(&input);
        let _ = from_str::<Arc<str>>(&input);
        let _ = from_str::<Vec<u64>>(&input);
        let _ = from_str_checksummed::<Deep>(&input);
    }

    /// A checksummed frame either round-trips exactly or reports an error on
    /// any single-bit payload corruption; the only silent path is the
    /// unmodified frame.
    #[test]
    fn checksummed_frames_catch_every_bit_flip(
        value in arb_deep(),
        byte_idx in 0usize..4096,
        bit in 0u8..8,
    ) {
        let framed = to_string_checksummed(&value);
        prop_assert_eq!(from_str_checksummed::<Deep>(&framed).unwrap(), value);
        if let Some(mutated) = flip_bit(&framed, byte_idx, bit) {
            if mutated != framed {
                prop_assert!(from_str_checksummed::<Deep>(&mutated).is_err());
            }
        }
    }
}

/// The token edge cases by name: zero, every digit-count boundary, the
/// extremes, and NaN bit patterns (floats travel as bits, so payload and
/// sign survive).
#[test]
fn edge_tokens_encode_as_the_formatting_writer_did() {
    let mut unsigned = vec![
        0,
        9,
        10,
        99,
        100,
        101,
        999,
        1_000,
        u32::MAX as u64,
        u64::MAX,
    ];
    unsigned.extend((1..20).flat_map(|d| [10u64.pow(d) - 1, 10u64.pow(d)]));
    for v in unsigned {
        assert_eq!(to_string(&v), v.to_string());
    }
    for v in [0, -1, 1, -9, -10, -100, i64::MAX, i64::MIN, i64::MIN + 1] {
        assert_eq!(to_string(&v), v.to_string());
    }
    let nan_payload = f64::from_bits(0x7ff8_0000_dead_beef);
    let negative_nan = f64::from_bits(0xfff0_0000_0000_0001);
    for v in [
        0.0,
        -0.0,
        1.5,
        f64::NAN,
        nan_payload,
        negative_nan,
        f64::INFINITY,
        f64::MIN,
    ] {
        assert_eq!(to_string(&v), format!("x{:016x}", v.to_bits()));
    }
    for s in ["", " ", "1:2 3", "čéß → 🦀"] {
        assert_eq!(to_string(&s.to_string()), format!("{}:{s}", s.len()));
    }
    let framed = to_string_checksummed(&(u64::MAX, String::new()));
    let payload = to_string(&(u64::MAX, String::new()));
    assert_eq!(framed, format!("{} {payload}", crc32(payload.as_bytes())));
}

/// Exhaustive single-byte truncation of one tricky value — cheaper than the
/// proptest sweep and certain to cover every boundary.
#[test]
fn every_truncation_point_is_total() {
    let value: Deep = (
        u64::MAX,
        "a b:2 x%  ".into(),
        vec![(Some(":".into()), vec![1, u64::MAX]), (None, vec![])],
        [("k v".into(), (i64::MIN, true))].into_iter().collect(),
    );
    let encoded = to_string(&value);
    for end in 0..=encoded.len() {
        if encoded.is_char_boundary(end) {
            let _ = from_str::<Deep>(&encoded[..end]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The fast reader equals the reference reader on valid, truncated,
    /// bit-flipped and arbitrary inputs, for arbitrary read sequences: same
    /// value or same error (with its fields) at every step, and the same
    /// `is_empty` at the end.
    #[test]
    fn reader_fast_paths_equal_the_reference_reader(
        values in proptest::collection::vec(
            (0usize..READ_KINDS, 0u64..u64::MAX, 0u32..64, arb_string()),
            0..10,
        ),
        reads in proptest::collection::vec(0usize..READ_KINDS, 0..12),
        fragments in arb_fragments(),
        mode in 0usize..4,
        at in 0usize..4096,
        bit in 0u8..8,
    ) {
        let mut w = Writer::new();
        for (kind, raw, shift, s) in &values {
            match kind {
                0..=2 => w.u64(raw >> shift),
                3 => w.i64(*raw as i64 >> shift),
                _ => w.str(s),
            }
        }
        let encoded = w.finish();
        let input = match mode {
            0 => encoded,
            1 => {
                let mut end = at % (encoded.len() + 1);
                while !encoded.is_char_boundary(end) {
                    end -= 1;
                }
                encoded[..end].to_string()
            }
            2 => flip_bit(&encoded, at, bit).unwrap_or_default(),
            _ => fragments,
        };
        // The reads the encoding was written for, then the drawn ones.
        let written: Vec<usize> = values.iter().map(|v| v.0).collect();
        for kinds in [&written, &reads] {
            if let Err(diff) = differential(&input, kinds) {
                return Err(TestCaseError(diff));
            }
        }
    }
}

/// The reader's edge cases by name, each against the reference, with the
/// outcome pinned where it is the point of the case.
#[test]
fn reader_edge_cases_equal_the_reference_reader() {
    let (u8_, usize_, u64_, i64_, string, arc) = (0, 1, 2, 3, 4, 5);
    let check = |input: &str, kinds: &[usize]| differential(input, kinds).unwrap();
    let bad = |expected: &'static str, token: &str| {
        Err(WireError::BadToken {
            expected,
            token: token.to_string(),
        })
    };

    // Two separators: the empty token between them is refused. A fallback
    // that re-skipped the separator the fast path already skipped would
    // read `2` here.
    let out = check("1  2", &[u64_, u64_, u64_]);
    assert_eq!(out[1], bad("u64", ""));
    assert_eq!(out[2], Ok("2".to_string()));
    check("1  2", &[i64_, i64_, u8_]);
    check("1  2", &[usize_, string, arc]);

    // A leading `+` parses as `str::parse` allows; leading zeros too.
    assert_eq!(check("+5", &[u64_])[0], Ok("5".to_string()));
    check("+5 +7", &[i64_, usize_]);
    check("+ -", &[u64_, i64_]);
    check("+3:abc", &[string]);
    assert_eq!(
        check("007 000", &[u64_, i64_]),
        [Ok("7".into()), Ok("0".into())]
    );
    check("0003:abc", &[arc]);

    // The u64 limit and one past it.
    let max = u64::MAX.to_string();
    assert_eq!(check(&max, &[u64_])[0], Ok(max.clone()));
    check(&max, &[i64_]);
    check(&max, &[u8_]);
    assert_eq!(
        check("18446744073709551616", &[u64_])[0],
        bad("u64", "18446744073709551616")
    );
    check("18446744073709551616 1", &[usize_, u64_]);

    // The i64 limits, and a negative zero.
    let min = i64::MIN.to_string();
    assert_eq!(check(&min, &[i64_])[0], Ok(min.clone()));
    check(&min, &[u64_]);
    check(&i64::MAX.to_string(), &[i64_]);
    check("9223372036854775808", &[i64_]);
    check("-9223372036854775809", &[i64_]);
    assert_eq!(check("-0", &[i64_])[0], Ok("0".to_string()));
    check("-0", &[u64_]);

    // A length prefix that ends inside a codepoint.
    assert_eq!(check("1:é", &[string])[0], Err(WireError::UnexpectedEnd));
    check("2:🦀 1", &[arc, u64_]);
    check("3:a🦀", &[string, u64_]);

    // A length prefix past the end, and one of usize::MAX.
    assert_eq!(check("5:ab", &[string])[0], Err(WireError::UnexpectedEnd));
    let huge = format!("{}:abc", usize::MAX);
    assert_eq!(check(&huge, &[arc])[0], Err(WireError::UnexpectedEnd));
    check(&format!("{}:abc", u64::MAX as u128 + 1), &[string, u64_]);

    // Ends and empties.
    check("", &[u64_, string]);
    check(" ", &[i64_, arc]);
    check("7 ", &[u64_, u64_]);
    check("0: 0:", &[string, arc, string]);
    check("3 :abc", &[string]);
}
