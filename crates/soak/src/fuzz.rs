//! Coverage-tracked wire-protocol fuzzing.
//!
//! The fuzz lane takes *valid* `tpi-net/v2` frames (the corpus) and
//! applies one seeded mutation per injection — truncation, bit flips,
//! splices of two frames, and deliberate lies in the length and
//! request-ID header fields. The mutant goes to the server over a raw
//! TCP connection, and whatever comes back is classified into an
//! outcome class. Coverage is the set of distinct
//! `(mutation, outcome)` pairs: a soak that only ever sees
//! `BitFlip/closed` is not exercising the decode paths, and the summary
//! makes that visible.
//!
//! The server contract under fire: every mutant is answered with a
//! typed error frame, a `Busy`, a valid response (some mutants are
//! still well-formed), or a clean close — never a hang past the read
//! deadline *with* a dead server, and never a panic. Liveness is
//! asserted out-of-band by the lane (a fresh-connection ping after the
//! injection).

use rand::{Rng, StdRng};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;
use tpi_net::{read_frame_v2, ErrorInfo, Verb, DEFAULT_MAX_FRAME};

/// One grammar production of the mutator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Mutation {
    /// Cut the frame off at a random byte (header or payload).
    Truncate,
    /// Flip one to four random bits anywhere in the frame.
    BitFlip,
    /// Prefix of one valid frame glued to the suffix of another.
    Splice,
    /// Rewrite the v2 length field: huge (oversize), short, or long.
    LengthLie,
    /// Rewrite the v2 request-ID field (a well-formed but lying frame).
    IdLie,
}

impl Mutation {
    /// All productions, in mix order.
    pub const ALL: [Mutation; 5] = [
        Mutation::Truncate,
        Mutation::BitFlip,
        Mutation::Splice,
        Mutation::LengthLie,
        Mutation::IdLie,
    ];
}

/// v2 header offsets (magic 0..4, version 4, verb 5, req-id 6..10,
/// length 10..14).
const V2_ID_OFFSET: usize = 6;
const V2_LEN_OFFSET: usize = 10;

/// Applies one seeded mutation, picking the production from `rng`.
/// `base` and `other` must be valid encoded frames (`other` feeds the
/// splice). Returns the production and the mutant bytes.
pub fn mutate(rng: &mut StdRng, base: &[u8], other: &[u8]) -> (Mutation, Vec<u8>) {
    let m = Mutation::ALL[rng.gen_range(0..Mutation::ALL.len())];
    let mut bytes = base.to_vec();
    match m {
        Mutation::Truncate => {
            let keep = rng.gen_range(0..bytes.len());
            bytes.truncate(keep);
        }
        Mutation::BitFlip => {
            for _ in 0..rng.gen_range(1..=4u32) {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] ^= 1 << rng.gen_range(0..8u32);
            }
        }
        Mutation::Splice => {
            let cut_a = rng.gen_range(0..=bytes.len());
            let cut_b = rng.gen_range(0..=other.len());
            bytes.truncate(cut_a);
            bytes.extend_from_slice(&other[cut_b..]);
        }
        Mutation::LengthLie => {
            if bytes.len() >= V2_LEN_OFFSET + 4 {
                let lie: u32 = match rng.gen_range(0..3u32) {
                    0 => rng.gen_range((64u32 << 20)..u32::MAX), // oversize
                    1 => rng.gen_range(0..16u32),                // too short
                    _ => rng.gen_range(16u32..65536),            // too long
                };
                bytes[V2_LEN_OFFSET..V2_LEN_OFFSET + 4].copy_from_slice(&lie.to_le_bytes());
            }
        }
        Mutation::IdLie => {
            if bytes.len() >= V2_ID_OFFSET + 4 {
                let lie: u32 = rng.gen();
                bytes[V2_ID_OFFSET..V2_ID_OFFSET + 4].copy_from_slice(&lie.to_le_bytes());
            }
        }
    }
    (m, bytes)
}

/// What the server did with a mutant, as a stable coverage label.
pub fn classify_response(buf: &[u8], closed: bool) -> String {
    if buf.is_empty() {
        return if closed { "closed".to_string() } else { "silent".to_string() };
    }
    match read_frame_v2(&mut &buf[..], DEFAULT_MAX_FRAME) {
        Ok((Verb::Error, _, payload)) => match ErrorInfo::decode(&payload) {
            Ok(info) => format!("error:{:?}", info.code),
            Err(_) => "error:undecodable".to_string(),
        },
        Ok((verb, _, _)) => format!("resp:{verb:?}"),
        Err(_) => "garbage".to_string(),
    }
}

/// Sends `mutant` to `addr` on a fresh connection and classifies the
/// reply. Returns the outcome label, or the connection-level failure as
/// its own class (a server at its accept cap refusing us is coverage
/// too, not an error).
pub fn inject(addr: &str, mutant: &[u8], read_timeout: Duration) -> String {
    let mut stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(_) => return "connect-refused".to_string(),
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(read_timeout));
    let _ = stream.set_write_timeout(Some(read_timeout));
    if stream.write_all(mutant).is_err() {
        // The server can legitimately slam the door mid-write (it saw
        // enough bytes to reject the stream).
        return "write-reset".to_string();
    }
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut closed = false;
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => {
                closed = true;
                break;
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                break
            }
            Err(_) => {
                closed = true;
                break;
            }
        }
    }
    classify_response(&buf, closed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tpi_net::{encode_frame_v2, ErrorCode};

    fn corpus() -> (Vec<u8>, Vec<u8>) {
        (encode_frame_v2(Verb::Ping, 7, b""), encode_frame_v2(Verb::Submit, 9, b"not blif"))
    }

    #[test]
    fn mutator_is_seed_deterministic() {
        let (base, other) = corpus();
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..64).map(|_| mutate(&mut rng, &base, &other)).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds explore differently");
    }

    #[test]
    fn mutator_hits_every_production() {
        let (base, other) = corpus();
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..256 {
            seen.insert(mutate(&mut rng, &base, &other).0);
        }
        assert_eq!(seen.len(), Mutation::ALL.len(), "all productions drawn: {seen:?}");
    }

    #[test]
    fn truncation_never_grows_and_splice_mixes() {
        let (base, other) = corpus();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..256 {
            let (m, bytes) = mutate(&mut rng, &base, &other);
            match m {
                Mutation::Truncate => assert!(bytes.len() < base.len()),
                Mutation::Splice => assert!(bytes.len() <= base.len() + other.len()),
                Mutation::BitFlip | Mutation::LengthLie | Mutation::IdLie => {
                    assert_eq!(bytes.len(), base.len())
                }
            }
        }
    }

    #[test]
    fn classification_labels_are_stable() {
        assert_eq!(classify_response(b"", true), "closed");
        assert_eq!(classify_response(b"", false), "silent");
        assert_eq!(classify_response(b"\x00\x01garbage", true), "garbage");
        let err = ErrorInfo::new(ErrorCode::MalformedFrame, "bad magic");
        let frame = encode_frame_v2(Verb::Error, 3, &err.encode());
        assert_eq!(classify_response(&frame, true), "error:MalformedFrame");
        let pong = encode_frame_v2(Verb::Pong, 3, b"");
        assert_eq!(classify_response(&pong, false), "resp:Pong");
    }
}
