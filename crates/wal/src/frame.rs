//! On-disk record framing for the file-backed log.
//!
//! Every log record is stored as a self-validating frame:
//!
//! ```text
//! +----------------+----------------+==================+
//! | len: u32 LE    | crc: u32 LE    | payload (len B)  |
//! +----------------+----------------+==================+
//! ```
//!
//! `len` is the payload length in bytes and `crc` is the CRC-32 (IEEE
//! polynomial, the zlib/ethernet one) of the payload. A frame is *valid*
//! only if the header is complete, `len` passes a sanity bound, the whole
//! payload is present, and the checksum matches — anything else is a
//! **torn tail**: the longest valid frame prefix of a segment file is
//! exactly the flushed prefix of the log, and [`scan`](crate::segment)
//! truncates the rest on open. A crash can therefore land at *any byte
//! offset* of an in-flight frame without corrupting recovery; the crash
//! tests drive every offset.

/// Bytes of framing per record: `len` + `crc`.
pub const HEADER_LEN: usize = 8;

/// Upper bound on a single payload, as a corruption tripwire: a torn
/// header that happens to have a valid-looking CRC cannot make the scanner
/// chase a multi-gigabyte phantom frame.
pub const MAX_PAYLOAD: u32 = 1 << 28; // 256 MiB

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `TABLES[0]` is the classic byte-at-a-time table,
/// and `TABLES[k][b]` is the CRC contribution of byte `b` followed by `k`
/// zero bytes, so eight input bytes fold in with eight independent
/// lookups.
static TABLES: [[u32; 256]; 8] = make_tables();

const fn make_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 == 1 { (c >> 1) ^ POLY } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

/// CRC-32 (IEEE, reflected, init/final `0xFFFF_FFFF`) of `data`.
///
/// Every frame is checksummed when written, when the log is opened and
/// on every read, so this sits under both restart and time-travel
/// reads; it folds eight bytes per step (slicing-by-8) and finishes the
/// tail a byte at a time. The values are those of the bitwise
/// definition, which the unit tests keep as the oracle.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

/// Encodes `payload` into a framed byte string ready to append.
pub fn encode(payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() as u64 <= u64::from(MAX_PAYLOAD), "oversized log record");
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Outcome of decoding the bytes at one frame boundary.
#[derive(Debug, PartialEq, Eq)]
pub enum Decoded<'a> {
    /// A complete, checksum-valid frame; `payload` borrows from the input.
    Valid {
        /// The record bytes.
        payload: &'a [u8],
        /// Total frame size (header + payload), to advance the cursor.
        frame_len: usize,
    },
    /// Anything else: incomplete header, implausible length, short
    /// payload, or checksum mismatch. The distinction does not matter to
    /// the caller — the scan stops here either way.
    Torn,
}

/// Decodes the frame starting at `buf[0]`. `buf` may extend past the
/// frame (the rest of the segment); only the leading frame is examined.
pub fn decode(buf: &[u8]) -> Decoded<'_> {
    if buf.len() < HEADER_LEN {
        return Decoded::Torn;
    }
    let (Ok(len_bytes), Ok(crc_bytes)) =
        (<[u8; 4]>::try_from(&buf[0..4]), <[u8; 4]>::try_from(&buf[4..8]))
    else {
        return Decoded::Torn;
    };
    let len = u32::from_le_bytes(len_bytes);
    let crc = u32::from_le_bytes(crc_bytes);
    if len == 0 || len > MAX_PAYLOAD {
        // len == 0 doubles as the zero-filled-tail case (a preallocated or
        // partially synced region reads back as zeros).
        return Decoded::Torn;
    }
    let end = HEADER_LEN + len as usize;
    if buf.len() < end {
        return Decoded::Torn;
    }
    let payload = &buf[HEADER_LEN..end];
    if crc32(payload) != crc {
        return Decoded::Torn;
    }
    Decoded::Valid { payload, frame_len: end }
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

    /// The bitwise definition of CRC-32/IEEE: the oracle the table-driven
    /// [`crc32`] must agree with on every input.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_bitwise_at_every_short_length_and_alignment() {
        let bytes: Vec<u8> = (0..128u32).map(|i| (i.wrapping_mul(181) ^ (i >> 3)) as u8).collect();
        for align in 0..8 {
            for len in 0..=64 {
                let slice = &bytes[align..align + len];
                assert_eq!(crc32(slice), crc32_bitwise(slice), "align {align} len {len}");
            }
        }
    }

    proptest! {
        #[test]
        fn crc32_matches_bitwise_on_random_input(
            data in proptest::collection::vec(any::<u8>(), 0..2048),
            skip in 0usize..8,
        ) {
            let slice = &data[skip.min(data.len())..];
            prop_assert_eq!(crc32(slice), crc32_bitwise(slice));
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip() {
        let frame = encode(b"hello log");
        match decode(&frame) {
            Decoded::Valid { payload, frame_len } => {
                assert_eq!(payload, b"hello log");
                assert_eq!(frame_len, frame.len());
            }
            Decoded::Torn => panic!("valid frame decoded as torn"),
        }
    }

    #[test]
    fn every_strict_prefix_is_torn() {
        let frame = encode(b"some record payload bytes");
        for cut in 0..frame.len() {
            assert_eq!(decode(&frame[..cut]), Decoded::Torn, "prefix of {cut} bytes");
        }
    }

    #[test]
    fn single_bit_flips_are_torn() {
        let frame = encode(b"bitrot target");
        for byte in 0..frame.len() {
            let mut copy = frame.clone();
            copy[byte] ^= 0x10;
            // Flipping a length byte may still decode iff it yields the
            // same length; with a fixed buffer it cannot, so every flip
            // must be caught.
            assert_eq!(decode(&copy), Decoded::Torn, "flip in byte {byte}");
        }
    }

    #[test]
    fn zero_fill_is_torn() {
        assert_eq!(decode(&[0u8; 64]), Decoded::Torn);
    }

    #[test]
    fn trailing_bytes_are_ignored() {
        let mut buf = encode(b"first");
        buf.extend_from_slice(&encode(b"second"));
        match decode(&buf) {
            Decoded::Valid { payload, frame_len } => {
                assert_eq!(payload, b"first");
                match decode(&buf[frame_len..]) {
                    Decoded::Valid { payload, .. } => assert_eq!(payload, b"second"),
                    Decoded::Torn => panic!("second frame torn"),
                }
            }
            Decoded::Torn => panic!("first frame torn"),
        }
    }
}
