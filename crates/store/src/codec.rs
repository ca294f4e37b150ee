//! Little-endian binary codec and CRC32 used by the snapshot and WAL
//! formats.
//!
//! Everything on disk is built from five primitives: `u8`, `u32`, `u64`,
//! `f64` (persisted as its IEEE 754 bit pattern via [`f64::to_bits`], so
//! round trips are byte-identical, including negative zero), and
//! length-prefixed UTF-8 strings. Decoding never panics: running off the
//! end of the buffer, invalid UTF-8, and implausible length prefixes all
//! come back as typed [`StoreError`]s.

use crate::error::StoreError;

/// The slicing-by-8 tables of the reflected IEEE polynomial: `TABLES[0]`
/// is the classic bytewise table, and `TABLES[k][b]` is the CRC register
/// after byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
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

/// Computes the IEEE CRC32 (the polynomial used by zip/PNG/ethernet) of a
/// byte slice. Implemented locally — the build environment is offline, so
/// no checksum crate is available. Eight bytes per step (slicing-by-8),
/// then the bytewise loop for the tail.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
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
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// An append-only little-endian encoder.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub(crate) fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0 or 1).
    pub(crate) fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends a `u32` little-endian.
    pub(crate) fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` little-endian.
    pub(crate) fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub(crate) fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its raw bit pattern (byte-identical round trip).
    pub(crate) fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub(crate) fn put_str(&mut self, v: &str) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v.as_bytes());
    }
}

/// A bounds-checked little-endian decoder over a byte slice.
#[derive(Debug)]
pub(crate) struct Dec<'a> {
    data: &'a [u8],
    pos: usize,
    /// What is being decoded, for error messages ("snapshot", "wal record").
    what: &'static str,
}

impl<'a> Dec<'a> {
    /// Creates a decoder over `data`, labelling errors with `what`.
    pub(crate) fn new(data: &'a [u8], what: &'static str) -> Self {
        Self { data, pos: 0, what }
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub(crate) fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Truncated { what: self.what });
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub(crate) fn get_u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool (one byte; anything other than 0/1 is corrupt).
    pub(crate) fn get_bool(&mut self) -> Result<bool, StoreError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(StoreError::corrupt(
                self.what,
                format!("boolean byte is {other}"),
            )),
        }
    }

    /// Reads a little-endian `u32`.
    pub(crate) fn get_u32(&mut self) -> Result<u32, StoreError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub(crate) fn get_u64(&mut self) -> Result<u64, StoreError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `u64` persisted from a `usize`.
    pub(crate) fn get_usize(&mut self) -> Result<usize, StoreError> {
        let v = self.get_u64()?;
        usize::try_from(v)
            .map_err(|_| StoreError::corrupt(self.what, format!("usize out of range: {v}")))
    }

    /// Reads an `f64` from its raw bit pattern.
    pub(crate) fn get_f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a count prefix that must plausibly fit in the remaining bytes
    /// (each element occupying at least `min_elem_bytes`), guarding
    /// `Vec::with_capacity` against garbage lengths.
    pub(crate) fn get_count(&mut self, min_elem_bytes: usize) -> Result<usize, StoreError> {
        let n = self.get_u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(StoreError::corrupt(
                self.what,
                format!(
                    "count {n} cannot fit in {} remaining bytes",
                    self.remaining()
                ),
            ));
        }
        Ok(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub(crate) fn get_str(&mut self) -> Result<String, StoreError> {
        let len = self.get_count(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::corrupt(self.what, "string is not valid UTF-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bytewise table loop: the oracle for the sliced one.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        // Past one 8-byte step, with and without a tail.
        let fox = b"The quick brown fox jumps over the lazy dog";
        assert_eq!(crc32(fox), 0x414F_A339);
        assert_eq!(crc32(&fox[..40]), crc32_bytewise(&fox[..40]));
    }

    proptest! {
        /// Every length and alignment: the sliced loop equals the bytewise
        /// one.
        #[test]
        fn sliced_crc32_equals_bytewise(
            bytes in prop::collection::vec(0u8..=255, 0..200),
            skip in 0usize..8,
        ) {
            let slice = &bytes[skip.min(bytes.len())..];
            prop_assert_eq!(crc32(slice), crc32_bytewise(slice));
        }
    }

    #[test]
    fn primitives_round_trip() {
        let mut e = Enc::new();
        e.put_u8(7);
        e.put_bool(true);
        e.put_u32(0xDEAD_BEEF);
        e.put_u64(u64::MAX - 1);
        e.put_usize(42);
        e.put_f64(-0.0);
        e.put_f64(f64::MIN_POSITIVE);
        e.put_str("héllo");
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes, "test");
        assert_eq!(d.get_u8().unwrap(), 7);
        assert!(d.get_bool().unwrap());
        assert_eq!(d.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.get_usize().unwrap(), 42);
        // Bit-identical, including the sign of zero.
        assert_eq!(d.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(d.get_f64().unwrap(), f64::MIN_POSITIVE);
        assert_eq!(d.get_str().unwrap(), "héllo");
        assert!(d.is_empty());
    }

    #[test]
    fn truncated_reads_fail_closed() {
        let mut e = Enc::new();
        e.put_u32(5);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes[..2], "test");
        assert!(matches!(
            d.get_u32(),
            Err(StoreError::Truncated { what: "test" })
        ));
    }

    #[test]
    fn garbage_count_is_rejected_before_allocation() {
        let mut e = Enc::new();
        e.put_u32(u32::MAX); // a count that cannot possibly fit
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes, "test");
        assert!(matches!(d.get_count(1), Err(StoreError::Corrupt { .. })));
    }

    #[test]
    fn invalid_utf8_is_corrupt() {
        let mut e = Enc::new();
        e.put_u32(2);
        let mut bytes = e.into_bytes();
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        let mut d = Dec::new(&bytes, "test");
        assert!(matches!(d.get_str(), Err(StoreError::Corrupt { .. })));
    }

    #[test]
    fn invalid_bool_is_corrupt() {
        let bytes = [3u8];
        let mut d = Dec::new(&bytes, "test");
        assert!(matches!(d.get_bool(), Err(StoreError::Corrupt { .. })));
    }
}
