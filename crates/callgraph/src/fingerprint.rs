//! Stable fingerprinting for evaluation identities and persistent caches.
//!
//! `std::hash::DefaultHasher` makes no cross-release stability promise, so
//! anything written to disk (the persistent evaluation cache) or compared
//! across processes needs its own hash. This is FNV-1a widened to 128 bits
//! (two independent 64-bit lanes with distinct offset bases), which keeps
//! accidental collisions out of reach for identity-critical uses like
//! store scope addresses and the daemon's request dedup keys.

/// Incremental 128-bit FNV-1a hasher (two independent 64-bit lanes).
#[derive(Clone, Copy, Debug)]
pub struct Fnv128 {
    lo: u64,
    hi: u64,
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// Second-lane offset: the standard basis XORed with an arbitrary odd
/// constant so the lanes decorrelate from the first byte on.
const FNV_OFFSET_HI: u64 = FNV_OFFSET ^ 0x9E37_79B9_7F4A_7C15;

impl Fnv128 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv128 { lo: FNV_OFFSET, hi: FNV_OFFSET_HI }
    }

    /// Absorbs one byte.
    pub fn write_u8(&mut self, b: u8) {
        self.lo = (self.lo ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        self.hi = (self.hi ^ u64::from(b.rotate_left(3))).wrapping_mul(FNV_PRIME);
    }

    /// Absorbs a byte slice.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The 128-bit digest.
    pub fn finish(&self) -> u128 {
        (u128::from(self.hi) << 64) | u128::from(self.lo)
    }
}

impl Default for Fnv128 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot convenience: the 128-bit FNV-1a digest of `bytes`.
pub fn fnv128(bytes: &[u8]) -> u128 {
    let mut h = Fnv128::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_deterministic_and_input_sensitive() {
        assert_eq!(fnv128(b"abc"), fnv128(b"abc"));
        assert_ne!(fnv128(b"abc"), fnv128(b"abd"));
        assert_ne!(fnv128(b"abc"), fnv128(b"ab"));
        assert_ne!(fnv128(b""), 0);
    }

    #[test]
    fn lanes_are_decorrelated() {
        // A pure duplication of the low lane would make hi == lo for every
        // input; the distinct offset basis and byte rotation prevent that.
        let d = fnv128(b"lane-check");
        assert_ne!((d >> 64) as u64, d as u64);
    }

    #[test]
    fn incremental_writes_match_one_shot() {
        let mut h = Fnv128::new();
        h.write(b"he");
        h.write(b"llo");
        assert_eq!(h.finish(), fnv128(b"hello"));
    }
}
