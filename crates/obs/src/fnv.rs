//! 64-bit FNV-1a: the one content digest behind every durable and wire
//! format in the workspace — outcome journal records, solver-cache files
//! and metrics frames. Self-contained, stable across platforms, one
//! multiply per byte; it detects torn writes and hand edits, not
//! adversaries.
//!
//! Files written by older builds carry these digests, so the construction
//! (offset basis, prime, the `0x1f` field separator) is pinned by
//! known-answer tests and must never change.

/// An FNV-1a hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// A hasher at the FNV-1a 64-bit offset basis.
    pub const fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Feed raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Feed one field plus a separator byte, so adjacent fields can never
    /// alias ("ab"+"c" vs "a"+"bc").
    pub fn field(&mut self, bytes: &[u8]) {
        self.write(bytes);
        self.write(&[0x1f]);
    }

    /// The digest of everything fed so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(bytes: &[u8]) -> u64 {
        let mut h = Fnv::new();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn known_answers() {
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        let fields = |parts: &[&[u8]]| {
            let mut h = Fnv::new();
            for p in parts {
                h.field(p);
            }
            h.finish()
        };
        assert_eq!(fields(&[b"a"]), 0x089b_e907_b544_fdc9);
        assert_eq!(fields(&[b"ab", b"c"]), 0x0ab1_1b2f_87ef_04a1);
        assert_eq!(fields(&[b"a", b"bc"]), 0xcb31_b538_1b2a_17ab);
    }
}
