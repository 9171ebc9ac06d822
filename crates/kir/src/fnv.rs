//! FNV-1a, 64-bit: the workspace's one stable digest.
//!
//! `std`'s `DefaultHasher` may change its algorithm between Rust
//! releases, so nothing persisted or compared across builds can use it.
//! FNV-1a is fixed by its definition: the same bytes give the same
//! digest on every toolchain and host. [`Fnv64`] implements
//! [`std::fmt::Write`], so a value's `Debug` or JSON rendering can be
//! streamed into it without building the string first.

use std::fmt;

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming FNV-1a-64 hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A hasher over the empty input.
    #[must_use]
    pub const fn new() -> Self {
        Fnv64(OFFSET_BASIS)
    }

    /// Feed `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    /// The digest of everything fed so far.
    #[must_use]
    pub const fn finish(&self) -> u64 {
        self.0
    }

    /// The digest of `value`'s `Debug` rendering.
    #[must_use]
    pub fn of_debug(value: &impl fmt::Debug) -> u64 {
        let mut h = Fnv64::new();
        let _ = fmt::write(&mut h, format_args!("{value:?}"));
        h.finish()
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(s: &str) -> u64 {
        let mut h = Fnv64::new();
        h.write(s.as_bytes());
        h.finish()
    }

    /// The published FNV-1a-64 test vectors.
    #[test]
    fn matches_reference_vectors() {
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut h = Fnv64::new();
        fmt::Write::write_str(&mut h, "foo").unwrap();
        fmt::Write::write_str(&mut h, "bar").unwrap();
        assert_eq!(h.finish(), digest("foobar"));
        assert_eq!(Fnv64::of_debug(&"x"), digest("\"x\""));
    }
}
