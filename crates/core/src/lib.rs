//! # flow-core — shared dependency-free primitives
//!
//! Small utilities used across the workspace that must not pull in any other
//! crate: a stable (platform- and run-independent) [`Fnv64`] hasher and the
//! [`Fingerprint`] type built on it.
//!
//! The flow-evaluation engine (the `floweval` crate) content-addresses
//! its persistent QoR store with these fingerprints: a design's fingerprint
//! plus an evaluation-configuration fingerprint plus the flow script uniquely
//! identify one evaluation result, so results can be reused across processes
//! and machines.  `std::collections::hash_map::DefaultHasher` is explicitly
//! *not* suitable for that purpose — its output is randomised per process.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod crc32;
#[cfg(feature = "failpoints")]
pub mod fail;

pub use cancel::{CancelReason, CancelToken, Cancelled, NEVER_FIRES};

/// Evaluates a named failpoint (see the `fail` module, which is compiled in
/// only under the `failpoints` feature).
///
/// Expands to nothing unless the **consuming** crate enables its own
/// `failpoints` feature (which must forward to `flow-core/failpoints`), so
/// instrumented hot paths cost zero in normal builds.
///
/// Two forms:
///
/// * `fail_point!("name")` — delay and panic tasks act in place; `return`
///   tasks are ignored.
/// * `fail_point!("name", |arg| expr)` — a triggered `return` task makes the
///   **enclosing function** return `expr`, with `arg: Option<String>` from
///   the spec.  Delay/panic tasks still act in place.
#[macro_export]
macro_rules! fail_point {
    ($name:expr) => {{
        #[cfg(feature = "failpoints")]
        {
            let _ = $crate::fail::eval($name);
        }
    }};
    ($name:expr, $handler:expr) => {{
        #[cfg(feature = "failpoints")]
        {
            if let Some(__fp_arg) = $crate::fail::eval($name) {
                return ($handler)(__fp_arg);
            }
        }
    }};
}

/// A 64-bit FNV-1a hasher with a stable, documented output.
///
/// ```
/// use flow_core::Fnv64;
/// let mut h = Fnv64::new();
/// h.write(b"hello");
/// // FNV-1a test vector for "hello".
/// assert_eq!(h.finish(), 0xa430d84680aabd0b);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fnv64 {
    state: u64,
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

impl Fnv64 {
    /// Creates a hasher with the standard FNV offset basis.
    pub fn new() -> Self {
        Fnv64 { state: FNV_OFFSET }
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a `u32` in little-endian byte order.
    pub fn write_u32(&mut self, value: u32) {
        self.write(&value.to_le_bytes());
    }

    /// Absorbs a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }

    /// Absorbs a `usize`, widened to 64 bits so the hash is
    /// architecture-independent.
    pub fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }

    /// Absorbs a string, length-prefixed so concatenations cannot collide.
    pub fn write_str(&mut self, value: &str) {
        self.write_usize(value.len());
        self.write(value.as_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// A stable 64-bit content fingerprint, displayed as fixed-width hex.
///
/// ```
/// use flow_core::Fingerprint;
/// let fp = Fingerprint::of_bytes(b"abc");
/// assert_eq!(fp, Fingerprint::of_bytes(b"abc"));
/// assert_eq!(fp.to_string().len(), 16);
/// assert_eq!(Fingerprint::parse(&fp.to_string()), Some(fp));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64);

impl Fingerprint {
    /// Fingerprints a byte string.
    pub fn of_bytes(bytes: &[u8]) -> Self {
        let mut h = Fnv64::new();
        h.write(bytes);
        Fingerprint(h.finish())
    }

    /// Wraps a finished hasher.
    pub fn from_hasher(hasher: Fnv64) -> Self {
        Fingerprint(hasher.finish())
    }

    /// Parses the fixed-width hex form produced by `Display`.
    pub fn parse(text: &str) -> Option<Self> {
        if text.len() != 16 {
            return None;
        }
        u64::from_str_radix(text, 16).ok().map(Fingerprint)
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_test_vectors() {
        // Canonical FNV-1a 64-bit vectors.
        let cases: [(&[u8], u64); 3] = [
            (b"", 0xcbf29ce484222325),
            (b"a", 0xaf63dc4c8601ec8c),
            (b"foobar", 0x85944171f73967e8),
        ];
        for (input, expected) in cases {
            let mut h = Fnv64::new();
            h.write(input);
            assert_eq!(h.finish(), expected, "input {input:?}");
        }
    }

    #[test]
    fn length_prefixed_strings_do_not_collide() {
        let mut a = Fnv64::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv64::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn fingerprint_hex_roundtrip() {
        let fp = Fingerprint(0x0123_4567_89AB_CDEF);
        assert_eq!(fp.to_string(), "0123456789abcdef");
        assert_eq!(Fingerprint::parse("0123456789abcdef"), Some(fp));
        assert_eq!(Fingerprint::parse("xyz"), None);
        assert_eq!(Fingerprint::parse(""), None);
    }

    #[test]
    fn usize_width_independence() {
        let mut h = Fnv64::new();
        h.write_usize(7);
        let mut g = Fnv64::new();
        g.write_u64(7);
        assert_eq!(h.finish(), g.finish());
    }
}
