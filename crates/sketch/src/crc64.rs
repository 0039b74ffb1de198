//! CRC-64/XZ (aka CRC-64/GO-ECMA): the checksum sealing the inventory
//! file's sections.
//!
//! Parameters: reflected ECMA-182 polynomial `0xC96C5795D7870F42`,
//! initial value and final XOR `!0`. This is the variant used by `xz`
//! and Go's `hash/crc64` ECMA table, chosen over CRC-32 because the
//! inventory body routinely reaches hundreds of megabytes, where a
//! 32-bit check's collision floor starts to matter, and over a
//! cryptographic hash because the threat model is bit rot and torn
//! writes, not an adversary.
//!
//! The implementation is slicing-by-8: eight 256-entry tables computed
//! at first use (`OnceLock`, 16 KiB). Table 0 is the classic byte table;
//! table `k` advances a byte's contribution by `k` further zero bytes,
//! so one step folds eight input bytes with eight independent lookups
//! instead of a chain of eight dependent ones. A trailing partial word
//! runs byte by byte through table 0. Over a 64 MiB buffer on a 2-vCPU
//! x86-64 machine (release build, min of 5), a byte-at-a-time loop runs
//! at ~300 MB/s and this one at ~1.2 GB/s. Pure `std`, safe code, no
//! allocation after init.

use std::sync::OnceLock;

/// The reflected ECMA-182 polynomial.
const POLY: u64 = 0xC96C_5795_D787_0F42;

/// Table `k` maps a byte to its CRC contribution `k` bytes further on.
type Tables = [[u64; 256]; 8];

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u64; 256]; 8];
        let [t0, rest @ ..] = &mut t;
        for (i, slot) in t0.iter_mut().enumerate() {
            let mut crc = i as u64;
            for _ in 0..8 {
                crc = if crc & 1 == 1 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            *slot = crc;
        }
        let mut prev = *t0;
        for table in rest {
            for (slot, &p) in table.iter_mut().zip(&prev) {
                *slot = (p >> 8) ^ t0[p as u8 as usize];
            }
            prev = *table;
        }
        t
    })
}

/// A streaming CRC-64/XZ digest.
///
/// ```
/// use pol_sketch::crc64::Crc64;
/// let mut d = Crc64::new();
/// d.update(b"123456789");
/// assert_eq!(d.finish(), 0x995D_C9BB_DF19_39FA); // the standard check value
/// ```
#[derive(Clone, Debug)]
pub struct Crc64 {
    state: u64,
}

impl Default for Crc64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc64 {
    /// A fresh digest.
    pub fn new() -> Crc64 {
        Crc64 { state: !0 }
    }

    /// Feeds bytes into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        let [t0, t1, t2, t3, t4, t5, t6, t7] = tables();
        let mut crc = self.state;
        let (words, tail) = bytes.as_chunks::<8>();
        // Every index below is a `u8` widened to `usize`, so it is always
        // inside a 256-entry table; `get` would hide that invariant.
        for word in words {
            let x = crc ^ u64::from_le_bytes(*word);
            crc = t7[x as u8 as usize]
                ^ t6[(x >> 8) as u8 as usize]
                ^ t5[(x >> 16) as u8 as usize]
                ^ t4[(x >> 24) as u8 as usize]
                ^ t3[(x >> 32) as u8 as usize]
                ^ t2[(x >> 40) as u8 as usize]
                ^ t1[(x >> 48) as u8 as usize]
                ^ t0[(x >> 56) as u8 as usize];
        }
        for &b in tail {
            crc = t0[(crc ^ u64::from(b)) as u8 as usize] ^ (crc >> 8);
        }
        self.state = crc;
    }

    /// The digest of everything fed so far (the digest stays usable).
    pub fn finish(&self) -> u64 {
        !self.state
    }
}

/// One-shot convenience over [`Crc64`].
pub fn crc64(bytes: &[u8]) -> u64 {
    let mut d = Crc64::new();
    d.update(bytes);
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_check_value() {
        // The canonical CRC-64/XZ check: crc of "123456789".
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data: Vec<u8> = (0..4096u32).map(|i| (i * 31 % 251) as u8).collect();
        let mut d = Crc64::new();
        for chunk in data.chunks(7) {
            d.update(chunk);
        }
        assert_eq!(d.finish(), crc64(&data));
    }

    #[test]
    fn detects_every_single_bit_flip() {
        let data: Vec<u8> = (0..256u32).map(|i| (i * 17 % 256) as u8).collect();
        let clean = crc64(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupt = data.clone();
                corrupt[byte] ^= 1 << bit;
                assert_ne!(crc64(&corrupt), clean, "missed flip at {byte}:{bit}");
            }
        }
    }

    #[test]
    fn finish_is_idempotent() {
        let mut d = Crc64::new();
        d.update(b"abc");
        assert_eq!(d.finish(), d.finish());
        d.update(b"def");
        assert_eq!(d.finish(), crc64(b"abcdef"));
    }
}
