//! Property tests: the slicing-by-8 CRC-64/XZ kernel agrees with the
//! textbook byte-at-a-time CRC on every length, alignment and streaming
//! split. The reference lives only here, as the oracle.

use pol_sketch::crc64::{crc64, Crc64};
use proptest::prelude::*;

/// Byte-at-a-time reflected CRC-64/XZ: bit-serial table construction,
/// one table lookup per input byte.
fn reference(bytes: &[u8]) -> u64 {
    const POLY: u64 = 0xC96C_5795_D787_0F42;
    let mut table = [0u64; 256];
    for (i, slot) in table.iter_mut().enumerate() {
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
    let mut crc = !0u64;
    for &b in bytes {
        crc = table[((crc ^ u64::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

fn bytes(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..=255, 0..max_len + 1)
}

#[test]
fn reference_matches_the_standard_check_value() {
    assert_eq!(reference(b"123456789"), 0x995D_C9BB_DF19_39FA);
}

#[test]
fn every_short_length_matches_the_reference() {
    // 0..=17 covers an empty input, every remainder-only length, one
    // whole word plus every remainder, and two whole words.
    let data: Vec<u8> = (0..17u32).map(|i| (i * 97 + 13) as u8).collect();
    for len in 0..=data.len() {
        let prefix = &data[..len];
        assert_eq!(crc64(prefix), reference(prefix), "length {len}");
    }
}

// Default case count, so `PROPTEST_CASES` can shrink the suite for Miri.
proptest! {
    #[test]
    fn one_shot_matches_the_reference(data in bytes(4096)) {
        prop_assert_eq!(crc64(&data), reference(&data));
    }

    #[test]
    fn unaligned_sub_slices_match_the_reference(
        data in bytes(4096),
        start in 0usize..4097,
        len in 0usize..4097,
    ) {
        let start = start.min(data.len());
        let end = start + len.min(data.len() - start);
        let slice = &data[start..end];
        prop_assert_eq!(crc64(slice), reference(slice));
    }

    #[test]
    fn streaming_split_at_every_offset_matches_one_shot(data in prop::collection::vec(0u8..=255, 64..65)) {
        let want = reference(&data);
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            let mut d = Crc64::new();
            d.update(a);
            d.update(b);
            prop_assert_eq!(d.finish(), want, "split at {}", split);
        }
    }
}
