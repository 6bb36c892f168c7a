//! CRC-32C (Castagnoli), the frame checksum.
//!
//! On x86-64 CPUs with SSE4.2 (detected at run time) the `crc32`
//! instruction folds 8 bytes per step; other CPUs use a slicing-by-8
//! table. Both compute the same function: the reflected polynomial
//! `0x82F63B78`, which detects every single-bit error and every error
//! burst of up to 32 bits.

/// The reflected Castagnoli polynomial.
const POLY: u32 = 0x82F6_3B78;

/// `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = make_tables();

const fn make_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
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
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

/// CRC-32C of `data` (initial value and final XOR `0xFFFF_FFFF`).
#[cfg(test)]
pub(crate) fn crc32c(data: &[u8]) -> u32 {
    !update(!0, data)
}

/// Fold `data` into a running CRC state (no pre/post inversion), so a
/// checksum can span several slices.
#[inline]
pub(crate) fn update(state: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: the CPU supports SSE4.2, checked just above.
        return unsafe { update_hw(state, data) };
    }
    update_table(state, data)
}

/// Portable slicing-by-8 path.
fn update_table(mut crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
    }
    crc
}

/// SSE4.2 path: 8 bytes per `crc32` instruction, then at most one 4-,
/// 2- and 1-byte step for the tail.
///
/// # Safety
/// The CPU must support SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn update_hw(state: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u16, _mm_crc32_u32, _mm_crc32_u64, _mm_crc32_u8};
    let mut chunks = data.chunks_exact(8);
    let mut crc = state as u64;
    for c in &mut chunks {
        crc = _mm_crc32_u64(crc, u64::from_le_bytes(c.try_into().expect("8 bytes")));
    }
    let mut crc = crc as u32;
    let mut tail = chunks.remainder();
    if tail.len() >= 4 {
        crc = _mm_crc32_u32(
            crc,
            u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]),
        );
        tail = &tail[4..];
    }
    if tail.len() >= 2 {
        crc = _mm_crc32_u16(crc, u16::from_le_bytes([tail[0], tail[1]]));
        tail = &tail[2..];
    }
    if let Some(&b) = tail.first() {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn check_value_matches_the_standard() {
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(!update_table(!0, b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
    }

    #[test]
    fn state_threads_across_split_slices() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7 + 3) as u8).collect();
        for cut in 0..data.len() {
            let split = update(update(!0, &data[..cut]), &data[cut..]);
            assert_eq!(!split, crc32c(&data), "cut at {cut}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Hardware and table paths agree for every length up to 4 KiB
        /// at every alignment of the slice start.
        #[test]
        fn hardware_and_table_paths_agree(
            len in 0usize..4097,
            seed in any::<u64>(),
            state in any::<u32>(),
        ) {
            let buf: Vec<u8> = (0..len + 8)
                .map(|i| (seed.rotate_left(i as u32 % 64) as u8) ^ (i as u8))
                .collect();
            for align in 0..8 {
                let data = &buf[align..align + len];
                let table = update_table(state, data);
                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("sse4.2") {
                    // SAFETY: SSE4.2 support checked just above.
                    prop_assert_eq!(unsafe { update_hw(state, data) }, table);
                }
                prop_assert_eq!(update(state, data), table);
            }
        }
    }
}
