//! CRC-32 (IEEE 802.3 polynomial), slicing-by-8.
//!
//! Used by the WAL storage manager to detect torn or partially written log
//! records during recovery. Implemented here rather than pulled in as a
//! dependency to keep the crate set within the approved list.
//!
//! The kernel folds eight input bytes per step through eight 256-entry
//! tables: table `k` is the CRC of a byte followed by `k` zero bytes, so
//! the eight lookups of a step are independent of each other and only
//! their XOR feeds the next step, where the byte-at-a-time form has one
//! dependent lookup per byte. The digest is the standard CRC-32 either
//! way: every stored `wal.log` record and `state.bin` checksum still holds.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[k][b]`: the CRC state after byte `b` and then `k` zero bytes.
static TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_finish(crc32_update(crc32_init(), data))
}

/// Start an incremental CRC-32 (see [`crc32_update`]).
pub const fn crc32_init() -> u32 {
    0xFFFF_FFFF
}

/// Fold `data` into an incremental CRC-32 state. Feeding a record's parts
/// through successive updates yields the same digest as [`crc32`] over
/// their concatenation, so framed writes can checksum a header and a
/// borrowed payload without first copying them into one buffer.
pub fn crc32_update(state: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = state;
    let mut steps = data.chunks_exact(8);
    for step in &mut steps {
        let lo = c ^ u32::from_le_bytes([step[0], step[1], step[2], step[3]]);
        let hi = u32::from_le_bytes([step[4], step[5], step[6], step[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in steps.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Finish an incremental CRC-32.
pub const fn crc32_finish(state: u32) -> u32 {
    state ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard CRC-32/IEEE check values.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = vec![0x5Au8; 256];
        let base = crc32(&data);
        for byte in [0usize, 100, 255] {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), base, "byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn different_lengths_differ() {
        assert_ne!(crc32(&[0u8; 10]), crc32(&[0u8; 11]));
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in [0, 1, 7, data.len()] {
            let mut c = crc32_init();
            c = crc32_update(c, &data[..split]);
            c = crc32_update(c, &data[split..]);
            assert_eq!(crc32_finish(c), crc32(&data[..]), "split at {split}");
        }
    }
}
