//! The slicing-by-8 CRC kernel against the byte-at-a-time form it
//! replaced. The reference lives here, not in `src`: the stored formats
//! (`wal.log`, `state.bin`) depend on the two agreeing on every input and
//! on every way of splitting an input across `crc32_update` calls.

use proptest::prelude::*;
use radd_blockdev::checksum::{crc32, crc32_finish, crc32_init, crc32_update};

/// One table, one dependent lookup per byte: the kernel before PR 20.
fn crc32_bytewise(data: &[u8]) -> u32 {
    let table: [u32; 256] = std::array::from_fn(|i| {
        (0..8).fold(i as u32, |c, _| {
            (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg())
        })
    });
    !data.iter().fold(!0u32, |c, &b| {
        table[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8)
    })
}

fn noise(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = proptest::TestRng::new(seed);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

fn split_crc(data: &[u8], at: usize) -> u32 {
    let state = crc32_update(crc32_init(), &data[..at]);
    crc32_finish(crc32_update(state, &data[at..]))
}

#[test]
fn every_length_up_to_64_matches_the_bytewise_reference() {
    // Covers no whole step, exactly one, and every tail length around them.
    let data = noise(64, 1);
    for len in 0..=64 {
        assert_eq!(
            crc32(&data[..len]),
            crc32_bytewise(&data[..len]),
            "length {len}"
        );
    }
}

#[test]
fn a_64_byte_input_split_at_every_offset_gives_one_digest() {
    let data = noise(64, 2);
    let whole = crc32_bytewise(&data);
    for at in 0..=64 {
        assert_eq!(split_crc(&data, at), whole, "split at {at}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_lengths_match_the_bytewise_reference(
        data in proptest::collection::vec(any::<u8>(), 0..20_000),
    ) {
        prop_assert_eq!(crc32(&data), crc32_bytewise(&data));
    }

    /// A WAL record is checksummed as lap seed, header, payload: three
    /// updates whose boundaries fall anywhere relative to the 8-byte steps.
    #[test]
    fn large_inputs_split_at_random_offsets_give_one_digest(
        len in 1usize..200_000,
        seed in any::<u64>(),
        cut_a in any::<usize>(),
        cut_b in any::<usize>(),
    ) {
        let data = noise(len, seed);
        let (a, b) = (cut_a % (len + 1), cut_b % (len + 1));
        let (a, b) = (a.min(b), a.max(b));
        let mut state = crc32_init();
        for part in [&data[..a], &data[a..b], &data[b..]] {
            state = crc32_update(state, part);
        }
        prop_assert_eq!(crc32_finish(state), crc32_bytewise(&data));
    }
}
