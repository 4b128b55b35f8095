//! Property-based tests of the attack machinery: the crafting/prediction
//! pipeline must hold for arbitrary keys, segments, stages and forced
//! patterns — the soundness foundation of candidate elimination.

use gift_cipher::bitwise::{invert_with_round_keys_64, Gift64};
use gift_cipher::permutation::P64_INV;
use gift_cipher::sbox::inputs_with_output_bit;
use gift_cipher::state::{segment_64, with_segment_64};
use gift_cipher::{Key, RoundKey64};
use grinch::craft::craft_plaintext;
use grinch::oracle::{ObservationConfig, VictimOracle};
use grinch::target::{disjoint_batches, TargetSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Crafting as it was before the preimage table: one
/// `inputs_with_output_bit` list allocated per source constraint, drawn
/// from in the same order (`gen()` for the state, then one
/// `gen_range(0..8)` per constraint).
fn craft_plaintext_with_lists(
    targets: &[TargetSpec],
    known_round_keys: &[RoundKey64],
    rng: &mut StdRng,
) -> u64 {
    let mut state: u64 = rng.gen();
    for target in targets {
        for b in 0..4 {
            let src_pos = P64_INV[4 * target.segment + b] as usize;
            let choices = inputs_with_output_bit((src_pos % 4) as u8, target.forced[b]);
            let value = choices[rng.gen_range(0..choices.len())];
            state = with_segment_64(state, src_pos / 4, value);
        }
    }
    invert_with_round_keys_64(state, known_round_keys)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn crafted_index_always_matches_prediction(
        key in any::<u128>(),
        segment in 0usize..16,
        stage in 1usize..=4,
        pattern in 0u8..16,
        seed in any::<u64>(),
    ) {
        let k = Key::from_u128(key);
        let cipher = Gift64::new(k);
        let known = &cipher.round_keys()[..stage - 1];
        let rk = cipher.round_keys()[stage - 1];
        let spec = TargetSpec::with_forced_pattern(stage, segment, pattern);
        let mut rng = StdRng::seed_from_u64(seed);
        let pt = craft_plaintext(&[spec], known, &mut rng).unwrap();
        let round_input = cipher.encrypt_rounds(pt, stage);
        let v = (rk.v >> segment) & 1 == 1;
        let u = (rk.u >> segment) & 1 == 1;
        prop_assert_eq!(segment_64(round_input, segment), spec.expected_index(v, u));
    }

    #[test]
    fn batched_crafting_pins_all_batch_targets(
        key in any::<u128>(),
        stage in 1usize..=4,
        batch_idx in 0usize..4,
        seed in any::<u64>(),
    ) {
        let k = Key::from_u128(key);
        let cipher = Gift64::new(k);
        let known = &cipher.round_keys()[..stage - 1];
        let rk = cipher.round_keys()[stage - 1];
        let batch = disjoint_batches(stage)[batch_idx];
        let specs: Vec<TargetSpec> =
            batch.iter().map(|&s| TargetSpec::new(stage, s)).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let pt = craft_plaintext(&specs, known, &mut rng).unwrap();
        let round_input = cipher.encrypt_rounds(pt, stage);
        for spec in &specs {
            let v = (rk.v >> spec.segment) & 1 == 1;
            let u = (rk.u >> spec.segment) & 1 == 1;
            prop_assert_eq!(
                segment_64(round_input, spec.segment),
                spec.expected_index(v, u)
            );
        }
    }

    #[test]
    fn table_crafting_replays_the_list_algorithm(
        key in any::<u128>(),
        stage in 1usize..=4,
        batch_idx in 0usize..4,
        take in 1usize..=4,
        patterns in any::<u16>(),
        seed in any::<u64>(),
    ) {
        // Same plaintext, same RNG state afterwards: the preimage table
        // changes no draw, so every campaign stays byte-identical.
        let cipher = Gift64::new(Key::from_u128(key));
        let known = &cipher.round_keys()[..stage - 1];
        let specs: Vec<TargetSpec> = disjoint_batches(stage)[batch_idx][..take]
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                TargetSpec::with_forced_pattern(stage, s, (patterns >> (4 * i)) as u8 & 0xf)
            })
            .collect();
        let mut table_rng = StdRng::seed_from_u64(seed);
        let mut list_rng = table_rng.clone();
        for _ in 0..3 {
            let pt = craft_plaintext(&specs, known, &mut table_rng).unwrap();
            prop_assert_eq!(pt, craft_plaintext_with_lists(&specs, known, &mut list_rng));
            prop_assert_eq!(&table_rng, &list_rng);
        }
    }

    #[test]
    fn true_hypothesis_always_survives_observation(
        key in any::<u128>(),
        segment in 0usize..16,
        probing_round in 1usize..=4,
        flush in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let k = Key::from_u128(key);
        let cfg = ObservationConfig::ideal()
            .with_probing_round(probing_round)
            .with_flush(flush);
        let mut oracle = VictimOracle::new(k, cfg);
        let spec = TargetSpec::new(1, segment);
        let rk = Gift64::new(k).round_keys()[0];
        let v = (rk.v >> segment) & 1 == 1;
        let u = (rk.u >> segment) & 1 == 1;
        let mut rng = StdRng::seed_from_u64(seed);
        let pt = craft_plaintext(&[spec], &[], &mut rng).unwrap();
        let observed = oracle.observe(pt);
        prop_assert!(oracle.hypothesis_consistent(&spec, &observed, v, u));
    }

    #[test]
    fn key_bits_from_index_inverts_expected_index(
        segment in 0usize..16,
        stage in 1usize..=4,
        pattern in 0u8..16,
        v in any::<bool>(),
        u in any::<bool>(),
    ) {
        let spec = TargetSpec::with_forced_pattern(stage, segment, pattern);
        prop_assert_eq!(spec.key_bits_from_index(spec.expected_index(v, u)), (v, u));
    }

    #[test]
    fn coarse_line_observation_is_superset_of_fine_prediction(
        key in any::<u128>(),
        words_log2 in 0u32..4,
        seed in any::<u64>(),
    ) {
        // At any line size, the line containing the true index must be
        // observed — the invariant that keeps elimination sound at every
        // Table I geometry.
        let k = Key::from_u128(key);
        let words = 1usize << words_log2;
        let cfg = ObservationConfig::ideal().with_words_per_line(words);
        let mut oracle = VictimOracle::new(k, cfg);
        let spec = TargetSpec::new(1, 5);
        let rk = Gift64::new(k).round_keys()[0];
        let v = (rk.v >> 5) & 1 == 1;
        let u = (rk.u >> 5) & 1 == 1;
        let mut rng = StdRng::seed_from_u64(seed);
        let pt = craft_plaintext(&[spec], &[], &mut rng).unwrap();
        let observed = oracle.observe(pt);
        prop_assert!(oracle.hypothesis_consistent(&spec, &observed, v, u));
    }
}
