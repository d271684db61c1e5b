//! Property tests pinning the packed reachable-product builders to the
//! preserved reference construction.
//!
//! `ReachableProduct` now interns states through packed mixed-radix `u64`
//! keys (dense table or key hash map) with flat pre-resolved successor
//! tables; the seed tuple-keyed BFS is preserved as
//! `ReachableProduct::new_reference`.  This suite checks, for random
//! machine families, that every observable of the packed build — size,
//! state names, component tuples, the full transition table, `find_tuple`
//! over the whole (reachable or not) tuple space, and the projection blocks
//! the fusion layer consumes — is bit-identical to the reference build.

use fsm_fusion::machines::{random_dfsm, RandomDfsmConfig};
use fsm_fusion::prelude::*;
use proptest::prelude::*;

/// A small random machine family over a shared alphabet, with a mix of
/// per-machine alphabets so some machines ignore some union events.
fn machine_family(seed: u64, count: usize) -> Vec<Dfsm> {
    (0..count)
        .map(|i| {
            let alphabet: Vec<String> = if i % 2 == 0 {
                vec!["0".into(), "1".into()]
            } else {
                vec!["1".into(), "2".into()]
            };
            random_dfsm(
                &format!("M{i}"),
                &RandomDfsmConfig {
                    states: 2 + ((seed as usize + 5 * i) % 4),
                    alphabet,
                    seed: seed.wrapping_add(i as u64 * 7919),
                },
            )
        })
        .collect()
}

/// Every observable of two product constructions must agree.
fn assert_products_identical(
    a: &ReachableProduct,
    b: &ReachableProduct,
) -> std::result::Result<(), TestCaseError> {
    prop_assert_eq!(a.size(), b.size());
    prop_assert_eq!(a.arity(), b.arity());
    prop_assert_eq!(a.full_product_size(), b.full_product_size());
    let k = a.top().alphabet().len();
    prop_assert_eq!(k, b.top().alphabet().len());
    for t in 0..a.size() {
        let t = StateId(t);
        prop_assert_eq!(a.tuple(t), b.tuple(t));
        prop_assert_eq!(a.top().state_name(t), b.top().state_name(t));
        for e in 0..k {
            let e = fsm_fusion::dfsm::EventId(e);
            prop_assert_eq!(a.top().next(t, e), b.top().next(t, e));
        }
    }
    for i in 0..a.arity() {
        prop_assert_eq!(a.projection_blocks(i), b.projection_blocks(i));
    }
    Ok(())
}

/// `find_tuple` agreement over the whole full product (reachable or not),
/// enumerated via mixed-radix counting.
fn assert_find_tuple_sweep(
    a: &ReachableProduct,
    b: &ReachableProduct,
    machines: &[Dfsm],
) -> std::result::Result<(), TestCaseError> {
    let sizes: Vec<usize> = machines.iter().map(|m| m.size()).collect();
    let full: usize = sizes.iter().product();
    for mut code in 0..full {
        let tuple: Vec<StateId> = sizes
            .iter()
            .map(|&s| {
                let c = StateId(code % s);
                code /= s;
                c
            })
            .collect();
        prop_assert_eq!(a.find_tuple(&tuple), b.find_tuple(&tuple));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The packed build equals the reference build in every observable,
    /// including `find_tuple` over every tuple of the full product
    /// (reachable or not) and one out-of-range probe.
    #[test]
    fn packed_and_parallel_products_match_reference(
        seed in 0u64..100_000,
        count in 1usize..4,
    ) {
        let machines = machine_family(seed, count);
        let reference = ReachableProduct::new_reference(&machines).unwrap();
        let packed = ProductBuilder::new().build(&machines).unwrap();
        assert_products_identical(&reference, &packed)?;
        assert_find_tuple_sweep(&reference, &packed, &machines)?;
        // Out-of-range components are rejected, never aliased into a key.
        let mut bogus: Vec<StateId> = machines.iter().map(|m| StateId(m.size())).collect();
        prop_assert_eq!(packed.find_tuple(&bogus), None);
        bogus[0] = StateId(usize::MAX);
        prop_assert_eq!(packed.find_tuple(&bogus), None);
        // Wrong-arity tuples are rejected as well.
        prop_assert_eq!(packed.find_tuple(&[]), None);
    }

    /// The streaming builder — both with the roomy default budget and with
    /// a tiny one that forces the map interner and page spilling on larger
    /// products — equals the reference build in every observable.
    #[test]
    fn streaming_products_match_reference(
        seed in 0u64..100_000,
        count in 1usize..4,
    ) {
        let machines = machine_family(seed, count);
        let reference = ReachableProduct::new_reference(&machines).unwrap();
        let builder = ProductBuilder::new().strategy(ProductStrategy::Streaming);
        let (roomy, stats) = builder.build_with_stats(&machines).unwrap();
        prop_assert!(stats.streamed);
        assert_products_identical(&reference, &roomy)?;
        assert_find_tuple_sweep(&reference, &roomy, &machines)?;

        let (tiny, stats) = builder
            .clone()
            .mem_budget(64)
            .build_with_stats(&machines)
            .unwrap();
        prop_assert!(stats.streamed);
        prop_assert_eq!(stats.mem_budget, 64);
        assert_products_identical(&reference, &tiny)?;
        assert_find_tuple_sweep(&reference, &tiny, &machines)?;
    }

    /// Capping the packed-key capacity forces the `u64`-overflow fallback
    /// (tuple-keyed interning, as used when `∏|Sᵢ|` does not fit a packed
    /// key) on machines small enough to sweep exhaustively; every
    /// observable must still equal the packed build.
    #[test]
    fn capped_packed_keys_match_the_packed_build(
        seed in 0u64..100_000,
        count in 1usize..4,
    ) {
        let machines = machine_family(seed, count);
        let full: u64 = machines.iter().map(|m| m.size() as u64).product();
        let packed = ProductBuilder::new().build(&machines).unwrap();
        let capped = ProductBuilder::new()
            .packed_key_capacity(full - 1)
            .build(&machines)
            .unwrap();
        assert_products_identical(&packed, &capped)?;
        assert_find_tuple_sweep(&packed, &capped, &machines)?;
        // Out-of-range and wrong-arity probes behave identically too.
        let bogus: Vec<StateId> = machines.iter().map(|m| StateId(m.size())).collect();
        prop_assert_eq!(capped.find_tuple(&bogus), None);
        prop_assert_eq!(capped.find_tuple(&[]), None);
    }

    /// The env-reading constructor agrees with the reference too, and the
    /// downstream fusion pipeline sees identical inputs: projection
    /// partitions built from packed and reference products are equal.
    #[test]
    fn projection_partitions_are_engine_independent(seed in 0u64..100_000) {
        let machines = machine_family(seed, 2);
        let reference = ReachableProduct::new_reference(&machines).unwrap();
        let packed = ReachableProduct::new(&machines).unwrap();
        assert_products_identical(&reference, &packed)?;
        let ref_parts = fsm_fusion::fusion::projection_partitions(&reference);
        let packed_parts = fsm_fusion::fusion::projection_partitions(&packed);
        prop_assert_eq!(ref_parts, packed_parts);
    }
}
