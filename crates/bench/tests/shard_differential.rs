//! Differential tests for the sharded topology: a sharded run must be
//! byte-identical run sequentially and in parallel across `Runner` job
//! counts, and must keep the skip/no-skip invariant end to end. The
//! routing proptest pins [`owner_of`] down as a partition of the key
//! space, and a geometry proptest checks that per-shard configs stay
//! well-formed.

use proptest::prelude::*;
use xcache_bench::{widx_geometry, Runner, Scenario};
use xcache_core::{owner_of, shard_geometry, MetaKey, XCacheConfig};
use xcache_dsa::{graphpulse, spgemm, widx, RunReport};
use xcache_sim::with_skip;
use xcache_workloads::QueryClass;

/// Every observable of a run, for byte-identity comparison.
fn fingerprint(r: &RunReport) -> (u64, u64, String, Vec<(String, u64)>) {
    let mut counters: Vec<(String, u64)> = r
        .stats
        .counters
        .iter()
        .map(|(k, v)| (k.clone(), *v))
        .collect();
    counters.sort();
    (r.cycles, r.checksum, r.label.clone(), counters)
}

fn small_widx() -> widx::WidxWorkload {
    let mut preset = QueryClass::Q19.preset().scaled_down(400);
    preset.probes = 400;
    widx::WidxWorkload::from_preset(&preset, 7)
}

fn small_spgemm() -> spgemm::SpgemmWorkload {
    let a = xcache_workloads::CsrMatrix::generate(
        64,
        64,
        420,
        xcache_workloads::SparsePattern::RMat,
        11,
    );
    spgemm::SpgemmWorkload {
        b: a.clone(),
        a,
        algorithm: spgemm::Algorithm::Gustavson,
    }
}

fn spgemm_geometry() -> XCacheConfig {
    XCacheConfig {
        sets: 32,
        ways: 4,
        active: 8,
        exe: 4,
        data_sectors: 512,
        ..XCacheConfig::sparch()
    }
}

fn small_graphpulse() -> graphpulse::GraphPulseWorkload {
    graphpulse::GraphPulseWorkload {
        graph: xcache_workloads::Graph::from_adjacency(xcache_workloads::CsrMatrix::generate(
            96,
            96,
            400,
            xcache_workloads::SparsePattern::RMat,
            5,
        )),
        iterations: 2,
    }
}

fn graphpulse_geometry() -> XCacheConfig {
    XCacheConfig {
        sets: 128,
        ways: 1,
        data_sectors: 128,
        ..XCacheConfig::graphpulse()
    }
}

/// Asserts `run` produces the same bytes in every host execution mode: once
/// sequentially on the test thread (the reference), then as two copies in
/// a 1-job `Runner` grid and in a 2-job grid, where the copies run in
/// parallel on worker threads.
fn assert_identical_across_runner_jobs(label: &str, run: &(dyn Fn() -> RunReport + Sync)) {
    let reference = fingerprint(&run());
    for jobs in [1usize, 2] {
        let cells: Vec<Scenario<'_, RunReport>> = (0..2)
            .map(|copy| Scenario::new(format!("{label} #{copy}"), run))
            .collect();
        for (copy, report) in Runner::with_jobs(jobs).run(cells).iter().enumerate() {
            assert_eq!(
                fingerprint(report),
                reference,
                "{label} sharded copy {copy} diverged from the sequential run at {jobs} jobs"
            );
        }
    }
}

/// The determinism contract: one sharded Widx simulation produces the
/// same bytes run sequentially and in parallel inside 1-job and 2-job
/// `Runner` grids.
#[test]
fn sharded_run_identical_across_par_modes_and_runner_jobs() {
    let w = small_widx();
    let g = widx_geometry(40);
    assert_identical_across_runner_jobs("widx", &|| {
        widx::run_xcache_sharded(&w, Some(g.clone()), 4)
    });
}

/// The same contract for the other two accelerators, at a shard count
/// that does not divide the workload evenly.
#[test]
fn sharded_spgemm_and_graphpulse_agree_across_modes() {
    let (w, g) = (small_spgemm(), spgemm_geometry());
    assert_identical_across_runner_jobs("spgemm", &|| {
        spgemm::run_xcache_sharded(&w, Some(g.clone()), 3)
    });
    let (w, g) = (small_graphpulse(), graphpulse_geometry());
    assert_identical_across_runner_jobs("graphpulse", &|| {
        graphpulse::run_xcache_sharded(&w, Some(g.clone()), 3)
    });
}

/// Idle-cycle fast-forwarding stays an invariant under sharding: the
/// horizon-synchronized runs agree on every observable with skipping on
/// and off, for all three accelerators.
#[test]
fn sharded_skip_invariant() {
    let widx_w = small_widx();
    let widx_g = widx_geometry(40);
    let spgemm_w = small_spgemm();
    let spgemm_g = spgemm_geometry();
    let gp_w = small_graphpulse();
    let gp_g = graphpulse_geometry();
    type NamedRun<'a> = (&'a str, Box<dyn Fn() -> RunReport + 'a>);
    let runs: Vec<NamedRun<'_>> = vec![
        (
            "widx",
            Box::new(|| widx::run_xcache_sharded(&widx_w, Some(widx_g.clone()), 4)),
        ),
        (
            "spgemm",
            Box::new(|| spgemm::run_xcache_sharded(&spgemm_w, Some(spgemm_g.clone()), 4)),
        ),
        (
            "graphpulse",
            Box::new(|| graphpulse::run_xcache_sharded(&gp_w, Some(gp_g.clone()), 4)),
        ),
    ];
    for (label, run) in &runs {
        let fast = fingerprint(&with_skip(true, run));
        let slow = fingerprint(&with_skip(false, run));
        assert_eq!(fast, slow, "{label}: sharded skip/no-skip runs diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `owner_of` is a partition of the key space: every key has exactly
    /// one owner, the owner is in range, the mapping is deterministic,
    /// and one shard degenerates to the identity routing.
    #[test]
    fn owner_of_partitions_the_key_space(raw in any::<u64>(), shards in 1usize..9) {
        let owner = owner_of(MetaKey::new(raw), shards);
        prop_assert!(owner < shards, "owner {owner} out of range for {shards} shards");
        prop_assert_eq!(owner, owner_of(MetaKey::new(raw), shards), "routing is not deterministic");
        if shards == 1 {
            prop_assert_eq!(owner, 0);
        }
    }

    /// Per-shard geometries stay well-formed: power-of-two set count, at
    /// least one set, and enough data sectors to back every meta entry.
    #[test]
    fn shard_geometry_stays_well_formed(shards in 1usize..9) {
        let base = widx_geometry(40);
        let cfg = shard_geometry(&base, shards);
        prop_assert!(cfg.sets >= 1);
        prop_assert!(cfg.sets.is_power_of_two());
        prop_assert!(cfg.data_sectors >= cfg.sets * cfg.ways);
        if shards == 1 {
            prop_assert_eq!(cfg.sets, base.sets);
            prop_assert_eq!(cfg.data_sectors, base.data_sectors);
        }
    }
}

/// The interleaved routing spreads consecutive keys: over a dense key
/// range every shard owns a non-trivial slice, and the per-shard slices
/// are disjoint and cover the range (each key is counted exactly once).
#[test]
fn owner_of_spreads_dense_key_ranges() {
    const KEYS: u64 = 1024;
    for shards in 1usize..=8 {
        let mut buckets = vec![0u64; shards];
        for raw in 0..KEYS {
            buckets[owner_of(MetaKey::new(raw), shards)] += 1;
        }
        assert_eq!(buckets.iter().sum::<u64>(), KEYS);
        let floor = KEYS / (shards as u64 * 4);
        for (s, count) in buckets.iter().enumerate() {
            assert!(
                *count >= floor.max(1),
                "shard {s}/{shards} owns only {count} of {KEYS} dense keys"
            );
        }
    }
}
