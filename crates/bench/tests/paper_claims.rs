//! EXPERIMENTS.md's summary rows as executable checks, run on the
//! figure binaries' own inputs.

use xcache_bench::{
    graphpulse_geometry, p2p08_pagerank, residency_geometry, residency_workload, widx_geometry,
    widx_workload,
};
use xcache_core::XCacheConfig;
use xcache_dsa::{graphpulse, widx};
use xcache_workloads::QueryClass;

/// The figure binaries' default inputs.
const SCALE: u32 = 10;
const SEED: u64 = 7;

/// Fig 4: meta-tag hits bypass the walkers at the pipelined 3-cycle
/// load-to-use, and the address-tagged design (which walks hash, bucket
/// and chain even for resident elements) is slower on average, for every
/// TPC-H class at fig04's scale 10.
#[test]
fn fig04_meta_hit_p50_is_three_cycles_and_beats_address_tags() {
    for class in QueryClass::all() {
        let w = widx_workload(class, SCALE, SEED);
        let g = widx_geometry(SCALE);
        let x = widx::run_xcache(&w, Some(g.clone()));
        let a = widx::run_address_cache(&w, Some(g));
        let name = class.name();
        assert_eq!(
            x.stats.get("xcache.load_to_use.p50"),
            3,
            "{name}: meta-tag hit p50"
        );
        let x_mean = x.stats.get("xcache.load_to_use.sum") as f64
            / x.stats.get("xcache.load_to_use.count").max(1) as f64;
        let a_mean = a.stats.get("engine.task_latency.sum") as f64
            / a.stats.get("engine.task_latency.count").max(1) as f64;
        assert!(
            a_mean > x_mean,
            "{name}: address-tag mean {a_mean:.1} must exceed meta-tag mean {x_mean:.1}"
        );
    }
}

/// Fig 17: X-Cache's speedup over the Widx baseline rises strictly with
/// on-chip residency over 10/25/50/75 %. The 100 % point dips and is not
/// part of the claim.
#[test]
fn fig17_speedup_rises_with_residency() {
    let w = residency_workload(SCALE, SEED);
    let speedups: Vec<f64> = [10u32, 25, 50, 75]
        .into_iter()
        .map(|resident_pct| {
            let g = residency_geometry(w.index.len(), resident_pct);
            let x = widx::run_xcache(&w, Some(g.clone()));
            x.speedup_over(&widx::run_baseline(&w, Some(g)))
        })
        .collect();
    assert!(
        speedups.windows(2).all(|p| p[1] > p[0]),
        "speedup must rise with residency: {speedups:.2?}"
    );
}

/// Fig 18: GraphPulse is routine-throughput-bound, so 16/4 #Active/#Exe
/// is at least 2x faster than 4/1; Widx is DRAM-bound, so going from
/// 16/4 to 32/8 gains at most 10 %.
#[test]
fn fig18_graphpulse_gains_from_parallelism_and_widx_saturates() {
    let gw = p2p08_pagerank(SCALE, SEED);
    let graphpulse_cycles = |active, exe| {
        let g = XCacheConfig {
            active,
            exe,
            ..graphpulse_geometry(gw.graph.vertices())
        };
        graphpulse::run_xcache(&gw, Some(g)).cycles as f64
    };
    let gain = graphpulse_cycles(4, 1) / graphpulse_cycles(16, 4);
    assert!(gain >= 2.0, "GraphPulse 16/4 over 4/1: {gain:.2}x");

    let ww = widx_workload(QueryClass::Q22, SCALE, SEED);
    let widx_cycles = |active, exe| {
        let g = XCacheConfig {
            active,
            exe,
            ..widx_geometry(SCALE)
        };
        widx::run_xcache(&ww, Some(g)).cycles as f64
    };
    let gain = widx_cycles(16, 4) / widx_cycles(32, 8);
    assert!(gain <= 1.10, "Widx 32/8 over 16/4: {gain:.2}x");
}
