//! EXPERIMENTS.md's summary rows as executable checks, run on the
//! figure binaries' own inputs.

use xcache_bench::{widx_geometry, widx_workload};
use xcache_dsa::widx;
use xcache_workloads::QueryClass;

/// Fig 4: meta-tag hits bypass the walkers at the pipelined 3-cycle
/// load-to-use, and the address-tagged design (which walks hash, bucket
/// and chain even for resident elements) is slower on average, for every
/// TPC-H class at fig04's scale 10.
#[test]
fn fig04_meta_hit_p50_is_three_cycles_and_beats_address_tags() {
    let scale = 10;
    for class in QueryClass::all() {
        let w = widx_workload(class, scale, 7);
        let g = widx_geometry(scale);
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
